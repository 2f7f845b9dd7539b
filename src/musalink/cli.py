"""Batch experiment runner: sweeps, scheme comparisons and validation.

Subcommands
    analytic   frame coverage across a parameter sweep -> CSV
    simulate   Monte Carlo coverage estimate -> CSV (+ manifest)
    optimize   adaptive slot count with brute-force cross-check -> report
    compare    proposed vs benchmark schemes across traffic rates -> CSV
    validate   analytic vs simulated coverage on an (n_active, lambda) grid

CSV columns are fixed per subcommand and floats are printed at 17
significant digits so identical invocations produce identical bytes.
Exit codes: 0 success, 2 usage, 3 configuration, 4 infeasibility,
5 numerical failure.  MUSALINK_WORKERS overrides the worker count.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
import time
from dataclasses import replace

from .analytic import frame_coverage_prob
from .config import (
    ConfigError,
    SystemConfig,
    default_config,
    load_config,
    serialize_config,
)
from .optimizer import InfeasibleError, adaptive_slots, brute_force_slots
from .quadrature import QuadratureError
from .simulator import Scheme, estimate_coverage

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERIC = 5

# the sweep axes and the smallest value each takes
_SWEEP_AXES = {"lambda": 0.0, "n_active": 1, "n_slots": 1}


def _fmt(x: float) -> str:
    return "%.17g" % x


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _config_hash(cfg: SystemConfig) -> str:
    return _sha256(serialize_config(cfg))


def _read_config(path: str | None) -> SystemConfig:
    if path is None:
        return default_config()
    with open(path, "rb") as fh:
        return load_config(fh)


def _with_axis(cfg: SystemConfig, axis: str, value: float) -> SystemConfig:
    if axis == "lambda":
        return replace(cfg, traffic=replace(cfg.traffic, lam=float(value)))
    if axis == "n_active":
        return replace(cfg, traffic=replace(cfg.traffic, n_active=int(value)))
    if axis == "n_slots":
        return replace(cfg, frame=replace(cfg.frame, n_slots=int(value)))
    raise ValueError(f"unknown sweep axis {axis!r}")


def _expand_range(text: str, minimum: float = -math.inf) -> list[float]:
    """Expand ``start:stop:step`` into start, start + step, ... up to stop.

    A range that starts below ``minimum`` is refused.
    """
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must look like start:stop:step, got {text!r}"
        ) from None
    if step <= 0:
        raise argparse.ArgumentTypeError("range step must be > 0")
    values = []
    v = start
    while v <= stop + 1e-9 * max(1.0, abs(stop)):
        values.append(v)
        v = start + len(values) * step
    if not values:
        raise argparse.ArgumentTypeError("range is empty")
    if values[0] < minimum:
        raise argparse.ArgumentTypeError(
            f"range values must be >= {minimum:g}, got {values[0]:g}"
        )
    return values


def _at_least(minimum, convert=int):
    """Argument type: ``convert(text)``, refused below ``minimum``."""
    def parse(text: str):
        value = convert(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum:g}, got {text!r}")
        return value
    # argparse and _comma_list name the type in their messages by __name__
    parse.__name__ = convert.__name__
    return parse


def _comma_list(convert):
    """Argument type: comma-separated values, each passed through ``convert``."""
    def parse(text: str) -> list:
        try:
            return [convert(v) for v in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {convert.__name__} values, got {text!r}"
            ) from None
    return parse


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    axis, sep, rng = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"sweep must look like axis=start:stop:step, got {text!r}"
        )
    axis = axis.strip()
    if axis not in _SWEEP_AXES:
        raise argparse.ArgumentTypeError(f"sweep axis must be one of {tuple(_SWEEP_AXES)}")
    return axis, _expand_range(rng, _SWEEP_AXES[axis])


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _workers() -> int:
    env = os.environ.get("MUSALINK_WORKERS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"MUSALINK_WORKERS must be an integer, got {env!r}"
        ) from None


# ----------------------------------------------------------------------------
#  Subcommands
# ----------------------------------------------------------------------------

def cmd_analytic(args) -> int:
    cfg = _read_config(args.config)
    if args.sweep:
        axis, values = args.sweep
    else:
        axis, values = "lambda", [cfg.traffic.lam]
    lines = [f"{axis},p_succ,p_lambda,p_cf,n_singleton"]
    for value in values:
        report = frame_coverage_prob(_with_axis(cfg, axis, value))
        lines.append(
            ",".join(
                [
                    _fmt(value),
                    _fmt(report.p_succ),
                    _fmt(report.p_lambda),
                    _fmt(report.p_cf),
                    _fmt(report.n_singleton),
                ]
            )
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _manifest_lines(cfg: SystemConfig, args, points: list[dict]) -> str:
    serialized = serialize_config(cfg)
    lines = [
        f"manifest.command = {args.command}",
        f"manifest.config_sha256 = {_sha256(serialized)}",
        f"manifest.seed = {getattr(args, 'seed', '')}",
        f"manifest.trials = {getattr(args, 'trials', '')}",
    ]
    for line in serialized.strip().splitlines():
        if line.startswith("#"):
            continue
        lines.append(f"config.{line}")
    for i, point in enumerate(points):
        for key, val in point.items():
            lines.append(f"point.{i}.{key} = {val}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    scheme = Scheme(args.scheme)
    t0 = time.perf_counter()
    est = estimate_coverage(cfg, scheme, args.trials, args.seed, n_workers=_workers())
    elapsed = time.perf_counter() - t0
    header = "scheme,trials,seed,p_hat,ci_halfwidth,packets_generated,packets_decoded,packets_dropped"
    row = ",".join(
        [
            scheme.value,
            str(args.trials),
            str(args.seed),
            _fmt(est.p_hat),
            _fmt(est.ci_halfwidth),
            str(est.packets_generated),
            str(est.packets_decoded),
            str(est.packets_dropped),
        ]
    )
    _write_text(args.out, header + "\n" + row + "\n")
    manifest_path = args.manifest or (args.out + ".manifest" if args.out else None)
    if manifest_path:
        point = {
            "p_hat": _fmt(est.p_hat),
            "ci_halfwidth": _fmt(est.ci_halfwidth),
            "collision_failures": str(est.collision_failures),
            "threshold_failures": str(est.threshold_failures),
            "blocked_failures": str(est.blocked_failures),
            "wall_clock_s": _fmt(elapsed),
        }
        _write_text(manifest_path, _manifest_lines(cfg, args, [point]))
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _read_config(args.config)
    out = adaptive_slots(cfg)
    lines = [
        f"config_sha256 = {_config_hash(cfg)}",
        f"n_practical = {out.n_practical}",
        f"n_star = {_fmt(out.n_star)}",
        f"n_lambda_bound = {_fmt(out.n_lambda_bound)}",
        f"n_epsilon_bound = {_fmt(out.n_epsilon_bound)}",
        f"binding = {out.binding}",
        f"residual = {_fmt(out.residual)}",
    ]
    if args.brute_points > 0:
        import numpy as np

        lo = max(1, int(np.ceil(cfg.traffic.lam)))
        grid = {int(round(v)) for v in np.linspace(lo, out.n_practical, args.brute_points)}
        grid.add(out.n_practical)
        result = brute_force_slots(cfg, sorted(grid))
        p_at_choice = dict(result.curve)[out.n_practical]
        lines.append(f"brute_force.best_n = {result.best_n}")
        lines.append(f"brute_force.best_p = {_fmt(result.best_p)}")
        lines.append(f"brute_force.p_at_n_practical = {_fmt(p_at_choice)}")
        lines.append(
            "brute_force.curve = "
            + ";".join(f"{n}:{_fmt(p)}" for n, p in result.curve)
        )
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _read_config(args.config)
    workers = _workers()
    header = (
        "lambda,proposed_p_hat,proposed_ci,tpds_p_hat,tpds_ci,nas_p_hat,nas_ci"
    )
    lines = [header]
    for lam in args.lambdas:
        cfg_l = _with_axis(cfg, "lambda", lam)
        cells = [_fmt(lam)]
        for scheme in (Scheme.PROPOSED, Scheme.TPDS, Scheme.NAS):
            est = estimate_coverage(cfg_l, scheme, args.trials, args.seed, n_workers=workers)
            cells.extend([_fmt(est.p_hat), _fmt(est.ci_halfwidth)])
        lines.append(",".join(cells))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _read_config(args.config)
    workers = _workers()
    lines = [
        f"# config_sha256 = {_config_hash(cfg)}",
        "n_active,lambda,p_succ_analytic,p_hat_simulated,ci_halfwidth,gap",
    ]
    for na in args.n_active:
        for lam in args.lambdas:
            cfg_point = _with_axis(_with_axis(cfg, "n_active", na), "lambda", lam)
            report = frame_coverage_prob(cfg_point)
            est = estimate_coverage(
                cfg_point, Scheme.BASELINE, args.trials, args.seed, n_workers=workers
            )
            gap = abs(report.p_succ - est.p_hat)
            lines.append(
                ",".join(
                    [
                        str(na),
                        _fmt(lam),
                        _fmt(report.p_succ),
                        _fmt(est.p_hat),
                        _fmt(est.ci_halfwidth),
                        _fmt(gap),
                    ]
                )
            )
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ----------------------------------------------------------------------------
#  Parser and entry point
# ----------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="musalink",
        description="Coverage analysis and link simulation for a grant-free uplink",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="config file path (defaults when omitted)")
        p.add_argument("--out", help="output file (stdout when omitted)")

    p = sub.add_parser("analytic", help="analytic coverage sweep")
    add_common(p)
    p.add_argument("--sweep", type=_parse_sweep, help="axis=start:stop:step")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo coverage estimate")
    add_common(p)
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="baseline")
    p.add_argument("--trials", type=_at_least(1), default=10000)
    p.add_argument("--seed", type=_at_least(0), default=1)
    p.add_argument("--manifest", help="manifest file path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="adaptive slot count report")
    add_common(p)
    p.add_argument("--brute-points", type=_at_least(0), default=8,
                   help="coverage-curve points for the brute-force check (0 disables)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("compare", help="proposed vs benchmark schemes")
    add_common(p)
    p.add_argument("--lambdas", type=functools.partial(_expand_range, minimum=0.0),
                   default="2:10:1",
                   help="start:stop:step traffic rates")
    p.add_argument("--trials", type=_at_least(1), default=10000)
    p.add_argument("--seed", type=_at_least(0), default=1)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="analytic vs simulated coverage grid")
    add_common(p)
    p.add_argument("--n-active", type=_comma_list(_at_least(1)), default="10,20",
                   dest="n_active", help="comma-separated device counts")
    p.add_argument("--lambdas", type=_comma_list(_at_least(0.0, float)), default="2,10",
                   help="comma-separated traffic rates")
    p.add_argument("--trials", type=_at_least(1), default=10000)
    p.add_argument("--seed", type=_at_least(0), default=1)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except QuadratureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))  # exits with EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
