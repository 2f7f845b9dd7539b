"""Batch experiment runner: sweeps, scheme comparisons and validation.

Subcommands
    analytic   frame coverage across a parameter sweep -> CSV
    simulate   Monte Carlo coverage estimate -> CSV (+ manifest)
    optimize   adaptive slot count with brute-force cross-check -> report
    compare    proposed vs benchmark schemes across traffic rates -> CSV
    validate   analytic vs simulated coverage on an (n_active, lambda) grid

Each command builds its rows as mappings keyed by column name, and one
writer renders them: a column named like a result field (of
``CoverageEstimate``, ``CoverageReport`` or ``OptimizerOutput``) holds that
field.  Floats are printed at 17 significant digits, everything else by
``str``, so identical invocations produce identical bytes.  ``--trials``
and ``--seed`` mean the same to the three Monte Carlo commands (simulate,
compare, validate).  Exit codes: 0 success, 2 usage, 3 configuration,
4 infeasibility, 5 numerical failure.  MUSALINK_WORKERS, a positive
integer, overrides the worker count.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys
import time

from .analytic import QuadratureError, frame_coverage_probs
from .config import (
    ConfigError,
    SystemConfig,
    default_config,
    load_config,
    serialize_config,
    with_values,
)
from .optimizer import InfeasibleError, adaptive_slots, brute_force_slots
from .simulator import Scheme, estimate_coverage

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERIC = 5

# sweep axis -> (config key, smallest value); an int marks an integer axis
_SWEEP_AXES = {
    "lambda": ("traffic.lambda", 0.0),
    "n_active": ("traffic.n_active", 1),
    "n_slots": ("frame.n_slots", 1),
}

# the analytic columns after the axis, each a CoverageReport field
_ANALYTIC_FIELDS = ("p_succ", "p_lambda", "p_cf", "n_singleton")

# the simulate row's fields also written to its manifest
_MANIFEST_FIELDS = (
    "p_hat", "ci_halfwidth", "collision_failures", "threshold_failures", "blocked_failures",
)

# the most values a start:stop:step range may expand to
_MAX_RANGE_POINTS = 100_000


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _read_config(path: str | None) -> SystemConfig:
    if path is None:
        return default_config()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    return load_config(data)


def _expand_range(text: str, minimum: float = -math.inf) -> list[float]:
    """Expand ``start:stop:step`` into start, start + step, ... up to stop.

    A range with a non-finite value, one that starts below ``minimum`` or
    one of more than ``_MAX_RANGE_POINTS`` values is refused.
    """
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must look like start:stop:step, got {text!r}"
        ) from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise argparse.ArgumentTypeError(f"range values must be finite, got {text!r}")
    if step <= 0:
        raise argparse.ArgumentTypeError("range step must be > 0")
    # floor((stop - start)/step) + 1 values, counted before any is made; the
    # quotient of two finite values may overflow to inf
    if (stop - start) / step >= _MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(
            f"range has more than {_MAX_RANGE_POINTS} values, got {text!r}"
        )
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
    """Argument type: ``convert(text)``, refused if non-finite or below ``minimum``."""
    def parse(text: str):
        value = convert(text)
        if isinstance(value, float) and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
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


def _parse_sweep(text: str) -> tuple[str, list]:
    axis, sep, rng = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"sweep must look like axis=start:stop:step, got {text!r}"
        )
    axis = axis.strip()
    if axis not in _SWEEP_AXES:
        raise argparse.ArgumentTypeError(f"sweep axis must be one of {tuple(_SWEEP_AXES)}")
    minimum = _SWEEP_AXES[axis][1]
    values = _expand_range(rng, minimum)
    if isinstance(minimum, int):
        fractional = [v for v in values if not v.is_integer()]
        if fractional:
            raise argparse.ArgumentTypeError(
                f"{axis} values must be integers, got {fractional[0]:g}"
            )
        values = [int(v) for v in values]
    return axis, values


def _cell(value) -> str:
    """A float at 17 significant digits, anything else by ``str``."""
    return "%.17g" % value if isinstance(value, float) else str(value)


def _table(columns, rows) -> list[str]:
    """CSV lines: the header, then each row's cells in column order."""
    return [",".join(columns)] + [",".join(_cell(row[c]) for c in columns) for row in rows]


def _report(fields: dict) -> list[str]:
    return [f"{key} = {_cell(value)}" for key, value in fields.items()]


def _write_lines(path: str | None, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write {path}: {exc.strerror or exc}") from None


def _workers() -> int:
    env = os.environ.get("MUSALINK_WORKERS")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"MUSALINK_WORKERS must be an integer, got {env!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"MUSALINK_WORKERS must be >= 1, got {env!r}")
    return workers


# ----------------------------------------------------------------------------
#  Subcommands
# ----------------------------------------------------------------------------

def cmd_analytic(args) -> int:
    cfg = _read_config(args.config)
    axis, values = args.sweep or ("lambda", [cfg.traffic.lam])
    key = _SWEEP_AXES[axis][0]
    reports = frame_coverage_probs([with_values(cfg, {key: value}) for value in values])
    rows = [{axis: value, **vars(report)} for value, report in zip(values, reports)]
    _write_lines(args.out, _table((axis, *_ANALYTIC_FIELDS), rows))
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    scheme = Scheme(args.scheme)
    t0 = time.perf_counter()
    est = estimate_coverage(cfg, scheme, args.trials, args.seed, n_workers=_workers())
    elapsed = time.perf_counter() - t0
    row = {"scheme": scheme.value, "trials": args.trials, "seed": args.seed, **vars(est)}
    # n_frames repeats trials
    _write_lines(args.out, _table([c for c in row if c != "n_frames"], [row]))
    manifest_path = args.manifest or (args.out + ".manifest" if args.out else None)
    if manifest_path:
        serialized = serialize_config(cfg)
        manifest = {
            "manifest.command": args.command,
            "manifest.config_sha256": _sha256(serialized),
            "manifest.seed": args.seed,
            "manifest.trials": args.trials,
        }
        manifest.update(
            f"config.{line}".split(" = ", 1)
            for line in serialized.splitlines() if not line.startswith("#")
        )
        manifest.update((f"point.0.{key}", row[key]) for key in _MANIFEST_FIELDS)
        manifest["point.0.wall_clock_s"] = elapsed
        _write_lines(manifest_path, _report(manifest))
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg = _read_config(args.config)
    out = adaptive_slots(cfg)
    report = {"config_sha256": _sha256(serialize_config(cfg)), **vars(out)}
    del report["n_min"]
    if args.brute_points > 0:
        import numpy as np

        grid = {
            int(round(v)) for v in np.linspace(out.n_min, out.n_practical, args.brute_points)
        }
        grid.add(out.n_practical)
        result = brute_force_slots(cfg, sorted(grid))
        report.update({
            "brute_force.best_n": result.best_n,
            "brute_force.best_p": result.best_p,
            "brute_force.p_at_n_practical": dict(result.curve)[out.n_practical],
            "brute_force.curve": ";".join(f"{n}:{_cell(p)}" for n, p in result.curve),
        })
    _write_lines(args.out, _report(report))
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _read_config(args.config)
    workers = _workers()
    rows = []
    for lam in args.lambdas:
        cfg_l = with_values(cfg, {"traffic.lambda": lam})
        row = {"lambda": lam}
        for scheme in (Scheme.PROPOSED, Scheme.TPDS, Scheme.NAS):
            est = estimate_coverage(cfg_l, scheme, args.trials, args.seed, n_workers=workers)
            row[f"{scheme.value}_p_hat"] = est.p_hat
            row[f"{scheme.value}_ci"] = est.ci_halfwidth
        rows.append(row)
    _write_lines(args.out, _table(list(rows[0]), rows))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _read_config(args.config)
    workers = _workers()
    grid = [(na, lam) for na in args.n_active for lam in args.lambdas]
    cfgs = [with_values(cfg, {"traffic.n_active": na, "traffic.lambda": lam})
            for na, lam in grid]
    rows = []
    for (na, lam), cfg_point, report in zip(grid, cfgs, frame_coverage_probs(cfgs)):
        est = estimate_coverage(
            cfg_point, Scheme.BASELINE, args.trials, args.seed, n_workers=workers
        )
        rows.append({
            "n_active": na,
            "lambda": lam,
            "p_succ_analytic": report.p_succ,
            "p_hat_simulated": est.p_hat,
            "ci_halfwidth": est.ci_halfwidth,
            "gap": abs(report.p_succ - est.p_hat),
        })
    comment = _report({"config_sha256": _sha256(serialize_config(cfg))})
    _write_lines(args.out, [f"# {line}" for line in comment] + _table(list(rows[0]), rows))
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

    def add_monte_carlo(p):
        p.add_argument("--trials", type=_at_least(1), default=10000)
        p.add_argument("--seed", type=_at_least(0), default=1)

    p = sub.add_parser("analytic", help="analytic coverage sweep")
    add_common(p)
    p.add_argument("--sweep", type=_parse_sweep, help="axis=start:stop:step")
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("simulate", help="Monte Carlo coverage estimate")
    add_common(p)
    p.add_argument("--scheme", choices=[s.value for s in Scheme], default="baseline")
    add_monte_carlo(p)
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
    add_monte_carlo(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="analytic vs simulated coverage grid")
    add_common(p)
    p.add_argument("--n-active", type=_comma_list(_at_least(1)), default="10,20",
                   dest="n_active", help="comma-separated device counts")
    p.add_argument("--lambdas", type=_comma_list(_at_least(0.0, float)), default="2,10",
                   help="comma-separated traffic rates")
    add_monte_carlo(p)
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
