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
``str``, so identical invocations produce identical bytes.  An output
file is written in place, never unlinked or renamed, and a symlink is
followed; a regular file is then cut to the new text's length, while a
device or pipe (``/dev/stdout``) is not truncated.  The manifest that
``simulate`` implies sits beside the file actually written, ``--out``
with every symlink resolved, and only when that is a regular file: a
symlinked ``--out`` gets it beside the link's target, ``/dev/stdout``
redirected to ``run.csv`` gets ``run.csv.manifest``, and a device or
pipe gets none.  A write cut off before that final truncate can leave
the old file's tail past the new bytes.  A ``--manifest`` naming the
regular file, or the path not yet there, that ``--out`` names is a usage
error: the manifest would overwrite the CSV.  More than one value of a
config key the scenario ignores (``lambda`` outside an emergency, see
``config.reads_key``) is a usage error.  ``--trials``
and ``--seed`` mean the same to the three Monte Carlo commands (simulate,
compare, validate).  Exit codes: 0 success, 2 usage, 3 configuration,
4 infeasibility, 5 numerical failure (a quadrature that failed, or an
``ArithmeticError`` from a config whose numbers leave double range).
The three Monte Carlo commands print one ``warning:`` line to stderr,
exit status unchanged, when a point's best-case SNR is above the range
where the receiver keeps its precision.  MUSALINK_WORKERS, a positive
integer, overrides the worker count.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import stat
import sys
import time

import numpy as np

from .analytic import QuadratureError, check_point_budget, frame_coverage_probs
from .config import (
    ConfigError,
    Scheme,
    SystemConfig,
    default_config,
    key_domain,
    load_config,
    parse_whole,
    reads_key,
    serialize_config,
    with_values,
)
from .optimizer import InfeasibleError, adaptive_slots, brute_force_slots
from .shortpacket import max_snr_proxy
from .simulator import check_frame_budget, estimate_coverage

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_INFEASIBLE = 4
EXIT_NUMERIC = 5

# sweep axis -> the config key it sets
_SWEEP_AXES = {
    "lambda": "traffic.lambda",
    "n_active": "traffic.n_active",
    "n_slots": "frame.n_slots",
}

# the analytic columns after the axis, each a CoverageReport field
_ANALYTIC_FIELDS = ("p_succ", "p_lambda", "p_cf", "n_singleton")

# the simulate row's fields also written to its manifest
_MANIFEST_FIELDS = (
    "p_hat", "ci_halfwidth", "collision_failures", "threshold_failures", "blocked_failures",
    "n_slots",
)

# the most values a numeric list on the command line, or validate's grid, may hold
_MAX_RANGE_POINTS = 100_000

# the best-case SNR (shortpacket.max_snr_proxy) above which the receiver's
# cancellation sweep loses digits: at the default config p_hat is the same
# from gamma ~ 2.7e5 to 2.7e11 and moves at 2.7e13
_MAX_PRECISE_SNR = 1e12


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


def _exact(raw: str):
    """``raw`` as an exact int when it is a whole number (``config.parse_whole``),
    else as a float."""
    try:
        return parse_whole(raw)
    except ValueError:
        return float(raw)


def _numbers(minimum: float, integer: bool = False, maximum: float | None = None):
    """Argument type: comma-separated numbers and ``start:stop:step`` ranges.

    A bare number x is the range x:x:1.  A range holds start + i*step for
    i = 0, 1, ... up to stop, to within 1e-9 of a step; its values are
    counted before any is built, and a list of more than
    ``_MAX_RANGE_POINTS`` values in all is refused.  Every value must be
    finite, at least ``minimum``, at most ``maximum`` when one is given
    and, when ``integer`` is set, integral.  An integral range is read
    with ``config.parse_whole`` and built in integer arithmetic, so a
    value beyond 2^53 is not rounded.
    """
    def parse(text: str) -> list:
        values = []
        for item in text.split(","):
            parts = item.split(":")
            parts = parts if len(parts) > 1 else parts * 2 + ["1"]
            try:
                start, stop, step = map(float, parts)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"expected a number or start:stop:step, got {item!r}"
                ) from None
            if not all(map(math.isfinite, (start, stop, step))):
                raise argparse.ArgumentTypeError(f"must be finite, got {item!r}")
            if step <= 0:
                raise argparse.ArgumentTypeError(f"step must be > 0, got {item!r}")
            if integer:
                start, stop, step = map(_exact, parts)
            # the range holds floor(span) + 1 values; the quotient of two
            # finite values may overflow, so span meets the cap unfloored
            try:
                span = (stop - start) / step + 1e-9
            except OverflowError:  # an exact integer quotient beyond any float
                span = math.copysign(math.inf, stop - start)
            if span < 0:
                raise argparse.ArgumentTypeError(f"range is empty, got {item!r}")
            if span >= _MAX_RANGE_POINTS - len(values):
                raise argparse.ArgumentTypeError(
                    f"must have at most {_MAX_RANGE_POINTS} values, got {text!r}"
                )
            built = [start + i * step for i in range(int(span) + 1)]
            if any(v < minimum for v in built):
                raise argparse.ArgumentTypeError(f"must be >= {minimum:g}, got {item!r}")
            if maximum is not None and any(v > maximum for v in built):
                raise argparse.ArgumentTypeError(f"must be <= {maximum:g}, got {item!r}")
            if integer and not all(v == int(v) for v in built):
                raise argparse.ArgumentTypeError(f"must be an integer, got {item!r}")
            values += map(int, built) if integer else built
        return values
    return parse


def _values_of(key: str):
    """Argument type: numbers for config ``key``, typed and bounded by its table row."""
    kind, (_, minimum), maximum = key_domain(key)
    return _numbers(minimum, integer=kind == "int", maximum=maximum)


def _check_read(cfg: SystemConfig, key: str, option: str, values: list) -> None:
    """Refuse more than one value of config ``key`` where ``cfg``'s scenario ignores it:
    the rows would differ only in the column that sets it."""
    if len(values) > 1 and not reads_key(cfg, key):
        raise argparse.ArgumentTypeError(
            f"{option}: the {cfg.traffic.scenario.value} scenario ignores {key}, "
            f"so it takes one value, got {len(values)}"
        )


def _whole(text: str) -> int:
    """A count by the config file's rule (``config.parse_whole``): 1e4 is 10000."""
    try:
        return parse_whole(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _at_least(minimum: int):
    """Argument type: a whole number, refused below ``minimum``."""
    def parse(text: str) -> int:
        value = _whole(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {text!r}")
        return value
    return parse


def _parse_sweep(text: str) -> tuple[str, list]:
    axis, sep, items = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"sweep must look like axis=values, got {text!r}")
    axis = axis.strip()
    if axis not in _SWEEP_AXES:
        raise argparse.ArgumentTypeError(f"sweep axis must be one of {tuple(_SWEEP_AXES)}")
    return axis, _values_of(_SWEEP_AXES[axis])(items)


def _cell(value) -> str:
    """A float at 17 significant digits, anything else by ``str``."""
    return "%.17g" % value if isinstance(value, float) else str(value)


def _table(columns, rows) -> list[str]:
    """CSV lines: the header, then each row's cells in column order."""
    return [",".join(columns)] + [",".join(_cell(row[c]) for c in columns) for row in rows]


def _report(fields: dict) -> list[str]:
    return [f"{key} = {_cell(value)}" for key, value in fields.items()]


def _write_lines(path: str | None, lines: list[str]) -> None:
    """Write ``lines`` to ``path`` in place, or to stdout when it is None.

    The file is opened without ``O_TRUNC`` and a regular file is cut to
    the new text's length after it is written: truncating a file that holds
    data to zero makes ext4 flush it on close, which costs more than the
    write.  Devices and pipes are written and never truncated.
    """
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    data = text.encode()
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(data)
            fh.flush()
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                os.ftruncate(fh.fileno(), len(data))
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot write {path}: {exc.strerror or exc}") from None


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` name one regular file, or one path not yet
    there, symlinks followed: a second write there would replace the first."""
    try:
        sa, sb = os.stat(a), os.stat(b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)
    return stat.S_ISREG(sa.st_mode) and os.path.samestat(sa, sb)


def _warn_high_snr(cfgs: list[SystemConfig], schemes) -> None:
    """Print one ``warning:`` line to stderr when a Monte Carlo point's
    best-case SNR passes ``_MAX_PRECISE_SNR``: that of a lone packet from
    beneath the UAV at the largest per-packet power any of ``schemes``
    gives it (:meth:`SystemConfig.packet_power`): p_max under NAS and for a
    lone TPDS packet, the equal split under PROPOSED and BASELINE."""
    lone = np.ones(1, dtype=np.int64)
    try:
        gamma = max(
            max_snr_proxy(cfg, max(float(cfg.packet_power(s, lone)[0]) for s in schemes))
            for cfg in cfgs
        )
    except ArithmeticError:  # beyond double range
        gamma = math.inf
    if gamma > _MAX_PRECISE_SNR:
        print(f"warning: best-case SNR {gamma:.3g} is above {_MAX_PRECISE_SNR:.0e}, where"
              " the receiver loses precision: simulated coverage may be wrong",
              file=sys.stderr)


def _workers() -> int:
    env = os.environ.get("MUSALINK_WORKERS")
    try:
        return _at_least(1)(env) if env else 1
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"MUSALINK_WORKERS {exc}") from None


# ----------------------------------------------------------------------------
#  Subcommands
# ----------------------------------------------------------------------------

def cmd_analytic(args) -> int:
    cfg = _read_config(args.config)
    axis, values = args.sweep or ("lambda", [cfg.traffic.lam])
    key = _SWEEP_AXES[axis]
    _check_read(cfg, key, "--sweep", values)
    reports = frame_coverage_probs([with_values(cfg, {key: value}) for value in values])
    rows = [{axis: value, **vars(report)} for value, report in zip(values, reports)]
    _write_lines(args.out, _table((axis, *_ANALYTIC_FIELDS), rows))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.out and args.manifest and _same_file(args.out, args.manifest):
        raise argparse.ArgumentTypeError(
            f"--out {args.out} and --manifest {args.manifest} name the same file"
        )
    cfg = _read_config(args.config)
    scheme = Scheme(args.scheme)
    t0 = time.perf_counter()
    est = estimate_coverage(cfg, scheme, args.trials, args.seed, n_workers=_workers())
    elapsed = time.perf_counter() - t0
    row = {"scheme": scheme.value, "trials": args.trials, "seed": args.seed, **vars(est)}
    _warn_high_snr([cfg], [scheme])
    _write_lines(args.out, _table(list(row), [row]))
    # a manifest is implied beside the regular file written, not a device or pipe
    written = os.path.realpath(args.out) if args.out else None
    implied = written + ".manifest" if written and os.path.isfile(written) else None
    manifest_path = args.manifest or implied
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
        # more points than feasible slot counts would only repeat them
        points = min(args.brute_points, out.n_practical - out.n_min + 1)
        grid = {int(round(v)) for v in np.linspace(out.n_min, out.n_practical, points)}
        grid.add(out.n_practical)
        result = brute_force_slots(cfg, sorted(grid), out)
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
    _check_read(cfg, "traffic.lambda", "--lambdas", args.lambdas)
    workers = _workers()
    schemes = (Scheme.PROPOSED, Scheme.TPDS, Scheme.NAS)
    cfgs = [with_values(cfg, {"traffic.lambda": lam}) for lam in args.lambdas]
    # every point is checked, in the order it would run, before any frame is drawn
    for cfg_l in cfgs:
        for scheme in schemes:
            check_frame_budget(cfg_l, scheme)
    rows = []
    for lam, cfg_l in zip(args.lambdas, cfgs):
        row = {"lambda": lam}
        for scheme in schemes:
            est = estimate_coverage(cfg_l, scheme, args.trials, args.seed, n_workers=workers)
            row[f"{scheme.value}_p_hat"] = est.p_hat
            row[f"{scheme.value}_ci"] = est.ci_halfwidth
        rows.append(row)
    _warn_high_snr(cfgs, schemes)
    _write_lines(args.out, _table(list(rows[0]), rows))
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _read_config(args.config)
    _check_read(cfg, "traffic.lambda", "--lambdas", args.lambdas)
    cells = len(args.n_active) * len(args.lambdas)
    if cells > _MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(
            f"--n-active and --lambdas make a grid of {cells} points,"
            f" more than the {_MAX_RANGE_POINTS} a grid may hold"
        )
    workers = _workers()
    grid = [(na, lam) for na in args.n_active for lam in args.lambdas]
    cfgs = [with_values(cfg, {"traffic.n_active": na, "traffic.lambda": lam})
            for na, lam in grid]
    # every point is checked before any frame is drawn or any analytic
    # runs: first against the analytics' rank-weight budget, whose refusal
    # wins for a point both would refuse, then against the simulator's
    # frame budget
    check_point_budget(cfgs)
    for c in cfgs:
        check_frame_budget(c, Scheme.BASELINE)
    ests = [estimate_coverage(c, Scheme.BASELINE, args.trials, args.seed, n_workers=workers)
            for c in cfgs]
    rows = []
    for (na, lam), est, report in zip(grid, ests, frame_coverage_probs(cfgs)):
        rows.append({
            "n_active": na,
            "lambda": lam,
            "p_succ_analytic": report.p_succ,
            "p_hat_simulated": est.p_hat,
            "ci_halfwidth": est.ci_halfwidth,
            "gap": abs(report.p_succ - est.p_hat),
        })
    _warn_high_snr(cfgs, [Scheme.BASELINE])
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
    p.add_argument("--sweep", type=_parse_sweep, help="axis=values, e.g. lambda=2:10:1")
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
    p.add_argument("--lambdas", type=_values_of("traffic.lambda"), default="2:10:1",
                   help="traffic rates: numbers and start:stop:step ranges")
    add_monte_carlo(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="analytic vs simulated coverage grid")
    add_common(p)
    p.add_argument("--n-active", type=_values_of("traffic.n_active"), default="10,20",
                   dest="n_active", help="device counts: numbers and start:stop:step ranges")
    p.add_argument("--lambdas", type=_values_of("traffic.lambda"), default="2,10",
                   help="traffic rates: numbers and start:stop:step ranges")
    add_monte_carlo(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a numpy overflow raises FloatingPointError, an ArithmeticError like
        # Python's own OverflowError, instead of warning and going on with inf
        with np.errstate(over="raise"):
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
    except ArithmeticError as exc:  # a config whose numbers leave double range
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))  # exits with EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
