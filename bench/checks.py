"""Output checks for benchmark ops.

Each checker parses the text one ``musalink`` command wrote and returns
the list of problems it found (empty when the output is acceptable) plus
the parsed values the harness needs.  The checks use only properties any
correct version of the program keeps: documented columns, probability
ranges, identities between printed fields, the monotonicity and optimizer
bounds of acceptance criteria 2 and 4, and a statistical tolerance around
the pooled reference for Monte Carlo estimates (never bit equality, so a
change of random-stream layout or a wider confidence interval passes).
"""

from __future__ import annotations

import math

# Leading columns documented in the README; later versions may append
# columns but must keep these, in this order.
SIMULATE_COLUMNS = (
    "scheme", "trials", "seed", "p_hat", "ci_halfwidth",
    "packets_generated", "packets_decoded", "packets_dropped",
)
SWEEP_COLUMNS = ("lambda", "p_succ", "p_lambda", "p_cf", "n_singleton")

# Acceptance criterion 4 bounds.
RESIDUAL_MAX = 1e-10
BRUTE_GAP_MAX = 1e-3
# Slack on "p_succ non-increasing in lambda"; far below any real step.
MONOTONE_SLACK = 1e-12
# Standard deviations of the reference op-to-op spread an estimate may
# stray from the reference mean before it counts as wrong.
SIM_Z = 6.0


def _is_prob(x: float) -> bool:
    return 0.0 <= x <= 1.0


def _header_problems(header: str, expected: tuple[str, ...]) -> list[str]:
    cols = tuple(header.split(","))
    if cols[: len(expected)] != expected:
        return [f"header {header!r} does not start with {','.join(expected)!r}"]
    return []


def sim_tolerance(ref: dict, trials: int) -> float:
    """Allowed |p_hat - reference mean| for an op of ``trials`` frames."""
    sd = ref["sd_op"] * math.sqrt(ref["trials"] / trials)
    sd_ref_mean = ref["sd_op"] / math.sqrt(ref["ops"])
    return SIM_Z * math.sqrt(sd * sd + sd_ref_mean * sd_ref_mean)


def parse_simulate(text: str) -> dict:
    header, row = text.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    return {
        "scheme": fields["scheme"],
        "trials": int(fields["trials"]),
        "seed": int(fields["seed"]),
        "p_hat": float(fields["p_hat"]),
        "generated": int(fields["packets_generated"]),
        "decoded": int(fields["packets_decoded"]),
        "dropped": int(fields["packets_dropped"]),
    }


def check_simulate(text: str, scheme: str, trials: int, seed: int,
                   ref: dict | None) -> list[str]:
    """Problems in a ``simulate`` CSV; ``ref`` is the pooled reference point."""
    lines = text.splitlines()
    if len(lines) != 2:
        return [f"expected header and one row, got {len(lines)} lines"]
    problems = _header_problems(lines[0], SIMULATE_COLUMNS)
    if problems:
        return problems
    try:
        got = parse_simulate(text)
    except (ValueError, KeyError) as exc:
        return [f"unparsable row: {exc}"]
    if (got["scheme"], got["trials"], got["seed"]) != (scheme, trials, seed):
        problems.append(
            f"echo {got['scheme']},{got['trials']},{got['seed']} "
            f"!= {scheme},{trials},{seed}"
        )
    p = got["p_hat"]
    if not _is_prob(p):
        problems.append(f"p_hat {p!r} outside [0, 1]")
    if got["generated"] <= 0 or not 0 <= got["decoded"] <= got["generated"]:
        problems.append(
            f"decoded {got['decoded']} / generated {got['generated']} inconsistent"
        )
    elif not math.isclose(p, got["decoded"] / got["generated"], rel_tol=1e-12):
        problems.append(f"p_hat {p!r} != decoded/generated")
    if got["dropped"] < 0:
        problems.append(f"negative dropped count {got['dropped']}")
    if ref is not None and _is_prob(p):
        tol = sim_tolerance(ref, trials)
        if abs(p - ref["mean_p_hat"]) > tol:
            problems.append(
                f"p_hat {p:.6f} differs from reference {ref['mean_p_hat']:.6f} "
                f"by more than {tol:.6f}"
            )
    return problems


def check_sweep(text: str, axis_values: list[float]) -> tuple[list[str], list[float]]:
    """Problems in an ``analytic --sweep lambda=...`` CSV and its p_succ column."""
    lines = text.splitlines()
    if not lines:
        return ["empty output"], []
    problems = _header_problems(lines[0], SWEEP_COLUMNS)
    if problems:
        return problems, []
    rows = lines[1:]
    if len(rows) != len(axis_values):
        return [f"expected {len(axis_values)} rows, got {len(rows)}"], []
    p_succ: list[float] = []
    for expected_axis, line in zip(axis_values, rows):
        try:
            axis, p, p_lam, p_cf, n_s = (float(v) for v in line.split(",")[:5])
        except ValueError as exc:
            return [f"unparsable row {line!r}: {exc}"], []
        if not math.isclose(axis, expected_axis, rel_tol=1e-12):
            problems.append(f"axis value {axis!r} != {expected_axis!r}")
        for name, val in (("p_succ", p), ("p_lambda", p_lam), ("p_cf", p_cf)):
            if not _is_prob(val):
                problems.append(f"{name}={val!r} outside [0, 1] at lambda={axis:g}")
        if not n_s >= 0.0:
            problems.append(f"n_singleton={n_s!r} negative at lambda={axis:g}")
        p_succ.append(p)
    for lam, prev, cur in zip(axis_values[1:], p_succ, p_succ[1:]):
        if cur > prev + MONOTONE_SLACK:
            problems.append(f"p_succ rises from {prev!r} to {cur!r} at lambda={lam:g}")
    return problems, p_succ


def parse_optimize(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def check_optimize(text: str) -> tuple[list[str], dict[int, float]]:
    """Problems in an ``optimize --brute-points N`` report and its curve."""
    try:
        rep = parse_optimize(text)
        n_practical = int(rep["n_practical"])
        n_lambda = float(rep["n_lambda_bound"])
        n_eps = float(rep["n_epsilon_bound"])
        residual = float(rep["residual"])
        best_n = int(rep["brute_force.best_n"])
        best_p = float(rep["brute_force.best_p"])
        p_at = float(rep["brute_force.p_at_n_practical"])
        curve = {
            int(n): float(p)
            for n, p in (item.split(":") for item in rep["brute_force.curve"].split(";"))
        }
    except (KeyError, ValueError) as exc:
        return [f"unparsable optimize report: {exc!r}"], {}
    problems = []
    if n_practical != math.floor(min(n_lambda, n_eps)):
        problems.append(
            f"n_practical {n_practical} != floor(min({n_lambda!r}, {n_eps!r}))"
        )
    if not residual <= RESIDUAL_MAX:
        problems.append(f"root residual {residual!r} > {RESIDUAL_MAX}")
    if not best_p - p_at <= BRUTE_GAP_MAX:
        problems.append(f"best_p - p_at_n_practical = {best_p - p_at!r} > {BRUTE_GAP_MAX}")
    if curve.get(n_practical) != p_at:
        problems.append("p_at_n_practical is not the curve value at n_practical")
    if curve.get(best_n) != best_p or best_p != max(curve.values()):
        problems.append("best_n/best_p is not the curve maximum")
    for n, p in curve.items():
        if not _is_prob(p):
            problems.append(f"curve p_succ={p!r} outside [0, 1] at n_slots={n}")
    return problems, curve
