"""Adaptive slot-count selection and its optimality oracle.

The slot count maximizing frame coverage under the latency and
reliability constraints sits on the boundary of the feasible region:
either the traffic bound ``n_active * lam + delta`` (C1) or the largest
slot count still meeting the short-packet error target (C3), whichever
is smaller.  The C3 bound is the positive root of a quadratic in
sqrt(n), in closed form, with its residual checked against
``error_prob_ln_form``.  A brute-force sweep of the analytic coverage
curve serves as the independent optimality oracle.  The proposed
scheme takes its slot count from the configured rate (``scheme_slots``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable

from .analytic import frame_coverage_probs
from .config import Scenario, Scheme, SystemConfig, validate_config, with_values
from .shortpacket import LN2, error_prob_ln_form, max_snr_proxy

__all__ = [
    "OptimizerOutput",
    "BruteForceResult",
    "InfeasibleError",
    "solve_n_epsilon",
    "adaptive_slots",
    "scheme_slots",
    "brute_force_slots",
]


class InfeasibleError(RuntimeError):
    """No slot count satisfies the named constraint."""

    def __init__(self, constraint: str, message: str):
        super().__init__(f"{constraint}: {message}")
        self.constraint = constraint


@dataclass(frozen=True)
class OptimizerOutput:
    """Chosen slot count and the two candidate bounds it came from."""
    n_practical: int        # floor of the binding bound
    n_star: float           # real-relaxed optimum min(n_lambda, n_epsilon)
    n_lambda_bound: float   # traffic bound (C1)
    n_epsilon_bound: float  # reliability bound (C3)
    binding: str            # "C1" or "C3"
    residual: float         # |error(n_epsilon) - epsilon_max|
    n_min: int              # smallest feasible slot count, max(1, ceil(lam))


@dataclass(frozen=True)
class BruteForceResult:
    best_n: int
    best_p: float
    curve: tuple[tuple[int, float], ...]  # (n_slots, p_succ) pairs


def solve_n_epsilon(
    gamma: float,
    epsilon_max: float,
    bandwidth: float,
    frame_duration: float,
    packet_bits: int,
) -> float:
    """Largest slot count meeting the error target, in closed form.

    With s = sqrt(n), bt = B*T_f, L = ln(1+gamma) and z = Q^-1(epsilon_max)
    the equation error(n) = epsilon_max reads D*ln2*s^2 + z*sqrt(bt)*s
    - bt*L = 0, whose one positive root is taken without cancellation:
    n = (2*L*sqrt(bt) / (z + sqrt(z^2 + 4*D*ln2*L)))^2.  At epsilon_max = 0.5
    (z = 0) this is n_up = bt*log2(1+gamma)/D.  z is the standard normal
    quantile of the standard library (``statistics.NormalDist``), within an
    ulp of scipy's ``ndtri``.  At gamma = 0 no slot carries a bit: the root
    is 0, without the 0/0 the closed form reads at z = 0.

    Raises :class:`InfeasibleError` when the root falls below one slot.
    """
    if not gamma >= 0:
        raise ValueError("gamma must be >= 0")
    if not 0 < epsilon_max <= 0.5:
        raise ValueError("epsilon_max must lie in (0, 0.5]")
    z = -NormalDist().inv_cdf(epsilon_max)
    log_gain = math.log1p(gamma)
    n_eps = log_gain and (
        2.0 * log_gain * math.sqrt(bandwidth * frame_duration)
        / (z + math.sqrt(z * z + 4.0 * packet_bits * LN2 * log_gain))
    ) ** 2
    if n_eps < 1.0:
        raise InfeasibleError(
            "C3",
            f"slot count bound {n_eps:.6g} meeting epsilon_max={epsilon_max:g} "
            f"is below one slot",
        )
    return n_eps


def adaptive_slots(cfg: SystemConfig) -> OptimizerOutput:
    """Slot count for the next frame under the latency/reliability bounds.

    Requires a feasible emergency configuration.  Raises
    :class:`InfeasibleError` naming the first violated constraint,
    ``"scenario"`` for a non-emergency configuration, and C2 when the
    result would drop below one slot or the mean packet count.
    """
    issues = validate_config(cfg)
    if issues:
        first = issues[0]
        # a constraint's issue starts with its own "Cn: " label
        if first.startswith("C"):
            raise InfeasibleError(*first.split(": ", 1))
        raise InfeasibleError("config", first)
    if cfg.traffic.scenario is not Scenario.EMERGENCY:
        raise InfeasibleError(
            "scenario", "adaptive slot selection applies to the emergency scenario"
        )

    n_lambda = cfg.traffic_slot_bound()
    gamma = max_snr_proxy(cfg)
    n_epsilon = solve_n_epsilon(
        gamma,
        cfg.reliability.epsilon_max,
        cfg.channel.bandwidth,
        cfg.frame.frame_duration,
        cfg.frame.packet_bits,
    )
    residual = abs(
        error_prob_ln_form(
            gamma, n_epsilon, cfg.channel.bandwidth, cfg.frame.frame_duration,
            cfg.frame.packet_bits,
        )
        - cfg.reliability.epsilon_max
    )
    n_star = min(n_lambda, n_epsilon)
    n_practical = math.floor(n_star)
    n_min = max(1, math.ceil(cfg.traffic.lam))
    if n_practical < n_min:
        raise InfeasibleError(
            "C2",
            f"practical slot count {n_practical} below one slot or the mean "
            f"packet count lambda={cfg.traffic.lam:g}",
        )
    binding = "C1" if n_lambda <= n_epsilon else "C3"
    return OptimizerOutput(
        n_practical=n_practical,
        n_star=n_star,
        n_lambda_bound=n_lambda,
        n_epsilon_bound=n_epsilon,
        binding=binding,
        residual=residual,
        n_min=n_min,
    )


def scheme_slots(cfg: SystemConfig, scheme: Scheme) -> int:
    """Slots per frame by ``scheme``'s slot rule (see ``config.Scheme``)."""
    if scheme is Scheme.PROPOSED and cfg.traffic.scenario is Scenario.EMERGENCY:
        return adaptive_slots(cfg).n_practical
    return cfg.frame.n_slots


def brute_force_slots(
    cfg: SystemConfig, n_range: Iterable[int], bounds: OptimizerOutput | None = None
) -> BruteForceResult:
    """Evaluate analytic coverage at every requested feasible slot count.

    The requested values are intersected with the feasible region
    [n_min, n_practical] of ``bounds``, :func:`adaptive_slots` of ``cfg``
    when omitted; an empty intersection raises :class:`InfeasibleError`.
    Ties on the maximum resolve to the smallest slot count.
    """
    if bounds is None:
        bounds = adaptive_slots(cfg)
    lo, hi = bounds.n_min, bounds.n_practical
    candidates = sorted({int(n) for n in n_range if lo <= int(n) <= hi})
    if not candidates:
        raise InfeasibleError(
            "C2", f"no requested slot count falls in the feasible range [{lo}, {hi}]"
        )
    reports = frame_coverage_probs(with_values(cfg, {"frame.n_slots": n}) for n in candidates)
    curve = [(n, report.p_succ) for n, report in zip(candidates, reports)]
    best_n, best_p = max(curve, key=lambda item: (item[1], -item[0]))
    return BruteForceResult(best_n=best_n, best_p=best_p, curve=tuple(curve))
