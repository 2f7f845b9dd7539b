"""Closed-form coverage analysis for the uplink frame.

Evaluates the slot-occupancy and code-collision probabilities, the
ordered-distance statistics of the decodable (singleton) devices, the
interference Laplace transforms of the singleton/collided point
processes, and combines them into the frame SINR coverage probability.

No integral is evaluated adaptively.  The Campbell exponent of every
interference transform has a closed form in the Gauss hypergeometric
function (:func:`_campbell_exponent`), vectorised over distances, and the
average of the coverage kernel over the k-th ordered distance is a
fixed-order Gauss-Jacobi sum: in t = (r/R)^2 the k-th of n_singleton
uniform devices has the Beta(k, n_singleton - k + 1) law.  With
K = ceil(n_singleton) every rank's density is the Jacobi weight
(1-x)^f, f = n_singleton - K, times a polynomial of degree K - 1, so
one pair of rules for that weight, with n = 16 + floor(K/2) and 2n
nodes (:func:`_gauss_jacobi`: one tridiagonal eigenvalue solve per rule
and one Newton step), serves all ranks, and the coverage kernel is
evaluated once on its nodes (:func:`_ranks_coverage`).  The difference
between the n- and 2n-node sums is the reported quadrature error.
:func:`musalink.quadrature.adaptive_simpson` is kept as the test oracle
for both.

All functions are pure; the interference field is parameterized by an
:class:`IntensitySet` so the transforms can be exercised with arbitrary
thinned intensities in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_jacobi, hyp2f1, pdtr, pdtrc

from .config import Scenario, SystemConfig
from .quadrature import QuadratureError

__all__ = [
    "IntensitySet",
    "SlotStatistics",
    "CoverageReport",
    "slot_occupancy_prob",
    "collision_free_prob",
    "singleton_count",
    "ordered_distance_pdf",
    "slot_statistics",
    "laplace_singleton",
    "laplace_collided",
    "conditional_coverage",
    "frame_coverage_prob",
]

# Nodes of the base Gauss-Jacobi rule of the ordered-distance averages at
# one singleton rank; K ranks share a rule with floor(K/2) more.  The rule
# with twice as many nodes gives the value, and the difference of the two
# its error estimate.
_OUTER_NODES = 16


@dataclass(frozen=True)
class IntensitySet:
    """Spatial intensities of the active, singleton and collided processes.

    The singleton and collided processes are independent thinnings of the
    active process: ``omega_s = omega_o * p_cf`` and
    ``omega_c = omega_o * (1 - p_cf)``, so the two always sum back to
    ``omega_o``.
    """
    omega_o: float  # devices / m^2, frame-active process
    omega_s: float  # devices / m^2, collision-free thinning
    omega_c: float  # devices / m^2, collided thinning

    @classmethod
    def from_collision_prob(cls, omega_o: float, p_cf: float) -> "IntensitySet":
        return cls(omega_o, omega_o * p_cf, omega_o * (1.0 - p_cf))


@dataclass(frozen=True)
class SlotStatistics:
    """Per-slot occupancy statistics derived from a configuration."""
    p_lambda: float      # probability a given device transmits in a given slot
    p_cf: float          # collision-free probability of a transmitting device
    n_singleton: float   # mean decodable devices per slot (may be fractional)
    intensities: IntensitySet


@dataclass(frozen=True)
class CoverageReport:
    """Frame coverage probability with all intermediate terms."""
    p_succ: float                     # clamped to [0, 1]
    p_succ_raw: float                 # pre-clamp combination value
    n_singleton: float
    p_lambda: float
    p_cf: float
    conditional_terms: tuple[float, ...]  # per-rank conditional coverage
    quadrature_error_estimate: float  # sum over ranks of |2n-node - n-node| sums


# ----------------------------------------------------------------------------
#  Slot occupancy and code collisions
# ----------------------------------------------------------------------------

def slot_occupancy_prob(lam: float, n_slots: int) -> float:
    """Probability that a given active device transmits in a given slot.

    A device with L ~ Poisson(lam) packets occupies a given slot with
    probability min(L, n_slots)/n_slots.  The mean of that over the whole
    Poisson law has the closed form

        E[min(L, S)]/S = (lam/S) * P(L <= S-1) + P(L > S),   S = n_slots,

    since L*pmf(L) = lam*pmf(L-1).
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    total = lam / n_slots * pdtr(n_slots - 1, lam) + pdtrc(n_slots, lam)
    return min(1.0, max(0.0, float(total)))


def collision_free_prob(p_lambda: float, n_active: int, pool_size: int) -> float:
    """Probability a device transmitting in a slot suffers no code collision.

    Each of the other ``n_active - 1`` devices independently transmits in
    the slot with probability ``p_lambda`` and picks one of ``pool_size``
    codes, so it takes the tagged device's code with probability
    ``p_lambda / pool_size``: the binomial sum over the co-slot
    transmitters is (1 - p_lambda/pool_size)^(n_active - 1).
    """
    if not 0.0 <= p_lambda <= 1.0:
        raise ValueError("p_lambda must lie in [0, 1]")
    if n_active < 1:
        raise ValueError("n_active must be >= 1")
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    return (1.0 - p_lambda / pool_size) ** (n_active - 1)


def singleton_count(n_active: int, p_lambda: float, p_cf: float) -> float:
    """Mean number of decodable (collision-free) devices in a slot."""
    return n_active * p_lambda * p_cf


# ----------------------------------------------------------------------------
#  Ordered distance statistics
# ----------------------------------------------------------------------------

def _order_stat_log_coeff(k: int, n: float) -> float:
    # Gamma-generalized n! / ((k-1)! (n-k)!) for fractional n
    return math.lgamma(n + 1.0) - math.lgamma(k) - math.lgamma(n - k + 1.0)


def ordered_distance_pdf(k: int, n_singleton: float, radius: float, x: float) -> float:
    """Density of the k-th smallest horizontal distance among the singletons.

    Devices are uniform in the serving disk, so a single distance has
    density 2x/R^2 and CDF x^2/R^2; the order-statistic coefficient is
    generalized through the Gamma function when ``n_singleton`` is
    fractional.  For the top rank of a fractional count the density has an
    integrable divergence at ``x = radius``.
    """
    if n_singleton <= 0:
        raise ValueError("n_singleton must be > 0")
    if not 1 <= k <= math.ceil(n_singleton):
        raise ValueError(f"k={k} outside [1, ceil(n_singleton)={math.ceil(n_singleton)}]")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if x < 0 or x > radius:
        raise ValueError("x must lie in [0, radius]")
    t = (x / radius) ** 2
    beta = n_singleton - k
    if t == 1.0 and beta < 0:
        return math.inf
    coeff = math.exp(_order_stat_log_coeff(k, n_singleton))
    return coeff * (2.0 * x / radius**2) * t ** (k - 1) * (1.0 - t) ** beta


# ----------------------------------------------------------------------------
#  Interference Laplace transforms
# ----------------------------------------------------------------------------

def slot_statistics(cfg: SystemConfig) -> SlotStatistics:
    """Derive the per-slot occupancy, collision and intensity figures."""
    n_slots = cfg.frame.n_slots
    if cfg.traffic.scenario is Scenario.NON_EMERGENCY:
        # exactly one packet per active device, uniform over the slots
        p_lam = 1.0 / n_slots
    else:
        p_lam = slot_occupancy_prob(cfg.traffic.lam, n_slots)
    p_cf = collision_free_prob(p_lam, cfg.traffic.n_active, cfg.frame.code_pool_size)
    n_s = singleton_count(cfg.traffic.n_active, p_lam, p_cf)
    intensities = IntensitySet.from_collision_prob(cfg.active_intensity(), p_cf)
    return SlotStatistics(p_lam, p_cf, n_s, intensities)


def _campbell_exponent(q, omega: float, u_lo, u_hi, alpha: float):
    """Campbell exponent of a Rayleigh-faded Poisson interference field.

    ``2*pi*omega * int x/(1+x) r dr`` with ``x = q * (r^2 + h^2)^(-alpha/2)``
    over an annulus, written in ``u = r^2 + h^2`` between ``u_lo`` and
    ``u_hi`` and evaluated in closed form (Andrews, Baccelli & Ganti 2011):
    with ``a = alpha/2``,

        pi*omega * [F(u_hi) - F(u_lo)],  F(u) = u * 2F1(1, 1/a; 1 + 1/a; -u^a/q),

    and ``F(u) = q * log(1 + u/q)`` at ``a = 1``, where the hypergeometric
    form is degenerate.  ``q``, ``u_lo`` and ``u_hi`` may be arrays.  The
    absolute error is of the order of the rounding error of
    ``pi * omega * u_hi``, so a very thin annulus loses relative accuracy
    but not absolute accuracy, and the transform exp(-exponent) neither.
    """
    a = 0.5 * alpha
    if a == 1.0:
        def antiderivative(u):
            return q * np.log1p(u / q)
    else:
        b = 1.0 / a

        def antiderivative(u):
            return u * hyp2f1(1.0, b, 1.0 + b, -(u**a) / q)

    return math.pi * omega * (antiderivative(u_hi) - antiderivative(u_lo))


def laplace_singleton(
    s: float, r_hat: float, cfg: SystemConfig, intensities: IntensitySet
) -> float:
    """Laplace transform of the interference from weaker singleton devices.

    Interfering singletons live on the annulus between the tagged device's
    distance ``r_hat`` and the cell edge.  Equals 1 exactly at ``s = 0``
    and for an empty annulus.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    radius = cfg.geometry.cell_radius
    if not 0 <= r_hat <= radius:
        raise ValueError("r_hat must lie in [0, cell_radius]")
    if s == 0.0 or r_hat == radius:
        return 1.0
    # pair s with the per-packet power first: the product is invariant under
    # an equal rescaling of all transmit powers
    q = (s * cfg.mean_packet_power()) * cfg.channel.pathloss_coeff
    h2 = cfg.geometry.uav_altitude**2
    exponent = _campbell_exponent(
        q, intensities.omega_s, r_hat * r_hat + h2, radius * radius + h2,
        cfg.channel.pathloss_exp,
    )
    return math.exp(-exponent)


def laplace_collided(s: float, cfg: SystemConfig, intensities: IntensitySet) -> float:
    """Laplace transform of the interference from collided devices.

    Collided devices interfere from anywhere in the serving disk.  Equals
    1 exactly at ``s = 0`` or when the collided intensity vanishes.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0.0 or intensities.omega_c <= 0.0:
        return 1.0
    q = (s * cfg.mean_packet_power()) * cfg.channel.pathloss_coeff
    h2 = cfg.geometry.uav_altitude**2
    exponent = _campbell_exponent(
        q, intensities.omega_c, h2, cfg.geometry.cell_radius**2 + h2,
        cfg.channel.pathloss_exp,
    )
    return math.exp(-exponent)


# ----------------------------------------------------------------------------
#  Conditional and frame coverage
# ----------------------------------------------------------------------------

def _coverage_kernel(cfg: SystemConfig, intensities: IntensitySet):
    """Return g(t): coverage probability of a device at r_hat = R * sqrt(t).

    Combines the fading tail, noise factor and the two interference
    transforms; independent of the order-statistic rank and vectorised
    over ``t``.  With u = r_hat^2 + h^2 the transform argument is
    ``s = theta * u^(alpha/2) / (p_bar * beta)``, so the Campbell parameter
    ``q = s * p_bar * beta`` is ``theta * u^(alpha/2)``.
    """
    theta = cfg.reliability.sinr_threshold
    h2 = cfg.geometry.uav_altitude**2
    radius2 = cfg.geometry.cell_radius**2
    alpha = cfg.channel.pathloss_exp
    noise_per_q = cfg.channel.noise_power / (
        cfg.mean_packet_power() * cfg.channel.pathloss_coeff
    )
    u_edge = radius2 + h2

    def g(t):
        u = radius2 * t + h2
        q = theta * u ** (0.5 * alpha)
        exponent = (
            q * noise_per_q
            + _campbell_exponent(q, intensities.omega_s, u, u_edge, alpha)
            + _campbell_exponent(q, intensities.omega_c, h2, u_edge, alpha)
        )
        return np.exp(-exponent)

    return g


def _gauss_jacobi(a: float, n: int):
    """Gauss-Jacobi rules with n and 2n nodes for the weight (1-x)^a on [-1, 1].

    ``a > -1``.  Returns ``(x, log_w)``, each of length 3n: the n-node rule
    followed by the 2n-node rule, with the logarithms of each rule's
    weights up to a constant per rule.  The nodes are the eigenvalues of
    the tridiagonal Jacobi matrix (Golub & Welsch, Math. Comp. 1969; the
    n-node matrix is the leading block of the 2n-node one) polished by one
    Newton step.  The weights are proportional to 1/((1 - x^2) P_n'(x)^2):
    as a -> -1 the last node tends to 1, where P_{n-1} of the equivalent
    1/(P_{n-1}(x) P_n'(x)) varies fast on the scale of the node's rounding.
    """
    # scipy.linalg is slow to import, so only analyses load it
    from scipy.linalg.lapack import dsterf

    # recurrence coefficients of the Jacobi polynomials P^(a, 0)
    j = np.arange(1, 2 * n)
    s = 2.0 * j + a
    diag = np.concatenate(([-a / (a + 2.0)], -a * a / (s * (s + 2.0))))
    off = 2.0 * j * (j + a) / (s * np.sqrt(s * s - 1.0))

    x = np.empty(3 * n)
    for cols, m in ((slice(0, n), n), (slice(n, None), 2 * n)):
        x[cols], info = dsterf(diag[:m], off[: m - 1])
        if info:
            raise QuadratureError(
                f"Gauss-Jacobi nodes: dsterf did not converge (info={info})",
                math.nan, math.nan,
            )
    degree = np.repeat([n, 2 * n], [n, 2 * n])
    dp = 0.5 * (degree + a + 1.0) * eval_jacobi(degree - 1, a + 1.0, 1.0, x)
    x -= eval_jacobi(degree, a, 0.0, x) / dp
    # Within ~1e-13 of a = -1 the last node rounds to 1, or P_n loses a + 1
    # to the rounding of n + a and the step misplaces it.  The node then
    # carries all but O(a + 1) of the top rank's weight and next to none of
    # the other ranks', wherever it lies, as long as it stays below 1.
    x = np.minimum(x, np.nextafter(1.0, 0.0))
    # in log form: P_n' grows like binom(n + a, n)
    log_w = -np.log1p(-x) - np.log1p(x) - 2.0 * np.log(np.abs(dp))
    return x, log_w


def _ranks_coverage(n_singleton: float, kernel) -> tuple[np.ndarray, np.ndarray]:
    """Clamped conditional coverage of every rank and its error estimate.

    Rank k = 1..K, K = ceil(n_singleton), averages the kernel under the
    Beta(k, n_singleton - k + 1) law of t.  With t = (1 + x)/2 its density
    is proportional to

        (1-x)^f * (1-x)^(K-k) (1+x)^(k-1),   f = n_singleton - K in (-1, 0],

    whose first factor is common to all ranks and whose rest is a
    polynomial of degree K - 1.  So one Gauss-Jacobi pair for (1-x)^f with
    n = ``_OUTER_NODES`` + floor(K/2) and 2n nodes serves every rank: the
    kernel is evaluated once on its 3n nodes, each rank multiplies the
    weights by its polynomial and normalises them per rule (the
    normalisation is the order-statistic coefficient, exact since the
    polynomial degree is below 2n), and its value is the 2n-node sum.  The
    floor(K/2) growth keeps the n-node rule exact for kernels of degree
    2n - K >= 2 * ``_OUTER_NODES`` - 1 whatever K is.
    """
    n_ranks = math.ceil(n_singleton)
    n = _OUTER_NODES + n_ranks // 2
    # below n_singleton = 2^-54, f rounds to -1, where the recurrence
    # divides 0 by 0; the rule at the clamp already gives the finite
    # n_singleton -> 0 limit, and no f from n_singleton >= 2^-52 is clamped
    x, log_w = _gauss_jacobi(max(n_singleton - n_ranks, -1.0 + 2.0**-52), n)
    k = np.arange(1, n_ranks + 1)[:, None]
    log_w = log_w + (n_ranks - k) * np.log1p(-x) + (k - 1) * np.log1p(x)
    g = kernel(0.5 * (1.0 + x))
    sums = []
    for cols in (slice(0, n), slice(n, None)):
        w_k = np.exp(log_w[:, cols] - log_w[:, cols].max(axis=1, keepdims=True))
        sums.append((w_k @ g[cols]) / w_k.sum(axis=1))
    coarse, value = sums
    err = np.abs(value - coarse)
    bad = ~(np.isfinite(value) & np.isfinite(err))
    if bad.any():
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"conditional coverage rank k={i + 1}: non-finite Gauss-Jacobi sum",
            float(value[i]), float(err[i]),
        )
    return np.clip(value, 0.0, 1.0), err


def _conditional_coverage(k: int, n_singleton: float, kernel) -> tuple[float, float]:
    """Row k of :func:`_ranks_coverage`: its value and error estimate."""
    if n_singleton <= 0:
        raise ValueError("n_singleton must be > 0")
    if not 1 <= k <= math.ceil(n_singleton):
        raise ValueError(f"k={k} outside [1, ceil(n_singleton)]")
    value, err = _ranks_coverage(n_singleton, kernel)
    return float(value[k - 1]), float(err[k - 1])


def conditional_coverage(
    k: int,
    cfg: SystemConfig,
    n_singleton: float,
    intensities: IntensitySet,
) -> float:
    """Coverage probability of the k-th nearest singleton device.

    Averages the coverage kernel over the k-th order-statistic distance.
    In the CDF domain t = (r/R)^2 that distance has the Beta(k, beta + 1)
    law with beta = n_singleton - k > -1, fractional for fractional
    singleton counts.  A Gauss-Jacobi rule for the weight (1-t)^f,
    f = n_singleton - ceil(n_singleton), absorbs the endpoint behaviour of
    the fractional power, the rest of the density is a polynomial, and the
    kernel is smooth in t (both the transform argument and the annulus
    edge depend on r^2 = R^2 t), so the rule converges fast for negative,
    fractional, integer and large beta alike.  The value is row k of the
    all-ranks evaluation :func:`frame_coverage_prob` makes, so the two
    give the same number.
    """
    value, _ = _conditional_coverage(
        k, n_singleton, _coverage_kernel(cfg, intensities)
    )
    return value


def frame_coverage_prob(cfg: SystemConfig) -> CoverageReport:
    """Average probability a generated packet is collision-free and covered.

    Sums the rank-wise survival products over the (possibly fractional)
    singleton count and normalizes by the mean per-frame packet load; in
    the non-emergency scenario the load is one packet per device.
    """
    stats = slot_statistics(cfg)
    n_slots = cfg.frame.n_slots
    n_active = cfg.traffic.n_active
    lam_eff = (
        1.0 if cfg.traffic.scenario is Scenario.NON_EMERGENCY else cfg.traffic.lam
    )
    if lam_eff == 0.0 or stats.n_singleton <= 0.0:
        return CoverageReport(0.0, 0.0, stats.n_singleton, stats.p_lambda,
                              stats.p_cf, (), 0.0)

    n_s = stats.n_singleton
    values, errs = _ranks_coverage(n_s, _coverage_kernel(cfg, stats.intensities))
    ranks = np.arange(1, len(values) + 1)
    # every rank up to floor(n_s) counts fully, a fractional top rank by
    # its fraction n_s - floor(n_s)
    weights = np.minimum(1.0, n_s - (ranks - 1))
    total = float(weights @ np.cumprod(values))
    raw = n_slots / (n_active * lam_eff) * total
    return CoverageReport(
        p_succ=min(1.0, max(0.0, raw)),
        p_succ_raw=raw,
        n_singleton=n_s,
        p_lambda=stats.p_lambda,
        p_cf=stats.p_cf,
        conditional_terms=tuple(values.tolist()),
        quadrature_error_estimate=float(errs.sum()),
    )
