"""Closed-form coverage analysis for the uplink frame.

Evaluates the slot-occupancy and code-collision probabilities and
combines them with the interference of the singleton and collided point
processes and the ordered distances of the decodable (singleton)
devices into the frame SINR coverage probability.

No integral is evaluated adaptively.  The coverage kernel
(:func:`_coverage_kernels`) multiplies the noise factor by the two
interference Laplace transforms, each the exponential of a Campbell
exponent, vectorised over distances.  Each exponent is an integral in
ln v by a fixed Gauss-Legendre rule (:func:`_campbell_integrals`),
whose size each point takes from its own pathloss exponent and
ln(u_edge/h^2) by the Bernstein-ellipse bound
(:func:`_campbell_rule_size`), and whose lower end is cut near v = 0,
where the integrand is 1 to rounding, so h -> 0 stays finite.  The
average of the coverage kernel over the k-th ordered distance is a
fixed-order Gauss-Jacobi sum: in t = (r/R)^2 the k-th of n_singleton
uniform devices has the Beta(k, n_singleton - k + 1) law.  With
K = ceil(n_singleton) every rank's density is the Jacobi weight
(1-x)^f, f = n_singleton - K, times a polynomial of degree K - 1, so
one pair of rules for that weight, with n = 16 + floor(K/2) and 2n
nodes (:func:`_gauss_jacobi`), serves all ranks, and the coverage kernel
is evaluated once on its nodes (:func:`_ranks_coverages`).  Each rule is
interpolated in f from a table of its degree's rules at 16 exponents
(:func:`_jacobi_table`), built by Newton's method on the three-term
recurrence once per degree and process.  The difference
between the n- and 2n-node sums is reported as the quadrature error
estimate: an estimate, not a bound, which can understate the error.
The tests check both against an adaptive Simpson oracle kept outside
the package, in ``tests/simpson.py``.  A point of more than
``_POINT_WEIGHTS`` rank weights is refused with ``ConfigError`` before
any rule is built.

A sweep is evaluated in batches (:func:`frame_coverage_probs`; a single
point is the one-point batch, :func:`frame_coverage_prob`).  A batch is
a run of consecutive points that share a pathloss exponent and hold at
most ``_RANK_WEIGHTS`` rank weights, the budget that also cuts a lone
point's ranks into blocks, so no array grows with the sweep's length.
The slot statistics and the report run per point; the interpolation of
the rules, the coverage kernel, the rank weights and their sums run once
over all the batch's nodes.  Every point keeps its own rules, each
interpolated from its own exponent alone, and each rule's sums reduce
its own nodes only, so its report is the same bits whatever batch it is
evaluated in.  The kernel groups a batch's nodes by their
points' Gauss-Legendre sizes and holds at most ``_RANK_WEIGHTS``
(node, rule node) entries at once.

The Gauss-Legendre rules, once per size and process, and the
Gauss-Jacobi tables, once per degree and process, are built with numpy
alone: no evaluation loads scipy.

All functions are pure.  :func:`slot_statistics` states the per-slot
law once: the occupancy p_lambda, the collision-free probability p_cf,
the mean singleton count, and the singleton and collided thinnings of
the active field, the only figures of the field the kernel reads.  The
per-point form of the field, the two Laplace transforms, the Campbell
exponent over an annulus in its Gauss hypergeometric closed form and the
ordered-distance density, is kept as test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import ConfigError, SystemConfig

__all__ = [
    "QuadratureError",
    "SlotStatistics",
    "CoverageReport",
    "slot_statistics",
    "check_point_budget",
    "frame_coverage_prob",
    "frame_coverage_probs",
]

# Nodes of the base Gauss-Jacobi rule of the ordered-distance averages at
# one singleton rank; K ranks share a rule with floor(K/2) more.  The rule
# with twice as many nodes gives the value, and the difference of the two
# its error estimate.
_OUTER_NODES = 16

# Rank weights (largest rank count x nodes) held at once, so a long sweep's
# arrays stay at a few MB.  A batch of points holds at most this many; a
# point with more is evaluated alone, its weights built this many at a time.
_RANK_WEIGHTS = 1 << 16
# Rank weights K·3n one point may need in all: a point with more is refused
# (ConfigError) before any rule is built.  2^28 admits J = 8 with a pool of
# 65 536 codes at n_active = 1e6 (9 456 ranks, 1.35e8 weights); J = 10 with
# 1e6 codes at n_active = 1e7 would need 1.1e11.
_POINT_WEIGHTS = 1 << 28

# Error target of the Campbell integrals' Gauss-Legendre rules, relative
# to the cell edge's u = R^2 + h^2: the rule sizes and the lower cut of the
# integrals (:func:`_campbell_integrals`) hold the error near it.
_CAMPBELL_TOL = 2.0**-53


class QuadratureError(RuntimeError):
    """A Gauss-Jacobi rule failed to build or its sum came out non-finite.

    Carries the best available estimate so callers can report partial
    results.
    """

    def __init__(self, message: str, value: float, error_estimate: float):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class SlotStatistics:
    """The per-slot law of a configuration (:func:`slot_statistics`)."""
    p_lambda: float      # probability a given device transmits in a given slot
    p_cf: float          # collision-free probability of a transmitting device
    n_singleton: float   # mean decodable devices per slot (may be fractional)
    omega_s: float       # devices / m^2, collision-free thinning of the active field
    omega_c: float       # devices / m^2, collided thinning of the active field


@dataclass(frozen=True)
class CoverageReport:
    """Frame coverage probability with all intermediate terms."""
    p_succ: float                     # clamped to [0, 1]
    p_succ_raw: float                 # pre-clamp combination value
    n_singleton: float
    p_lambda: float
    p_cf: float
    conditional_terms: tuple[float, ...]  # per-rank conditional coverage
    # sum over ranks of |2n-node - n-node| sums: an estimate that can
    # understate the error, not a bound
    quadrature_error_estimate: float


# ----------------------------------------------------------------------------
#  Slot statistics and the interference field
# ----------------------------------------------------------------------------

def slot_statistics(cfg: SystemConfig) -> SlotStatistics:
    """The per-slot occupancy, collision and intensity figures of ``cfg``.

    A device transmits in a given slot with probability p_lambda
    (:meth:`TrafficParams.slot_occupancy`).  Each of the other
    ``n_active - 1`` devices independently transmits in the slot with
    probability p_lambda and picks one of the ``code_pool_size`` codes, so
    it takes a transmitting device's code with probability
    p_lambda/pool: the binomial sum over the co-slot transmitters gives the
    collision-free probability p_cf = (1 - p_lambda/pool)^(n_active - 1).
    A slot then holds n_active * p_lambda * p_cf decodable (singleton)
    devices on average, and the singleton and collided devices are the
    independent thinnings ``omega * p_cf`` and ``omega * (1 - p_cf)`` of
    the active intensity omega (:meth:`SystemConfig.active_intensity`),
    which always sum back to omega.
    """
    n_active = cfg.traffic.n_active
    p_lam = cfg.traffic.slot_occupancy(cfg.frame.n_slots)
    p_cf = (1.0 - p_lam / cfg.frame.code_pool_size) ** (n_active - 1)
    omega = cfg.active_intensity()
    return SlotStatistics(p_lam, p_cf, n_active * p_lam * p_cf,
                          omega * p_cf, omega * (1.0 - p_cf))


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule mapped to [0, 1], as ``(c, w)``.

    ``c`` are the nodes (1 - x)/2 of the rule's nodes x on [-1, 1] and
    ``w`` the weights halved, so that sum(w) = 1.  The nodes are the roots
    of P_n, found by Newton's method on the three-term recurrence from
    Tricomi's estimates (Numerical Recipes' ``gauleg``), and the weights
    are 2/((1 - x^2) P_n'(x)^2).  Built once per n and process with
    numpy's elementwise arithmetic only: the first call into numpy's
    LAPACK (Golub & Welsch's eigenvalue form) adds ~0.8 MB to the resident
    set.  The arrays returned are read-only, shared by every caller.
    """
    k = np.arange(1, n + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))

    def derivative(x):  # P_n(x) and P_n'(x), by the three-term recurrence
        p0, p1 = np.ones_like(x), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    for _ in range(100):
        p, dp = derivative(x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= 1e-15:
            break
    x = 0.5 * (x - x[::-1])  # the rule is symmetric about 0
    w = 1.0 / ((1.0 - x * x) * derivative(x)[1] ** 2)
    w = 0.5 * (w + w[::-1])
    c, w = 0.5 * (1.0 - x), w / np.add.reduce(w)
    c.flags.writeable = w.flags.writeable = False
    return c, w


def _campbell_rule_size(a: float, span: float) -> int:
    """Nodes of the Gauss-Legendre rule of a Campbell integral ``span`` long in ln v.

    In w = ln v the integrand q e^w/(q + e^(a w)) has its poles where
    e^(a w) = -q, so it is analytic in the strip |Im w| < pi/a.  Mapped
    to [-1, 1], an interval of length L = ``span`` sees the strip as the
    Bernstein ellipse of semi-minor axis d = 2 pi/(a L), whose sum of
    semi-axes is rho = d + sqrt(1 + d^2), and the error of the N-node
    rule decays like rho^(-2N) (Trefethen, SIAM Review 50(1), 2008).  N is
    the least with rho^(-2N) <= ``_CAMPBELL_TOL``: 5 at the default
    geometry (a = 1.1, L = 0.148), 58 at h = 2 m, R = 50 m, a = 3
    (L = 6.44), and at most 323 at a = 3 when the lower end is cut
    (L <= ln(1/``_CAMPBELL_TOL``) = 36.7).
    """
    if span <= 0.0:
        return 1
    log_rho = math.asinh(2.0 * math.pi / (a * span))
    return max(1, math.ceil(-math.log(_CAMPBELL_TOL) / (2.0 * log_rho)))


def _rule_sum(terms: np.ndarray) -> np.ndarray:
    """The sums of the columns of ``terms`` over its rows, in row order.

    Each column is summed alone, in the same order whatever the other
    columns are; numpy's reduce over the rows of a one-column array would
    switch to its pairwise order and move the last digit.
    """
    total = terms[0].copy()
    for row in terms[1:]:
        total += row
    return total


def _campbell_integrals(a: float, u_edge, h2):
    """Return ``f(u, q, point) -> (singleton, collided)``: the two Campbell
    integrals of a device at ``u`` with parameter ``q`` in point ``point``,
    elementwise over 1-d ``u`` and ``q``.

    The Campbell exponent of a Rayleigh-faded Poisson field of intensity
    omega, ``2*pi*omega * int x/(1+x) r dr`` with ``x = q * (r^2 +
    h^2)^(-alpha/2)`` over an annulus, is in ``u = r^2 + h^2`` and
    ``a = alpha/2`` the integral ``pi*omega * int q/(q + v^a) dv`` between
    the annulus's two values of u.  The kernel's parameter is
    ``q = theta * u^a``, with u the tagged device's, and its two
    integrals end at the cell edge ``u_edge`` = R^2 + h^2: the singleton
    integral starts at u, the collided one at h^2.

    Each is evaluated as ``int q v/(q + v^a) d(ln v)`` by a fixed
    Gauss-Legendre rule in ln v (:func:`_legendre_rule`), of
    :func:`_campbell_rule_size` nodes for the point's span
    L = ln(u_edge/h^2), which bounds the singleton span too.  Below
    ``cut = _CAMPBELL_TOL * u_edge`` the integrand q/(q + v^a) in v is at
    most 1 and the integral over [0, cut] at most ``cut``, so the lower
    end is cut there and the piece below it is added as its length: the
    error is at most ``_CAMPBELL_TOL * u_edge``, the order of the rounding
    of u_edge, and L stays finite as h -> 0.  Written about the edge,
    w = ln(v/u_edge) <= 0, the integrand is u_edge e^w/(1 + r e^(a w))
    with ``r = u_edge^a/q`` per device.  The collided nodes depend on the
    point only, so their exponentials are taken once per point and rule
    node.

    ``u_edge`` and ``h2`` are per point; ``a`` is one exponent.  Each
    device's sums run over its own point's rule nodes, in rule-node order
    (:func:`_rule_sum`), in arrays of at most ``_RANK_WEIGHTS`` entries, so
    its values do not depend on the other points or devices of a call.
    """
    u_edge = np.asarray(u_edge, dtype=float)
    cuts = _CAMPBELL_TOL * u_edge
    lo_c = np.maximum(h2, cuts)
    spans = np.log(u_edge / lo_c)  # the collided span, the longest of the point's
    sizes = [_campbell_rule_size(a, s) for s in spans.tolist()]
    # per point: u_edge, u_edge^a, the cut, the collided span and the collided
    # piece below the cut (0 unless h^2 < cut); scalar powers: numpy's
    # vectorised power may differ from them in the last bit
    table = np.array([u_edge, [edge**a for edge in u_edge.tolist()], cuts, spans, lo_c - h2])
    # per rule size: the rule's negated nodes and its weights as (n, 1)
    # columns, then its points' collided numerators w_k e^(w_k) and
    # e^(a w_k) at w_k = -c_k L, one column per point
    rules = {}
    for n in sorted(set(sizes)):
        c, w = _legendre_rule(n)
        c, w = -c[:, None], w[:, None]
        pts = np.flatnonzero(np.equal(sizes, n))
        column = np.zeros(len(sizes), dtype=np.int64)
        column[pts] = np.arange(pts.size)
        log_v = c * spans[pts]
        rules[n] = (c, w, column, w * np.exp(log_v), np.exp(a * log_v))
    sizes = np.array(sizes)

    def f(u, q, point):
        point = np.broadcast_to(point, u.shape)
        edge, edge_a, cut, span, piece = np.take(table, point, axis=1)
        lo_s = np.maximum(u, cut)
        span_s = np.log(edge / lo_s)
        ratio = edge_a / q  # r = u_edge^a / q
        singleton, collided = np.empty(u.size), np.empty(u.size)
        for n, (c, w, column, num_c, exp_c) in rules.items():
            sel = np.flatnonzero(sizes[point] == n)
            # (n, nodes) arrays of at most _RANK_WEIGHTS entries
            step = max(1, _RANK_WEIGHTS // n)
            for lo in range(0, sel.size, step):
                i = sel[lo: lo + step]
                r = ratio[i]
                log_v = c * span_s[i]
                terms = w * np.exp(log_v)
                log_v *= a
                den = np.exp(log_v, out=log_v)
                den *= r
                den += 1.0
                terms /= den
                singleton[i] = _rule_sum(terms)
                k = column[point[i]]
                den = np.take(exp_c, k, axis=1)
                den *= r
                den += 1.0
                terms = np.take(num_c, k, axis=1)
                terms /= den
                collided[i] = _rule_sum(terms)
        return edge * (span_s * singleton) + (lo_s - u), edge * (span * collided) + piece

    return f


# ----------------------------------------------------------------------------
#  Conditional and frame coverage
# ----------------------------------------------------------------------------

def _coverage_kernels(cfgs: Sequence[SystemConfig], stats: Sequence[SlotStatistics]):
    """Return g(t, point): coverage probability of a device of ``cfgs[point]``
    at r_hat = R * sqrt(t), elementwise over ``t`` and ``point``.

    Combines the fading tail, noise factor and the two interference
    transforms, each configuration with the singleton and collided
    intensities ``omega_s`` and ``omega_c`` of its own ``stats[i]``;
    independent of the order-statistic rank.  With u = r_hat^2 + h^2 the
    transform argument is ``s = theta * u^(alpha/2) / (p_bar * beta)``, so
    the Campbell parameter ``q = s * p_bar * beta`` is ``theta *
    u^(alpha/2)``, and :func:`_campbell_integrals` gives both transforms'
    exponents over pi*omega, by a Gauss-Legendre rule of each point's own
    size.  The configurations share one pathloss exponent: numpy's power
    at a scalar exponent (with its fast paths at 1/2, 1 and 2) can differ
    in the last bit from the same power at an array of exponents.
    """
    alpha = cfgs[0].channel.pathloss_exp
    a = 0.5 * alpha
    rows = []
    for cfg, st in zip(cfgs, stats, strict=True):
        if cfg.channel.pathloss_exp != alpha:
            raise ValueError("a batch of coverage kernels needs one pathloss exponent")
        radius2 = cfg.geometry.cell_radius**2
        h2 = cfg.geometry.uav_altitude**2
        noise_per_q = cfg.channel.noise_power / (
            cfg.mean_packet_power() * cfg.channel.pathloss_coeff
        )
        rows.append((radius2, h2, cfg.reliability.sinr_threshold, noise_per_q,
                     math.pi * st.omega_s, math.pi * st.omega_c))
    params = np.array(rows).T
    campbell = _campbell_integrals(a, params[0] + params[1], params[1])

    def g(t, point):
        radius2, h2, theta, noise_per_q, pi_omega_s, pi_omega_c = np.take(params, point, axis=1)
        u = radius2 * t + h2
        q = theta * u**a
        # the Campbell integrals of the weaker singletons, from u to the
        # edge, and of the collided devices, over the whole disk
        singleton, collided = campbell(u, q, point)
        exponent = q * noise_per_q + pi_omega_s * singleton + pi_omega_c * collided
        return np.exp(-exponent)

    return g


# Exponents f of the weight (1-x)^f at which every degree's Gauss-Jacobi rule
# is tabulated: the Chebyshev points of the second kind on [-1 + 2^-52, 0],
# from f = 0 down, so that an integer singleton count (f = 0) and the clamp
# of :func:`_ranks_coverages` read a row as it is.  The barycentric weights
# of those points are (-1)^j, halved at both ends (Berrut & Trefethen, SIAM
# Review 46(3), 2004).
_JACOBI_POINTS = 16
_JACOBI_F = 0.5 * (-1.0 + 2.0**-52) * (1.0 - np.cos(np.pi * np.arange(_JACOBI_POINTS)
                                                    / (_JACOBI_POINTS - 1)))
_JACOBI_F[[0, -1]] = 0.0, -1.0 + 2.0**-52
_JACOBI_BARY = np.where(np.arange(_JACOBI_POINTS) % 2, -1.0, 1.0)
_JACOBI_BARY[[0, -1]] *= 0.5
_JACOBI_F.flags.writeable = _JACOBI_BARY.flags.writeable = False

# Table entries (exponents x nodes) one Newton solve of :func:`_jacobi_table`
# holds: its working arrays then stay in cache, which halves the build of
# degree 9 488 (16 exponents at once take 9.9 s, 3 at a time 5.0 s).
_JACOBI_BLOCK = 1 << 15

# Newton steps a table may take before :func:`_jacobi_rules` gives up; it
# takes three from its guesses at the degrees tried from 1 to 40 and from
# 100 to 9 488, the largest a point may need, but four at degrees 2 and 4.
_JACOBI_ITERATIONS = 12


def _bessel_zeros(a: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` positive zeros of the Bessel functions J_a, one
    row per order of the column ``a`` in (-1, 0].

    Each is s = j^2/4 at a root of the power series
    sum_k (-s)^k (a+1) / (k! (a+1)_k) of J_a up to a factor, by Newton's
    method from McMahon's expansion (DLMF 10.21.19), or for the first from
    its small-(a+1) estimate: it keeps its digits as a -> -1, where j tends
    to 0 like 2 sqrt(a+1).  For the three zeros this serves (s < 25) the
    series' largest term is ~200, so j loses under three digits: these are
    guesses, and the nodes they start are solved to rounding.
    """
    b = (np.arange(1, count + 1) + 0.5 * a - 0.25) * np.pi
    mu = 4.0 * a * a
    zeros = b - (mu - 1.0) / (8.0 * b) - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * b) ** 3)
    s = 0.25 * zeros * zeros
    s[:, :1] = (a + 1.0) * (1.0 + 0.45 * (a + 1.0) / (a + 2.0))
    for _ in range(4):
        term, value, slope = a + 1.0, a + 1.0, 0.0
        for k in range(1, 40):
            term = term * -s / (k * (a + k))
            value, slope = value + term, slope + k * term / s
        s = s - value / slope
    return 2.0 * np.sqrt(s)


def _jacobi_rules(m: int, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The m-node Gauss-Jacobi rules for the weights (1-x)^f, one row per
    exponent of the 1-d ``f`` in [-1 + 2^-52, 0], as ``(y, u)``.

    ``y = 1 - x`` are the nodes, x increasing along a row, and
    ``u - log(y)`` the logarithms of their weights, up to a constant per
    row.  Both are smooth in f: as f -> -1 the top node tends to 1 like
    f + 1, and y resolves it; ``u`` holds the weight times y, finite there.

    The nodes are the roots of P_m^(f,0), found by Newton's method from
    asymptotic guesses, without an eigenvalue solve (Hale & Townsend, SIAM
    J. Sci. Comput. 35(2), 2013).  Each step evaluates P_m and P_(m-1) by the
    three-term recurrence (DLMF 18.9.2), written in y so that a small y
    keeps its digits, and scaled as Q_j = P_j / prod(beta_i/2), which tends
    to the Chebyshev recurrence Q_j = 2x Q_(j-1) - Q_(j-2) and neither
    overflows nor underflows; P_m' follows from the two by DLMF 18.9.16,
    so no derivative is carried.  Once every step is below 1e-6 of the
    node's distance to its neighbours (or to an end of [0, 2]), one more
    step finishes: its error is below the rounding of the recurrence.
    Raises ``QuadratureError`` when the iteration does not settle within
    ``_JACOBI_ITERATIONS`` steps or the nodes come out unordered.
    """
    a = np.asarray(f, dtype=float)[:, None]
    rho = m + 0.5 * (a + 1.0)
    # x_k = cos(theta_k): Gatteschi & Pittaluga's estimate in the interior,
    # Gatteschi's from the zeros j of Bessel functions for the three nodes
    # nearest each end: theta = j_(a,k) / sqrt(rho^2 + (1 - a^2)/12) at x = 1
    # and pi - theta with j_(0,k) and 1 - 3a^2 at x = -1
    phi = (np.arange(1, m + 1) + 0.5 * a - 0.25) * np.pi / rho
    theta = phi + ((0.25 - a * a) / np.tan(0.5 * phi) - 0.25 * np.tan(0.5 * phi)) / (4.0 * rho * rho)
    ends = min(3, m // 2)
    if ends:
        theta[:, :ends] = _bessel_zeros(a, ends) / np.sqrt(rho * rho + (1.0 - a * a) / 12.0)
        theta[:, -ends:] = np.pi - (_bessel_zeros(0.0 * a, ends)[:, ::-1]
                                    / np.sqrt(rho * rho + (1.0 - 3.0 * a * a) / 12.0))
    y = 2.0 * np.sin(0.5 * theta) ** 2
    zero = np.zeros_like(a)
    gap = np.minimum(np.diff(y, prepend=zero), np.diff(y, append=zero + 2.0))

    # recurrence coefficients of j = 2 .. m, one (rows, 1) column each; each
    # factor 2j - i + a adds a to an integer, so that 1 + a keeps its digits
    j = np.arange(2, m + 1)[:, None, None]
    c = 2 * j + a
    shift = 2.0 + 2.0 * a * a / (c * ((2 * j - 2) + a))
    back = (16.0 * ((j - 1) * ((j - 1) + a)) ** 2
            / (((2 * j - 1) + a) * ((2 * j - 2) + a) ** 2 * ((2 * j - 3) + a)))
    c = 2 * m + a
    kappa = 8.0 * m * (m + a) ** 2 / (((2 * m - 1) + a) * c)
    last = False
    for _ in range(_JACOBI_ITERATIONS):
        z = -2.0 * y
        q0, q1 = np.ones_like(y), z + 4.0 * (a + 1.0) / (a + 2.0)  # Q_0, Q_1
        t = np.empty_like(y)
        for s_j, b_j in zip(shift, back):
            np.add(z, s_j, out=t)
            t *= q1
            q0 *= b_j
            t -= q0
            q0, q1, t = q1, t, q0
        # (1 - x^2) P_m' = m T_m d / c with T_m = prod(beta_i / 2)
        d = (c * y - 2.0 * m) * q1 + kappa * q0
        step = c * y * (2.0 - y) * q1 / (m * d)
        y = y + step
        if last:
            break
        last = bool(np.all(np.abs(step) <= 1e-6 * gap))
    else:
        raise QuadratureError(
            f"Gauss-Jacobi nodes of degree {m}: Newton's method did not converge",
            math.nan, math.nan,
        )
    if not (np.all(np.diff(y) > 0.0) and np.all(y[:, 0] > 0.0) and np.all(y[:, -1] < 2.0)):
        raise QuadratureError(f"Gauss-Jacobi nodes of degree {m}: roots out of order",
                              math.nan, math.nan)
    # w = (1 - x^2) / d^2 up to a constant per row; d vanishes like y at the
    # top node.  Reversed, so that x increases along a row.
    u = np.log(2.0 - y) - 2.0 * np.log(np.abs(d / y))
    return np.ascontiguousarray(y[:, ::-1]), np.ascontiguousarray(u[:, ::-1])


@functools.cache
def _jacobi_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_jacobi_rules` of degree m at the ``_JACOBI_F`` exponents f,
    as two read-only (16, m) arrays: (m + 1 + f) y and u.

    The leading coefficient of P_m^(f,0) vanishes at f = -m - 1, where a
    node runs off to infinity; the factor m + 1 + f takes out that pole,
    which at m = 1 would hold the interpolation in f to ~1e-12.  Built once
    per degree and process, ``_JACOBI_BLOCK`` entries at a time.
    """
    rows = max(1, _JACOBI_BLOCK // m)
    y, u = (np.concatenate(part) for part in zip(*(
        _jacobi_rules(m, _JACOBI_F[i: i + rows]) for i in range(0, _JACOBI_POINTS, rows)
    )))
    y *= (m + 1) + _JACOBI_F[:, None]
    y.flags.writeable = u.flags.writeable = False
    return y, u


def _jacobi_interpolate(f: np.ndarray, degrees: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The rules of ``degrees[i]`` nodes for the weights (1-x)^f[i], one
    after another, as :func:`_jacobi_rules` gives them: ``(y, u)``, flat.

    Each rule is the barycentric interpolation in f of its degree's table
    (:func:`_jacobi_table`) at its own exponent: y and u are smooth in f,
    and the 16 Chebyshev points carry them to rounding.  An exponent on a
    table point reads that row as it is.  Every value is its rule's 16
    terms summed in table-row order (:func:`_rule_sum`), not a matrix
    product, whose blocking would depend on the other rules of the call.
    """
    diff = f - _JACOBI_F[:, None]  # one column per rule
    hit = diff == 0.0
    with np.errstate(divide="ignore"):
        coef = _JACOBI_BARY[:, None] / diff
    coef = np.where(hit.any(axis=0), hit, coef)
    coef /= _rule_sum(coef)
    coef = np.repeat(coef, degrees, axis=1)
    tables = [_jacobi_table(m) for m in degrees]
    y, u = (_rule_sum(coef * np.concatenate([t[i] for t in tables], axis=1)) for i in (0, 1))
    y /= np.repeat(np.add(degrees, 1.0) + f, degrees)
    return y, u


def _gauss_jacobi(a, n):
    """Gauss-Jacobi rules with n and 2n nodes for the weight (1-x)^a on [-1, 1].

    ``a`` in [-1 + 2^-52, 0].  ``a`` and ``n`` may also be equal-length
    arrays, one rule pair per entry.  Returns ``(x, log_w)``, each of
    length 3n per entry, the entries one after another: the n-node rule
    followed by the 2n-node rule, with the logarithms of each rule's
    weights up to a constant per rule, interpolated from the tables of
    their degrees (:func:`_jacobi_interpolate`).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    n = np.atleast_1d(n)
    y, u = _jacobi_interpolate(np.repeat(a, 2), np.column_stack((n, 2 * n)).ravel().tolist())
    # Within ~1e-16 of a = -1 the top node rounds to 1.  It then carries all
    # but O(a + 1) of the top rank's weight and next to none of the other
    # ranks', wherever it lies, as long as it stays below 1.  The weight is
    # divided by the 1 - x the ranks multiply it by (:func:`_ranks_coverages`),
    # not by y: near a = -1 the rounding of x moves 1 - x by a good part of
    # itself, and the two must cancel in the lower ranks' weights.
    x = np.minimum(1.0 - y, np.nextafter(1.0, 0.0))
    return x, u - np.log1p(-x)


def _rule_size(n_singleton: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank counts K = ceil(n_singleton) and base node counts n of the rule pairs.

    Raises ``ConfigError`` for a point of more than ``_POINT_WEIGHTS`` rank
    weights K·3n, counted in floats, which do not overflow.
    """
    n_ranks = np.ceil(n_singleton)
    weights = n_ranks * 3 * (_OUTER_NODES + n_ranks // 2)
    if weights.size and weights.max() > _POINT_WEIGHTS:
        p = int(np.argmax(weights))
        raise ConfigError(
            f"an analytic point of n_singleton = {n_singleton[p]:.6g} needs"
            f" K * 3n = {weights[p]:.6g} rank weights,"
            f" above the {_POINT_WEIGHTS} a point may hold"
        )
    n_ranks = n_ranks.astype(np.int64)
    return n_ranks, _OUTER_NODES + n_ranks // 2


def check_point_budget(cfgs: Iterable[SystemConfig]) -> None:
    """Raise the ``ConfigError`` :func:`frame_coverage_probs` raises for a
    point of more than ``_POINT_WEIGHTS`` rank weights, from the slot
    statistics alone, before anything is evaluated."""
    _rule_size(np.array([slot_statistics(cfg).n_singleton for cfg in cfgs]))


def _ranks_coverages(n_singletons, kernel) -> list[tuple[np.ndarray, np.ndarray]]:
    """Clamped conditional coverage of every rank and its error estimate,
    for each singleton count of ``n_singletons``.

    ``kernel(t, point)`` evaluates the coverage kernel of point ``point``
    (an index into ``n_singletons``) at ``t``, elementwise.  Rank
    k = 1..K, K = ceil(n_singleton), averages the kernel under the
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

    The rules, the kernel, the rank weights and their sums of all points
    are evaluated together; each rule's sums reduce its own nodes only, so
    a point's values do not depend on the other points.
    """
    n_s = np.asarray(n_singletons, dtype=float)
    n_ranks, n = _rule_size(n_s)
    # below n_singleton = 2^-54, f rounds to -1, where the recurrence
    # divides 0 by 0; the rule at the clamp already gives the finite
    # n_singleton -> 0 limit, and no f from n_singleton >= 2^-52 is clamped
    x, log_w = _gauss_jacobi(np.maximum(n_s - n_ranks, -1.0 + 2.0**-52), n)
    g = kernel(0.5 * (1.0 + x), np.repeat(np.arange(n.size), 3 * n))

    # the weights of every rank up to the batch's largest K at every node, one
    # row per rank, _RANK_WEIGHTS at a time, and each row's sums per rule:
    # reduceat sums each rule over its own nodes, whatever the other rules are
    cols = np.column_stack((n, 2 * n)).ravel()  # nodes of each rule
    first = np.cumsum(cols) - cols  # first node of each rule
    top, log_lo, log_hi = np.repeat(n_ranks, 3 * n) - 1, np.log1p(-x), np.log1p(x)
    step = max(1, _RANK_WEIGHTS // x.size)
    sums = []
    for lo in range(0, int(n_ranks.max()), step):
        k = np.arange(lo, min(lo + step, n_ranks.max()))[:, None]  # rank - 1
        log_wk = log_w + (top - k) * log_lo + k * log_hi
        w = np.exp(log_wk - np.repeat(np.maximum.reduceat(log_wk, first, axis=1), cols, axis=1))
        sums.append(np.add.reduceat(w * g, first, axis=1) / np.add.reduceat(w, first, axis=1))
    sums = np.concatenate(sums).T  # (rule, rank); each point reads its first K ranks
    coarse, value = sums[0::2], sums[1::2]  # n, 2n nodes
    err = np.abs(value - coarse)
    live = np.arange(sums.shape[1]) < n_ranks[:, None]  # each point's first K ranks
    bad = live & ~(np.isfinite(value) & np.isfinite(err))
    if bad.any():
        p, k = np.unravel_index(np.argmax(bad), bad.shape)
        raise QuadratureError(
            f"conditional coverage rank k={k + 1}: non-finite Gauss-Jacobi sum",
            float(value[p, k]), float(err[p, k]),
        )
    value = np.clip(value, 0.0, 1.0)
    return [(value[p, :r], err[p, :r]) for p, r in enumerate(n_ranks.tolist())]


def _batches(points: list[int], cfgs: list[SystemConfig], stats: list[SlotStatistics]):
    """Split ``points``, indices into ``cfgs``, into the runs evaluated together.

    A run shares one pathloss exponent and holds at most ``_RANK_WEIGHTS``
    rank weights, its largest rank count times its nodes; a point with more
    forms a run of its own.
    """
    n_ranks, n = _rule_size(np.array([stats[i].n_singleton for i in points]))
    batch, ranks, nodes = [], 0, 0
    for i, k, m in zip(points, n_ranks.tolist(), (3 * n).tolist()):
        alpha = cfgs[i].channel.pathloss_exp
        if batch and (max(ranks, k) * (nodes + m) > _RANK_WEIGHTS
                      or alpha != cfgs[batch[0]].channel.pathloss_exp):
            yield batch
            batch, ranks, nodes = [], 0, 0
        batch.append(i)
        ranks, nodes = max(ranks, k), nodes + m
    if batch:
        yield batch


def frame_coverage_probs(cfgs: Iterable[SystemConfig]) -> list[CoverageReport]:
    """Frame coverage of every configuration, evaluated together.

    Entry i equals ``frame_coverage_prob(cfgs[i])`` bit for bit, whatever
    the other configurations are.  Consecutive configurations that share a
    pathloss exponent are evaluated as one batch of at most
    ``_RANK_WEIGHTS`` rank weights; a point with more is a batch of its
    own.  The slot statistics and the report run per point; every step of
    :func:`_ranks_coverages` runs once per batch.
    """
    cfgs = list(cfgs)
    stats = [slot_statistics(cfg) for cfg in cfgs]
    loads = [cfg.traffic.mean_packets() for cfg in cfgs]
    reports = [None] * len(cfgs)
    live = []
    for i, st in enumerate(stats):
        if loads[i] == 0.0 or st.n_singleton <= 0.0:
            reports[i] = CoverageReport(0.0, 0.0, st.n_singleton, st.p_lambda, st.p_cf, (), 0.0)
        else:
            live.append(i)
    for batch in _batches(live, cfgs, stats):
        kernel = _coverage_kernels([cfgs[i] for i in batch], [stats[i] for i in batch])
        n_s = np.array([stats[i].n_singleton for i in batch])
        rows = _ranks_coverages(n_s, kernel)
        # every rank up to floor(n_s) counts fully, a fractional top rank by
        # its fraction n_s - floor(n_s); row j holds point j's weights
        ranks = np.arange(1, max(len(values) for values, _ in rows) + 1)
        weights = np.minimum(1.0, n_s[:, None] - (ranks - 1))
        for j, (i, (values, errs)) in enumerate(zip(batch, rows)):
            cfg = cfgs[i]
            total = float(weights[j, : len(values)].dot(values.cumprod()))
            raw = cfg.frame.n_slots / (cfg.traffic.n_active * loads[i]) * total
            reports[i] = CoverageReport(
                p_succ=min(1.0, max(0.0, raw)),
                p_succ_raw=raw,
                n_singleton=stats[i].n_singleton,
                p_lambda=stats[i].p_lambda,
                p_cf=stats[i].p_cf,
                conditional_terms=tuple(values.tolist()),
                quadrature_error_estimate=float(np.add.reduce(errs)),
            )
    return reports


def frame_coverage_prob(cfg: SystemConfig) -> CoverageReport:
    """Average probability a generated packet is collision-free and covered.

    Sums the rank-wise survival products over the (possibly fractional)
    singleton count and normalizes by the mean per-frame packet load
    (:meth:`TrafficParams.mean_packets`).  The one-point case of
    :func:`frame_coverage_probs`.
    """
    return frame_coverage_probs([cfg])[0]
