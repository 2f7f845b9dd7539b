"""Second forms of the uplink's computations, kept as test oracles.

The package ships one form of each computation; the tests check it
against the form here, written the direct way:

- the interference field one point at a time: ``laplace_singleton`` and
  ``laplace_collided``, the Laplace transforms of the singleton and
  collided interference at one distance through the Campbell exponent
  over an annulus (``_campbell_exponent``, in the Gauss hypergeometric
  closed form ``_antiderivative``), the oracles of the vectorised
  ``analytic._coverage_kernels`` and its Gauss-Legendre rule
  ``analytic._campbell_integrals``; and the ordered-distance
  density ``ordered_distance_pdf``, the law the engine's Gauss-Jacobi
  rank averages integrate;
- the scalar one-slot receiver (``mmse_weights`` and ``sic_decode``, an
  m x m linear solve per cancellation step, in watts), the oracle of the
  batched ``simulator._sweep_sinr`` / ``_decode_block`` receiver, which
  works in units of the noise;
- the per-frame draw laws ``sample_deployment`` and
  ``assign_slots_codes``, the oracle of ``simulator._draw_block``, and
  frame i's stream ``frame_rng``, the generator
  ``simulator._coverage_worker`` builds for each frame;
- the base-2 form of the short-packet error probability
  (``packet_error_prob``), the oracle of
  ``shortpacket.error_prob_ln_form``;
- the Poisson quantile through scipy's inverse incomplete gamma function
  (``poisson_quantile``), the oracle of ``TrafficParams.quantile``;
- the closed form of the Poisson slot occupancy through scipy's ``pdtr``
  and ``pdtrc`` (``poisson_slot_occupancy``), the oracle of
  ``TrafficParams.slot_occupancy``.

It is a test helper, not part of the package; tests import it as
``oracles``, as they import ``simpson`` and ``conftest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import hyp2f1, pdtr, pdtrc, pdtrik

from musalink.config import SystemConfig
from musalink.shortpacket import q_function
from musalink.simulator import _check_sinr_rule

__all__ = [
    "ordered_distance_pdf",
    "laplace_singleton",
    "laplace_collided",
    "FailureCause",
    "SlotRealization",
    "DecodingOutcome",
    "mmse_weights",
    "sic_decode",
    "frame_rng",
    "sample_deployment",
    "assign_slots_codes",
    "DISPERSION",
    "BlocklengthPoint",
    "packet_error_prob",
    "poisson_quantile",
]


# ============================================================================
#  Interference field and ordered distances (the per-point form of
#  analytic._coverage_kernels)
# ============================================================================

def ordered_distance_pdf(k: int, n_singleton: int, radius: float, x: float) -> float:
    """Density of the k-th smallest horizontal distance among n singletons.

    Devices are uniform in the serving disk, so a single distance has
    density 2x/R^2 and CDF t = x^2/R^2, and the k-th of n has density
    n!/((k-1)!(n-k)!) * t^(k-1) * (1-t)^(n-k) * 2x/R^2.  ``n_singleton``
    must be an integral count (5 or 5.0); the coverage engine integrates
    the same Beta law for fractional mean counts without this function.
    """
    if not (float(n_singleton).is_integer() and n_singleton >= 1):
        raise ValueError(f"n_singleton must be a positive integer, got {n_singleton!r}")
    n = int(n_singleton)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, n_singleton={n}]")
    if radius <= 0:
        raise ValueError("radius must be > 0")
    if x < 0 or x > radius:
        raise ValueError("x must lie in [0, radius]")
    t = (x / radius) ** 2
    coeff = n * math.comb(n - 1, k - 1)
    return coeff * (2.0 * x / radius**2) * t ** (k - 1) * (1.0 - t) ** (n - k)


def _antiderivative(u, u_a, q, a: float):
    """F(u) of the Campbell exponent of a Rayleigh-faded Poisson field, given
    ``u_a = u**a``.

    The exponent ``2*pi*omega * int x/(1+x) r dr`` with ``x = q * (r^2 +
    h^2)^(-alpha/2)`` over an annulus, written in ``u = r^2 + h^2``, is
    ``pi*omega * [F(u_hi) - F(u_lo)]`` in closed form (Andrews, Baccelli &
    Ganti 2011): with ``a = alpha/2``,

        F(u) = u * 2F1(1, 1/a; 1 + 1/a; -u^a/q),

    and ``F(u) = q * log(1 + u/q)`` at ``a = 1``, where the hypergeometric
    form is degenerate.  The absolute error of the difference is of the
    order of the rounding error of ``pi * omega * u_hi``, so a very thin
    annulus loses relative accuracy but not absolute accuracy, and the
    transform exp(-exponent) neither.  ``u``, ``u_a`` and ``q`` may be
    arrays; ``a`` is one exponent.  The oracle of the package's
    Gauss-Legendre rule, ``analytic._campbell_integrals``.
    """
    if a == 1.0:
        return q * np.log1p(u / q)
    b = 1.0 / a
    return u * hyp2f1(1.0, b, 1.0 + b, -u_a / q)


def _campbell_exponent(q, omega: float, u_lo, u_hi, alpha: float):
    """Campbell exponent of a Rayleigh-faded Poisson interference field.

    ``2*pi*omega * int x/(1+x) r dr`` with ``x = q * (r^2 + h^2)^(-alpha/2)``
    over an annulus, written in ``u = r^2 + h^2`` between ``u_lo`` and
    ``u_hi`` as ``pi*omega * [F(u_hi) - F(u_lo)]`` with the closed form F
    (:func:`_antiderivative`, which states it and its accuracy).  ``q``,
    ``u_lo`` and ``u_hi`` may be arrays.
    """
    a = 0.5 * alpha
    return math.pi * omega * (
        _antiderivative(u_hi, u_hi**a, q, a) - _antiderivative(u_lo, u_lo**a, q, a)
    )


def laplace_singleton(s: float, r_hat: float, cfg: SystemConfig, omega_s: float) -> float:
    """Laplace transform of the interference from weaker singleton devices.

    Interfering singletons, of intensity ``omega_s`` (devices / m^2), live
    on the annulus between the tagged device's distance ``r_hat`` and the
    cell edge.  Equals 1 exactly at ``s = 0`` and for an empty annulus.
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
        q, omega_s, r_hat * r_hat + h2, radius * radius + h2,
        cfg.channel.pathloss_exp,
    )
    return math.exp(-exponent)


def laplace_collided(s: float, cfg: SystemConfig, omega_c: float) -> float:
    """Laplace transform of the interference from collided devices.

    Collided devices, of intensity ``omega_c`` (devices / m^2), interfere
    from anywhere in the serving disk.  Equals 1 exactly at ``s = 0`` or
    when the collided intensity vanishes.
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if s == 0.0 or omega_c <= 0.0:
        return 1.0
    q = (s * cfg.mean_packet_power()) * cfg.channel.pathloss_coeff
    h2 = cfg.geometry.uav_altitude**2
    exponent = _campbell_exponent(
        q, omega_c, h2, cfg.geometry.cell_radius**2 + h2,
        cfg.channel.pathloss_exp,
    )
    return math.exp(-exponent)


# ============================================================================
#  Per-frame draw laws (the oracle of simulator._draw_block)
# ============================================================================

def frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    """Frame ``frame_index``'s generator in a run seeded by ``seed``."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(frame_index,))
    )


def sample_deployment(n_active: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Horizontal distances of devices uniform over the serving disk."""
    if n_active < 0:
        raise ValueError("n_active must be >= 0")
    return radius * np.sqrt(rng.random(n_active))


def assign_slots_codes(
    counts: np.ndarray, n_slots: int, pool_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, int]:
    """Assign each packet a distinct slot and an independent code index.

    A device transmits min(count, n_slots) packets in distinct uniformly
    chosen slots; the excess packets are dropped.  The slots of device i
    are the first min(count_i, n_slots) entries of the argsort of row i
    of one ``rng.random((n_devices, n_slots))`` draw; one
    ``rng.integers`` call then draws every code.  Returns the (N, 3) int
    array of (device, slot, code index) rows, device-major, and the
    number of dropped packets.
    """
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    counts = np.maximum(np.asarray(counts, dtype=np.int64), 0)
    tx = np.minimum(counts, n_slots)
    keys = rng.random((len(counts), n_slots))
    slots = np.argsort(keys, axis=1)[np.arange(n_slots) < tx[:, None]]
    devices = np.repeat(np.arange(len(counts)), tx)
    codes = rng.integers(0, pool_size, size=len(slots))
    return np.column_stack((devices, slots, codes)), int(counts.sum() - tx.sum())


# ============================================================================
#  Scalar one-slot receiver (the oracle of the batched receiver)
# ============================================================================

class FailureCause(Enum):
    DECODED = "decoded"
    COLLISION = "collision"
    BELOW_THRESHOLD = "below_threshold"
    BLOCKED_BY_STRONGER = "blocked_by_stronger"


@dataclass(frozen=True)
class SlotRealization:
    """Everything the receiver sees in one time slot.

    ``fading`` holds the unit-power small-scale gains per packet and
    subcarrier; ``path_gain`` the corresponding large-scale linear power
    gains derived from the horizontal distances.
    """
    device_ids: np.ndarray     # (K,) int
    radii: np.ndarray          # (K,) m
    path_gain: np.ndarray      # (K,) linear power gain incl. altitude
    fading: np.ndarray         # (K, J) complex, CN(0, 1) entries
    code_indices: np.ndarray   # (K,) int indices into the pool
    code_vectors: np.ndarray   # (K, J) complex unit-norm codes
    powers: np.ndarray         # (K,) W per packet

    def equivalent_channel(self) -> np.ndarray:
        """J x K effective channel: code-spread faded columns with pathloss."""
        cols = (self.fading * self.code_vectors) * np.sqrt(self.path_gain)[:, None]
        return cols.T


@dataclass(frozen=True)
class DecodingOutcome:
    decoded: np.ndarray                      # (K,) bool
    sinr_trace: tuple[tuple[int, float], ...]  # (device id, SINR) per iteration
    failure_cause: tuple[FailureCause, ...]  # per device


def mmse_weights(equiv_channel: np.ndarray, powers: np.ndarray, noise_power: float) -> np.ndarray:
    """MMSE weight rows for the undecoded set.

    Solves (P^(1/2) G^H G P^(1/2) + noise I) W^H = P^(1/2) G^H for the
    K x J matrix of weight rows.
    """
    g = np.asarray(equiv_channel)
    sqrt_p = np.sqrt(np.asarray(powers, dtype=float))
    gram = g.conj().T @ g
    a = (sqrt_p[:, None] * gram) * sqrt_p[None, :]
    a[np.diag_indices_from(a)] += noise_power
    rhs = sqrt_p[:, None] * g.conj().T
    return np.linalg.solve(a, rhs)


def sic_decode(
    slot: SlotRealization, theta: float, noise_power: float, sinr_rule: str = "conservative"
) -> DecodingOutcome:
    """Distance-ordered successive cancellation of one slot.

    Devices sharing a code index are collided: never decoded, always
    interfering.  At each iteration the nearest undecoded singleton is
    tested against the threshold with weights recomputed over the whole
    undecoded set; a failure blocks it and every weaker singleton.
    """
    _check_sinr_rule(sinr_rule)
    k_total = len(slot.device_ids)
    decoded = np.zeros(k_total, dtype=bool)
    cause: list[FailureCause | None] = [None] * k_total
    trace: list[tuple[int, float]] = []

    idx, counts = np.unique(slot.code_indices, return_counts=True)
    shared = set(idx[counts > 1].tolist())
    is_collided = np.array([c in shared for c in slot.code_indices.tolist()])
    for i in np.flatnonzero(is_collided):
        cause[i] = FailureCause.COLLISION

    g_full = slot.equivalent_channel()
    undecoded = np.ones(k_total, dtype=bool)

    while True:
        singles = np.flatnonzero(undecoded & ~is_collided)
        if singles.size == 0:
            break
        target = singles[np.argmin(slot.radii[singles])]
        current = np.flatnonzero(undecoded)

        if current.size == 1:
            # lone device: matched filter against noise only
            g_t = g_full[:, target]
            sinr = slot.powers[target] * float(np.real(np.vdot(g_t, g_t))) / noise_power
        else:
            g_u = g_full[:, current]
            p_u = slot.powers[current]
            weights = mmse_weights(g_u, p_u, noise_power)
            outputs = weights @ g_u  # (K_u, K_u): row i is w_i^H applied to all columns
            ti = int(np.flatnonzero(current == target)[0])
            signal = p_u[ti] * abs(outputs[ti, ti]) ** 2
            noise = noise_power * float(np.real(np.vdot(weights[ti], weights[ti])))
            if sinr_rule == "conservative":
                own = p_u * np.abs(np.diag(outputs)) ** 2
                interference = float(own.sum() - own[ti])
            else:
                cross = p_u * np.abs(outputs[ti]) ** 2
                interference = float(cross.sum() - cross[ti])
            sinr = signal / (interference + noise)

        trace.append((int(slot.device_ids[target]), float(sinr)))
        if sinr >= theta:
            decoded[target] = True
            cause[target] = FailureCause.DECODED
            undecoded[target] = False
        else:
            cause[target] = FailureCause.BELOW_THRESHOLD
            for i in singles:
                if i != target:
                    cause[i] = FailureCause.BLOCKED_BY_STRONGER
            break

    assert all(c is not None for c in cause), "every device must be classified"
    return DecodingOutcome(
        decoded=decoded,
        sinr_trace=tuple(trace),
        failure_cause=tuple(cause),
    )


# ============================================================================
#  Base-2 error form (the oracle of shortpacket.error_prob_ln_form)
# ============================================================================

DISPERSION = math.log2(math.e) ** 2  # AWGN channel dispersion, bits^2


@dataclass(frozen=True)
class BlocklengthPoint:
    """One operating point of the error model, at dispersion :data:`DISPERSION`."""
    sinr: float           # linear SINR at the receiver
    n_slots: float        # slots per frame (real-relaxed)
    channel_uses: float   # bandwidth-time product B * T_f of the frame
    packet_bits: int      # payload bits per packet

    def __post_init__(self):
        if self.n_slots <= 0:
            raise ValueError("n_slots must be > 0")
        if self.channel_uses / self.n_slots < 1.0:
            raise ValueError("need at least one channel use per slot")
        if self.packet_bits < 1:
            raise ValueError("packet_bits must be a positive integer")


def packet_error_prob(pt: BlocklengthPoint) -> float:
    """Decoding error probability of one packet in one slot (base-2 form)."""
    if pt.sinr <= 0:
        raise ValueError("sinr must be > 0")
    rate = pt.packet_bits * pt.n_slots / pt.channel_uses  # bits per channel use
    arg = math.sqrt(pt.channel_uses / (DISPERSION * pt.n_slots)) * (
        math.log2(1.0 + pt.sinr) - rate
    )
    return q_function(arg)


# ============================================================================
#  Poisson quantile and slot occupancy (the oracles of config.TrafficParams)
# ============================================================================

def poisson_quantile(q: float, lam: float) -> int:
    """Smallest k with P(Poisson(lam) <= k) >= q, for 0 < q < 1.

    Inverts the Poisson CDF through its continuous (incomplete-gamma)
    inverse and corrects the rounding by one CDF evaluation.  ``pdtrik``
    returns NaN at scattered lam above ~1e18, far beyond the package's
    domain of lambda.
    """
    k = math.ceil(pdtrik(q, lam))
    below = max(k - 1, 0)
    return below if pdtr(below, lam) >= q else k


def poisson_slot_occupancy(lam: float, n_slots: int) -> float:
    """E[min(L, S)]/S for L ~ Poisson(lam) and S = ``n_slots``, in closed form.

    Since L*pmf(L) = lam*pmf(L-1),

        E[min(L, S)]/S = (lam/S) * P(L <= S-1) + P(L > S),

    clipped to [0, 1].
    """
    total = lam / n_slots * pdtr(n_slots - 1, lam) + pdtrc(n_slots, lam)
    return min(1.0, max(0.0, float(total)))
