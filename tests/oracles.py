"""Second forms of the uplink's computations, kept as test oracles.

The package ships one form of each computation; the tests check it
against the form here, written the direct way:

- the scalar one-slot receiver (``mmse_weights`` and ``sic_decode``, an
  m x m linear solve per cancellation step), the oracle of the batched
  ``simulator._sweep_sinr`` / ``_decode_block`` receiver;
- the per-frame draw laws ``sample_deployment`` and
  ``assign_slots_codes``, the oracle of ``simulator._draw_block``;
- the base-2 form of the short-packet error probability
  (``packet_error_prob``), the oracle of
  ``shortpacket.error_prob_ln_form``.

It is a test helper, not part of the package; tests import it as
``oracles``, as they import ``simpson`` and ``conftest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from musalink.shortpacket import q_function
from musalink.simulator import _check_sinr_rule

__all__ = [
    "FailureCause",
    "SlotRealization",
    "DecodingOutcome",
    "mmse_weights",
    "sic_decode",
    "sample_deployment",
    "assign_slots_codes",
    "DISPERSION",
    "BlocklengthPoint",
    "packet_error_prob",
]


# ============================================================================
#  Per-frame draw laws (the oracle of simulator._draw_block)
# ============================================================================

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
