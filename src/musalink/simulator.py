"""Monte Carlo link-level simulator of the grant-free uplink.

Samples device deployments, bursty traffic, slot and spreading-code
choices and per-subcarrier Rayleigh fading, then runs the successive
interference cancellation receiver on every occupied slot.

Frame i draws from its own stream, seeded by (seed, i), in a fixed
order: packet counts (emergency only), then one ``random`` call holding
the radii and the (n_devices, n_slots) slot keys whose row-wise argsort
gives each device's slots, one ``integers`` call for every code, and one
``standard_normal`` call for all fading, the (2, n_packets, J) real and
imaginary parts.  These are the draws ``generate_traffic``,
``sample_deployment`` and ``assign_slots_codes`` make in turn, and those
public laws are the oracle of the block draw.  A block of frames is
drawn at once: only the generator calls run per frame; the argsort,
radii, powers and de-interleaving run once on the stacked block.
Estimates are therefore reproducible bit for bit regardless of how
frames are distributed over workers or blocks.

The receiver is batched: ``estimate_coverage`` and ``run_frame`` (a
block of one) decode a block of frames at once.  Collisions are found
with one ``unique`` over (slot, code) keys; each occupied slot becomes a
row of packets, singletons nearest first and collided packets last, and
iteration t of a slot tests its column t against the undecoded set of
columns t..K-1.  By the push-through identity W = P^½Gᴴ(GPGᴴ + σ²I)⁻¹ a
set needs the inverse of one J x J matrix, and the sets of a row grow by
one column as t falls, so one backward sweep over t, a Sherman-Morrison
update per step run over all rows at once, gives the SINR of every
iteration of every slot without a linear solve.  ``mmse_weights`` and ``sic_decode`` are the
scalar one-slot receiver, kept as the oracle the batched decisions are
tested against.

Two SINR bookkeeping rules are available for the cancellation receiver:

``conservative`` (default)
    Signal and noise are the target's MMSE output; the interference is
    the sum of every other undecoded device's own MMSE output power
    (its diagonal term of W·G), granting no cross-suppression credit.
    This is not the analytical model's matched-filter SINR: at
    (n_active, lambda, n_slots) = (10, 2, 20) it decodes 0.507 of the
    packets where the model's own assumptions give 0.616.

``post_mmse``
    Textbook post-detection SINR using the cross projections of the
    target's weight row onto the interferers' channels.  Optimistic
    relative to the analytical model; kept for A/B comparison.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .config import Scenario, SystemConfig
from .optimizer import adaptive_slots

__all__ = [
    "Scheme",
    "FailureCause",
    "SlotRealization",
    "DecodingOutcome",
    "FrameStats",
    "CoverageEstimate",
    "code_pool",
    "sample_deployment",
    "generate_traffic",
    "assign_slots_codes",
    "mmse_weights",
    "sic_decode",
    "run_frame",
    "estimate_coverage",
]


class Scheme(Enum):
    """Transmission schemes, each a fixed (slot rule, power rule) pair.

    PROPOSED adapts the slot count to the traffic and gives every packet
    the equal split ``cfg.mean_packet_power()`` (the budget over the
    maximum-packet-count proxy); TPDS keeps the configured slot count and
    splits each device's budget over its own packets; NAS keeps the
    configured slot count at full budget per packet.  BASELINE is the
    fixed-slot equal-split system the analytical model describes.  The
    rules live in ``_scheme_n_slots`` and ``_per_device_power``.
    """
    PROPOSED = "proposed"
    TPDS = "tpds"
    NAS = "nas"
    BASELINE = "baseline"


class FailureCause(Enum):
    DECODED = "decoded"
    COLLISION = "collision"
    BELOW_THRESHOLD = "below_threshold"
    BLOCKED_BY_STRONGER = "blocked_by_stronger"


_SINR_RULES = ("conservative", "post_mmse")


def _check_sinr_rule(sinr_rule: str) -> None:
    if sinr_rule not in _SINR_RULES:
        raise ValueError(f"unknown sinr_rule {sinr_rule!r}")


# ============================================================================
#  Spreading code pool
# ============================================================================

_CODE_ALPHABET = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
_POOL_ENTROPY = 202608  # fixed: the pool is a deterministic function of (J, size)


@functools.cache
def code_pool(n_subcarriers: int, pool_size: int) -> np.ndarray:
    """Deterministic pool of distinct unit-norm spreading codes.

    Codes are length-J vectors over the quaternary alphabet, normalized
    to unit norm.  Raises ``ValueError`` when fewer than ``pool_size``
    distinct codes exist.  Built once per (J, size) and process; the
    array returned is read-only, shared by every caller.
    """
    total = 4 ** n_subcarriers
    if total < pool_size:
        raise ValueError(
            f"4^{n_subcarriers} = {total} distinct codes cannot fill a pool of {pool_size}"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=_POOL_ENTROPY, spawn_key=(n_subcarriers, pool_size))
    )
    if total <= 1 << 16:
        digits = np.array([
            (np.arange(total) >> (2 * j)) & 3 for j in range(n_subcarriers)
        ]).T  # (total, J) base-4 digits
        chosen = rng.permutation(total)[:pool_size]
        raw = _CODE_ALPHABET[digits[chosen]]
    else:
        seen: set[tuple[int, ...]] = set()
        rows = []
        while len(rows) < pool_size:
            cand = tuple(rng.integers(0, 4, n_subcarriers).tolist())
            if cand not in seen:
                seen.add(cand)
                rows.append(_CODE_ALPHABET[list(cand)])
        raw = np.array(rows)
    pool = raw / math.sqrt(2 * n_subcarriers)  # alphabet modulus sqrt(2)
    pool.setflags(write=False)
    return pool


# ============================================================================
#  Sampling operations
# ============================================================================

def sample_deployment(n_active: int, radius: float, rng: np.random.Generator) -> np.ndarray:
    """Horizontal distances of devices uniform over the serving disk."""
    if n_active < 0:
        raise ValueError("n_active must be >= 0")
    return radius * np.sqrt(rng.random(n_active))


def generate_traffic(cfg: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Per-device packet counts: all ones outside an emergency, Poisson inside."""
    n = cfg.traffic.n_active
    if cfg.traffic.scenario is Scenario.NON_EMERGENCY:
        return np.ones(n, dtype=np.int64)
    return rng.poisson(cfg.traffic.lam, n)


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


def _path_gain(cfg: SystemConfig, radii: np.ndarray) -> np.ndarray:
    """Large-scale linear power gain at horizontal distances ``radii``."""
    h2 = cfg.geometry.uav_altitude**2
    return cfg.channel.pathloss_coeff * (radii**2 + h2) ** (-0.5 * cfg.channel.pathloss_exp)


# ============================================================================
#  Scalar one-slot receiver (the oracle of the batched receiver below)
# ============================================================================

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
#  Batched lockstep receiver
# ============================================================================

# Frames drawn and decoded together by estimate_coverage: at most
# _BLOCK_FRAMES, and fewer where a block's F·n_active·(1 + n_slots) radii
# and slot keys would pass _BLOCK_DRAWS (8 MB of doubles).  The block's
# other arrays (the keys' argsort, the normals, the padded slot rows) grow
# at most in proportion to its keys, so this bounds its memory.  Draws are
# per frame stream and decisions per slot, so the estimate does not depend
# on the block size.
_BLOCK_FRAMES = 256
_BLOCK_DRAWS = 1 << 20


class _Block(NamedTuple):
    """The random draws of a block of F frames and the powers they imply.

    Device rows are frame-major; packets are device-major, and
    ``device`` indexes the block's F·n_active device rows.
    """
    counts: np.ndarray    # (F, n_active) packets generated per device
    dropped: np.ndarray   # (F,) packets beyond a device's n_slots, never sent
    radii: np.ndarray     # (F, n_active) m
    powers: np.ndarray    # (F, n_active) W per packet
    device: np.ndarray    # (N,) device row of each packet
    slot: np.ndarray      # (N,) slot within its frame
    code: np.ndarray      # (N,) code index
    fading: np.ndarray    # (N, J) complex CN(0, 1) per packet and subcarrier


def _draw_block(
    cfg: SystemConfig, scheme: Scheme, rngs: list[np.random.Generator], n_slots: int
) -> _Block:
    """Draw a block of frames, frame f from ``rngs[f]``.

    Each stream is read as ``generate_traffic``, ``sample_deployment``,
    ``assign_slots_codes`` and ``standard_normal((2, N, J))`` would read
    it: the radii and slot keys of a frame are one ``random`` call, since
    ``random(n)`` then ``random((n, S))`` yields the same doubles.  Only
    these generator calls run per frame; sorting, indexing and powers run
    once on the stacked block.
    """
    n, lam = cfg.traffic.n_active, cfg.traffic.lam
    j = cfg.frame.n_subcarriers
    emergency = cfg.traffic.scenario is Scenario.EMERGENCY
    counts = np.ones((len(rngs), n), dtype=np.int64)
    u = np.empty((len(rngs), n * (1 + n_slots)))  # per frame: radii, then (n, S) keys
    for f, rng in enumerate(rngs):
        if emergency:
            counts[f] = rng.poisson(lam, n)
        rng.random(out=u[f])
    tx = np.minimum(counts, n_slots)
    n_pkt = tx.sum(axis=1)
    first = np.cumsum(n_pkt) - n_pkt  # each frame's first packet
    # frame f's normals are (2, N_f, J): N_f real rows, then N_f imaginary rows
    z = np.empty(2 * int(n_pkt.sum()) * j)
    codes = []
    for rng, lo, k in zip(rngs, (2 * j * first).tolist(), n_pkt.tolist()):
        codes.append(rng.integers(0, cfg.frame.code_pool_size, size=k))
        rng.standard_normal(out=z[lo:lo + 2 * j * k])
    z = z.reshape(-1, j)
    frame = np.repeat(np.arange(len(rngs)), n_pkt)
    real = np.arange(len(frame)) + first[frame]
    # bit for bit (re + 1j*im) / sqrt(2), without the complex temporaries
    fading = np.empty((len(frame), j), dtype=complex)
    fading.real = z[real]
    fading.imag = z[real + n_pkt[frame]]
    fading /= math.sqrt(2.0)
    keys = u[:, n:].reshape(-1, n_slots)
    slot = np.argsort(keys, axis=1)[np.arange(n_slots) < tx.reshape(-1, 1)]
    return _Block(
        counts=counts,
        dropped=counts.sum(axis=1) - n_pkt,
        radii=cfg.geometry.cell_radius * np.sqrt(u[:, :n]),
        powers=_per_device_power(cfg, scheme, counts),
        device=np.repeat(np.arange(counts.size), tx.ravel()),
        slot=slot,
        code=np.concatenate(codes),
        fading=fading,
    )


def _energy(x: np.ndarray) -> np.ndarray:
    return np.sum(x.real**2 + x.imag**2, axis=-1)


def _sweep_sinr(
    g: np.ndarray, p: np.ndarray, depth: np.ndarray, noise_power: float, sinr_rule: str
) -> np.ndarray:
    """SINR of every cancellation iteration of B slot rows, in one sweep.

    Row b holds the effective channels ``g[b]`` (D, J) and powers
    ``p[b]`` of its K_b = ``depth[b]`` packets in decoding order, zero
    past K_b; rows are sorted deepest first.  Entry (b, t) of the (B, D)
    result is the SINR of column t against the undecoded set t..K_b-1 by
    ``sic_decode``'s arithmetic; entries past K_b are 0.

    By the push-through identity the MMSE weight rows of a set are
    W = P^½Gᴴ R⁻¹ with R = GPGᴴ + σ²I_J, so a set needs the inverse of
    one J x J matrix, not an m x m solve.  The set of iteration t adds
    column t to that of t + 1, so sweeping t from D-1 down to 0 takes one
    Sherman-Morrison update of R⁻¹ per step, an update never a downdate:
    its denominator δ = 1 + p_t·s is at least 1.  With u = R_{t+1}⁻¹g_t
    and s = g_tᴴu:

    ``conservative``
        p_t²s² / (δ²·Σ_{i>t} p_i²q_i² + σ²p_t‖u‖²), where
        q_i = g_iᴴR_t⁻¹g_i is kept by q_i -= (p_t/δ)|uᴴg_i|²;
    ``post_mmse``
        p_t·s² / (Σ_{i>t} p_i|uᴴg_i|² + σ²‖u‖²).

    Step t touches only the rows deeper than t, a prefix of the rows.
    """
    n_rows, d, j = g.shape
    r_inv = np.zeros((n_rows, j, j), dtype=complex)
    r_inv[:, np.arange(j), np.arange(j)] = 1.0 / noise_power
    q = np.zeros((n_rows, d))
    sinr = np.zeros((n_rows, d))
    width = np.searchsorted(-depth, -np.arange(d))
    for t in range(d - 1, -1, -1):
        b = width[t]
        g_t, p_t, p_rest = g[:b, t], p[:b, t], p[:b, t + 1:]
        u = np.einsum("bij,bj->bi", r_inv[:b], g_t)
        u_h = u.conj()
        proj = np.einsum("bj,bkj->bk", u_h, g[:b, t:])  # u^H g_i for i >= t
        s = proj[:, 0].real
        cross = proj.real[:, 1:] ** 2 + proj.imag[:, 1:] ** 2
        noise = noise_power * np.einsum("bj,bj->b", u_h, u).real
        delta = 1.0 + p_t * s
        step = p_t / delta
        if sinr_rule == "conservative":
            q_rest = q[:b, t + 1:]
            q_rest -= step[:, None] * cross
            q[:b, t] = s / delta  # g_t^H R_t^-1 g_t
            pq = p_rest * q_rest
            interference = delta**2 * np.einsum("bk,bk->b", pq, pq)
            sinr[:b, t] = (p_t * s) ** 2 / (interference + p_t * noise)
        else:
            interference = np.einsum("bk,bk->b", p_rest, cross)
            sinr[:b, t] = p_t * s * s / (interference + noise)
        r_inv[:b] -= (step[:, None] * u)[:, :, None] * u_h[:, None, :]
    return sinr


def _decode_block(
    cfg: SystemConfig, block: _Block, n_slots: int, sinr_rule: str
) -> np.ndarray:
    """Run the cancellation receiver on every slot of a block of frames.

    Returns the (F, 4) per-frame counts of packets decoded,
    collided, below threshold and blocked by a stronger user.  Each
    occupied slot is a row [singletons nearest first, then collided],
    rows sorted deepest first.  One backward ``_sweep_sinr`` over the
    rows of two or more packets gives the SINR of every iteration t
    against the undecoded set row[t:K]; a lone packet keeps the matched
    filter against noise.  A slot passes the leading run of its
    singletons whose SINR reaches the threshold; a failure blocks the
    slot's remaining singletons.
    """
    pool = code_pool(cfg.frame.n_subcarriers, cfg.frame.code_pool_size)
    n_frames, n_active = block.counts.shape
    out = np.zeros((n_frames, 4), dtype=np.int64)
    if len(block.device) == 0:
        return out
    frame_of = block.device // n_active
    code = block.code
    radius = block.radii.ravel()[block.device]
    power = block.powers.ravel()[block.device]
    channel = block.fading * pool[code]
    channel *= np.sqrt(_path_gain(cfg, radius))[:, None]

    slot = frame_of * n_slots + block.slot
    _, inverse, multiplicity = np.unique(
        slot * len(pool) + code, return_inverse=True, return_counts=True
    )
    collided = multiplicity[inverse] > 1
    # one integer key sorts packets by (-depth, slot, collided, radius):
    # rows deepest first; in a row singletons nearest first, ties between
    # equal radii going to the lower device row
    depth = np.bincount(slot)[slot]
    nearness = np.empty(block.radii.size, dtype=np.int64)
    nearness[np.argsort(block.radii, axis=None, kind="stable")] = np.arange(block.radii.size)
    key = (slot - depth * (n_frames * n_slots)) * 2 + collided
    order = np.argsort(key * block.radii.size + nearness[block.device])
    ends = np.r_[np.flatnonzero(np.r_[True, np.diff(slot[order]) != 0]), len(order)]
    first = ends[:-1]
    k = np.diff(ends)
    singles = np.add.reduceat((~collided[order]).astype(np.int64), first)

    theta = cfg.reliability.sinr_threshold
    sigma2 = cfg.channel.noise_power
    n_multi = np.count_nonzero(k > 1)
    cut = ends[n_multi]  # packets of the rows of two or more
    row = np.repeat(np.arange(n_multi), k[:n_multi])
    col = np.arange(cut) - first[row]
    g = np.zeros((n_multi, k[0], channel.shape[1]), dtype=complex)
    p = np.zeros((n_multi, k[0]))
    g[row, col] = channel[order[:cut]]
    p[row, col] = power[order[:cut]]
    sinr = _sweep_sinr(g, p, k[:n_multi], sigma2, sinr_rule)
    ok = (sinr >= theta) & (np.arange(k[0]) < singles[:n_multi, None])
    lone = order[cut:]
    passed = np.r_[
        np.logical_and.accumulate(ok, axis=1).sum(axis=1),
        power[lone] * _energy(channel[lone]) / sigma2 >= theta,
    ]
    failed = passed < singles

    blocked = np.where(failed, singles - passed - 1, 0)
    per_row = np.column_stack((passed, k - singles, failed, blocked))
    np.add.at(out, frame_of[order[first]], per_row)
    return out


# ============================================================================
#  Frame-level schemes and coverage estimation
# ============================================================================

@dataclass(frozen=True)
class FrameStats:
    n_slots: int
    packets_generated: int
    packets_transmitted: int
    packets_decoded: int
    packets_dropped: int
    collision_failures: int
    threshold_failures: int
    blocked_failures: int


@dataclass(frozen=True)
class CoverageEstimate:
    p_hat: float
    ci_halfwidth: float   # 95% normal approximation, frames as the iid unit
    n_frames: int
    packets_generated: int
    packets_decoded: int
    packets_dropped: int
    # transmitted packets not decoded, by cause; with packets_decoded they
    # add up to packets_generated - packets_dropped
    collision_failures: int
    threshold_failures: int
    blocked_failures: int


def _scheme_n_slots(cfg: SystemConfig, scheme: Scheme) -> int:
    if scheme is Scheme.PROPOSED and cfg.traffic.scenario is Scenario.EMERGENCY:
        return adaptive_slots(cfg).n_practical
    return cfg.frame.n_slots


def _per_device_power(cfg: SystemConfig, scheme: Scheme, counts: np.ndarray) -> np.ndarray:
    """Per-packet transmit power of each device under a scheme.

    PROPOSED and BASELINE give every packet the equal split
    ``cfg.mean_packet_power()``, read once per call, so once per block.
    """
    p_max = cfg.power.p_max
    if scheme is Scheme.NAS:
        return np.full(counts.shape, p_max)
    if scheme is Scheme.TPDS:
        return np.where(counts > 0, p_max / np.maximum(counts, 1), 0.0)
    return np.full(counts.shape, cfg.mean_packet_power())


def run_frame(
    cfg: SystemConfig,
    scheme: Scheme,
    rng: np.random.Generator,
    sinr_rule: str = "conservative",
) -> FrameStats:
    """Simulate one transmission frame and aggregate its decode outcomes.

    The frame is a block of one, drawn from ``rng`` as frame i of
    ``estimate_coverage`` draws from its (seed, i) stream, with the same
    scheme slot count and per-packet powers.
    """
    _check_sinr_rule(sinr_rule)
    n_slots = _scheme_n_slots(cfg, scheme)
    block = _draw_block(cfg, scheme, [rng], n_slots)
    decoded, collisions, below, blocked = (
        int(c) for c in _decode_block(cfg, block, n_slots, sinr_rule)[0]
    )
    generated = int(block.counts.sum())
    dropped = int(block.dropped[0])
    return FrameStats(
        n_slots=n_slots,
        packets_generated=generated,
        packets_transmitted=generated - dropped,
        packets_decoded=decoded,
        packets_dropped=dropped,
        collision_failures=collisions,
        threshold_failures=below,
        blocked_failures=blocked,
    )


def _frame_rng(seed: int, frame_index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(frame_index,))
    )


def _coverage_worker(args) -> tuple[int, ...]:
    """Frame sums over frames [start, stop), drawn and decoded block by block.

    Returns (Σg, Σd, dropped, Σg², Σd², Σgd, collided, below threshold,
    blocked) with g and d the packets generated and decoded per frame,
    all exact integers.
    """
    cfg, scheme, seed, start, stop, n_slots, sinr_rule = args
    frame_draws = cfg.traffic.n_active * (1 + n_slots)
    size = max(1, min(_BLOCK_FRAMES, _BLOCK_DRAWS // frame_draws))
    sums = [0] * 9
    for lo in range(start, stop, size):
        rngs = [_frame_rng(seed, i) for i in range(lo, min(lo + size, stop))]
        block = _draw_block(cfg, scheme, rngs, n_slots)
        outcomes = _decode_block(cfg, block, n_slots, sinr_rule)
        g = block.counts.sum(axis=1)
        d = outcomes[:, 0]
        values = (g.sum(), d.sum(), block.dropped.sum(), g @ g, d @ d, g @ d,
                  *outcomes[:, 1:].sum(axis=0))
        for i, v in enumerate(values):
            sums[i] += int(v)
    return tuple(sums)


def _clustered_ci(n: int, g: int, d: int, gg: int, dd: int, gd: int) -> float:
    """95% halfwidth of the ratio estimator d/g over n iid frames.

    Var = n/(n-1) * Σ(d_i - p g_i)² / G² with p = D/G; the residual sum
    scaled by G², G²Σd² - 2GDΣgd + D²Σg², is exact in integers.
    """
    if n < 2:
        return math.nan
    residual = g * g * dd - 2 * g * d * gd + d * d * gg
    return 1.96 * math.sqrt(n / (n - 1) * residual) / (g * g)


def estimate_coverage(
    cfg: SystemConfig,
    scheme: Scheme,
    n_frames: int,
    seed: int,
    n_workers: int = 1,
    sinr_rule: str = "conservative",
) -> CoverageEstimate:
    """Empirical coverage over independent frames.

    Frame i draws its stream from (seed, i), so the result is identical
    for any worker count or chunking.  The confidence halfwidth is the
    95% normal approximation of the ratio estimator with frames as the
    iid unit (packets of one frame share its deployment and traffic).
    The estimate and its halfwidth are NaN when no packet was generated;
    the halfwidth is NaN for a single frame too.  The scheme's slot count
    is derived once per estimate; each block reads the per-packet power and
    the code pool from ``cfg`` itself.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    _check_sinr_rule(sinr_rule)
    n_slots = _scheme_n_slots(cfg, scheme)

    chunk = n_frames if n_workers <= 1 else max(1, math.ceil(n_frames / (4 * n_workers)))
    tasks = [
        (cfg, scheme, seed, start, min(start + chunk, n_frames), n_slots, sinr_rule)
        for start in range(0, n_frames, chunk)
    ]
    if n_workers <= 1:
        parts = [_coverage_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool_exec:
            parts = list(pool_exec.map(_coverage_worker, tasks))
    generated, decoded, dropped, gg, dd, gd, collided, below, blocked = (
        sum(col) for col in zip(*parts)
    )

    if generated == 0:
        p_hat = ci = math.nan
    else:
        p_hat = decoded / generated
        ci = _clustered_ci(n_frames, generated, decoded, gg, dd, gd)
    return CoverageEstimate(
        p_hat=p_hat,
        ci_halfwidth=ci,
        n_frames=n_frames,
        packets_generated=generated,
        packets_decoded=decoded,
        packets_dropped=dropped,
        collision_failures=collided,
        threshold_failures=below,
        blocked_failures=blocked,
    )
