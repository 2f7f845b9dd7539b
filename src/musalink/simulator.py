"""Monte Carlo link-level simulator of the grant-free uplink.

Samples device deployments, bursty traffic, slot and spreading-code
choices and per-subcarrier Rayleigh fading, then runs the successive
interference cancellation receiver on every occupied slot.

Frame i draws from its own stream, seeded by (seed, i), in a fixed
order: packet counts (emergency only), then one ``random`` call holding
the radii and the (n_devices, n_slots) slot keys whose row-wise argsort
gives each device's slots, one ``integers`` call for every code, and one
``standard_normal`` call for all fading, the (2, n_packets, J) real and
imaginary parts.  A block of frames is drawn at once: only the
generator calls run per frame; the argsort, radii, powers and
de-interleaving run once on the stacked block.  Estimates are therefore
reproducible bit for bit regardless of how frames are distributed over
workers or blocks.  ``_draw_block`` is the one draw the package ships;
the per-frame laws it is tested against, ``sample_deployment`` and
``assign_slots_codes``, are in ``tests/oracles.py``.

The receiver is batched: ``estimate_coverage`` decodes a block of frames
at once.  Collisions are found with one ``unique`` over (slot, code)
keys; each occupied slot becomes a row of packets, singletons nearest
first and collided packets last, and iteration t of a slot tests its
column t against the undecoded set of columns t..K-1.  By the
push-through identity W = P^½Gᴴ(GPGᴴ + σ²I)⁻¹ a set needs the inverse of
one J x J matrix, and the sets of a row grow by one column as t falls,
so one backward sweep over t, a Sherman-Morrison update per step run
over all rows at once, gives the SINR of every iteration of every slot
without a linear solve.  This is the one receiver the package ships;
the scalar one-slot receiver it is tested against, an m x m solve per
cancellation step (``mmse_weights`` and ``sic_decode``), is in
``tests/oracles.py``.

Two SINR bookkeeping rules are available for the cancellation receiver:

``conservative`` (default)
    Signal and noise are the target's MMSE output; the interference is
    the sum of every other undecoded device's own MMSE output power
    (its diagonal term of W·G) in place of its leakage into the
    target's output.  It bounds the exact post-MMSE SINR of
    ``post_mmse`` neither way: with one subcarrier and a pool of 4 codes
    it decodes more packets (0.085 against 0.069 at (n_active, lambda,
    n_slots) = (20, 4, 20), 10 000 frames, seed 100), with the default
    four subcarriers far fewer (0.507 against 0.985 at (10, 2, 20), 4000
    frames).

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
from typing import NamedTuple

import numpy as np

from .config import Scheme, SystemConfig
from .optimizer import scheme_slots

__all__ = [
    "CoverageEstimate",
    "code_pool",
    "estimate_coverage",
]


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

    ``TrafficParams.packet_counts`` draws a frame's counts; the rest of
    its stream is one ``random(n·(1 + S))`` call, the n radii then the
    (n, S) slot keys whose row-wise argsort gives each device's slots,
    one ``integers`` call for every code, and ``standard_normal((2, N,
    J))`` for the fading.  Only these generator calls run per frame;
    sorting, indexing and powers run once on the stacked block.  The
    per-frame laws in ``tests/oracles.py`` (``sample_deployment`` then
    ``assign_slots_codes``) read the same doubles in the same order.
    """
    n, j = cfg.traffic.n_active, cfg.frame.n_subcarriers
    counts = np.empty((len(rngs), n), dtype=np.int64)
    u = np.empty((len(rngs), n * (1 + n_slots)))  # per frame: radii, then (n, S) keys
    for f, rng in enumerate(rngs):
        counts[f] = cfg.traffic.packet_counts(rng)
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
        powers=cfg.packet_power(scheme, counts),
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
    the arithmetic of the scalar receiver in ``tests/oracles.py``;
    entries past K_b are 0.

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
    channel *= np.sqrt(cfg.path_gain(radius))[:, None]

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
class CoverageEstimate:
    p_hat: float
    ci_halfwidth: float   # 95% normal approximation, frames as the iid unit
    packets_generated: int
    packets_decoded: int
    packets_dropped: int
    # transmitted packets not decoded, by cause; with packets_decoded they
    # add up to packets_generated - packets_dropped
    collision_failures: int
    threshold_failures: int
    blocked_failures: int


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
    n_slots = scheme_slots(cfg, scheme)

    chunk = n_frames if n_workers <= 1 else max(1, math.ceil(n_frames / (4 * n_workers)))
    tasks = [
        (cfg, scheme, seed, start, min(start + chunk, n_frames), n_slots, sinr_rule)
        for start in range(0, n_frames, chunk)
    ]
    workers = min(n_workers, len(tasks))
    if workers <= 1:
        parts = [_coverage_worker(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
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
        packets_generated=generated,
        packets_decoded=decoded,
        packets_dropped=dropped,
        collision_failures=collided,
        threshold_failures=below,
        blocked_failures=blocked,
    )
