"""Monte Carlo link-level simulator of the grant-free uplink.

Samples device deployments, bursty traffic, slot and spreading-code
choices and per-subcarrier Rayleigh fading, then runs the successive
interference cancellation receiver on every occupied slot.  A run's
config carries the slots its scheme runs: ``check_frame_budget`` resolves
the scheme's slot rule (``optimizer.scheme_slots``) into
``frame.n_slots`` once per point, and every step after reads it there.

``estimate_coverages`` runs a command's points as one job: it checks
every (config, scheme) point once, before any draw, then maps one task
list of (point, block) pairs in this process or over at most one
process pool, and none when the points total one block.
``estimate_coverage`` is its one-point case.

A run's frames are split into blocks of B frames, B the size
``check_frame_budget`` returns from the config alone: block b holds
frames [b·B, (b+1)·B), the last block what is left.  Block b draws from
its own generator, ``np.random.default_rng(np.random.SeedSequence(seed,
spawn_key=(b,)))`` (``block_rng`` in ``tests/oracles.py``), in four
bulk calls: the (F, n_active) packet counts (emergency only), one
``random`` call of F rows, each a frame's radii and its (n_active,
n_slots) slot keys, whose row-wise argsort gives each device's slots,
one ``integers`` call for the codes of the block's K packets sent,
frame-major, and one ``standard_normal`` call for their fading, the (2,
K, J) real and imaginary parts.  The argsort, radii and powers run once
on the block.  Each block returns its frames' exact integer sums as a
``FrameSums``, and the estimate is computed from their sum alone, so it
is the same bit for bit however the blocks spread over workers.  B is
part of the stream definition: a change of the block budget moves every
simulated number.
``_draw_block`` is the one draw the package ships; the block oracle it
is tested against, ``block_draws``, which applies the per-frame laws
``sample_deployment`` and ``assign_slots_codes`` to each frame's rows of
the same four calls, is in ``tests/oracles.py``.

The receiver is batched: a task decodes its block of frames at once.
Collisions are found with one argsort of the (slot, code) keys; it need
not be stable, since every packet of a run of equal keys is flagged, in
whatever order the run comes.  Each occupied slot
becomes a row of packets, singletons nearest first and collided packets
last, and iteration t of a slot tests its column t against the
undecoded set of columns t..K-1.  The rows are laid out batch-last,
(depth, J, rows), and right-aligned: column t of a row of depth K sits
at position t + (D - K) of the block's deepest depth D, so the undecoded
set of every row still in play at position p is exactly positions
p..D-1, and no step of the sweep below touches the padding.  Each row's
counts are summed into its frame by ``bincount``.  The receiver works in
units of the noise: an MMSE SINR depends on the powers and the noise
only through each packet's SNR, so every channel is scaled once to
h = √(p/σ²)·g.  By the push-through identity W = Hᴴ(HHᴴ + I)⁻¹ a set
needs the inverse of one J x J matrix, and the sets of a row grow by
one column as the position falls, so one backward sweep from R⁻¹ = I, a
Sherman-Morrison update per step run over all rows at once, gives the
SINR of every iteration of every slot without a linear solve.  The
sweep takes one step per packet of the block's deepest slot, and its
projections run over real packets only: Σ K_b(K_b + 1)/2 per block
over its rows b.  This is
the one receiver the package ships; the scalar one-slot receiver it is
tested against, an m x m solve per cancellation step in watts
(``mmse_weights`` and ``sic_decode``), is in ``tests/oracles.py``.

Two SINR bookkeeping rules are available for the cancellation receiver:

``conservative`` (default)
    Signal and noise are the target's MMSE output; the interference is
    the sum of every other undecoded device's own MMSE output power
    (its diagonal term of W·H) in place of its leakage into the
    target's output.  As the SNR γ grows, the first of m ≤ J
    well-separated undecoded packets tends to a SINR of 1/(m - 1), where
    ``post_mmse``'s grows with γ: at the default θ = 1 a remainder of 3
    or 4 packets fails, and one of 2 is decided by an O(1/γ) term.

``post_mmse``
    Textbook post-detection SINR using the cross projections of the
    target's weight row onto the interferers' channels.  Optimistic
    relative to the analytical model; kept for A/B comparison.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ConfigError, Scheme, SystemConfig, with_values
from .optimizer import scheme_slots

__all__ = [
    "CoverageEstimate",
    "check_frame_budget",
    "code_pool",
    "estimate_coverage",
    "estimate_coverages",
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
        chosen = rng.permutation(total)[:pool_size]
        digits = (chosen[:, None] >> 2 * np.arange(n_subcarriers)) & 3  # base-4, (size, J)
        raw = _CODE_ALPHABET[digits]
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

# Frames drawn and decoded together by a task.  A frame costs the
# doubles it holds at most: its n_active·(1 + n_slots) radii and slot
# keys (with them the keys' argsort and mask), two complex J-vectors, the
# fading and the channel, for each of its at most n_active·n_slots
# packets, and the receiver's complex J x J inverse for each slot row.
# _BLOCK_DRAWS bounds a block's cost (8 MB of doubles).  _BLOCK_FRAMES
# bounds what grows with the block's slots times its deepest slot, the
# padded slot rows of _decode_block and _sweep_sinr; it is the cap that
# binds at the usual configs.  A block holds at least one frame, so
# _FRAME_DRAWS refuses a frame that alone costs more than 512 MiB.  The
# block size these give, B, is part of the stream definition: block b of
# a run draws frames [b·B, (b+1)·B) from the generator of (seed, b), so
# changing either budget moves every simulated number.
_BLOCK_FRAMES = 256
_BLOCK_DRAWS = 1 << 20
_FRAME_DRAWS = 64 * _BLOCK_DRAWS


class _Block(NamedTuple):
    """The random draws of a block of F frames and the powers they imply.

    Device rows and slots are frame-major, packets device-major:
    ``device`` indexes the F·n_active device rows, ``slot`` the F·n_slots slots.
    """
    counts: np.ndarray    # (F, n_active) packets generated per device
    radii: np.ndarray     # (F, n_active) m
    powers: np.ndarray    # (F, n_active) W per packet
    device: np.ndarray    # (N,) device row of each packet
    slot: np.ndarray      # (N,) slot id, frame·n_slots + slot within the frame
    code: np.ndarray      # (N,) code index
    fading: np.ndarray    # (N, J) complex CN(0, 1) per packet and subcarrier


def _draw_block(cfg: SystemConfig, scheme: Scheme, rng: np.random.Generator,
                n_frames: int) -> _Block:
    """Draw a block of ``n_frames`` frames, S = ``cfg.frame.n_slots`` slots
    each, from the block's generator ``rng``.

    Four bulk calls, in the order the module docstring states; every
    random call precedes ``packet_power``, so schemes at one slot count
    draw the same arrays but the powers.  Sorting, indexing and powers
    run once on the block.  The block oracle in ``tests/oracles.py``
    makes the same four calls and applies the per-frame laws
    (``sample_deployment`` then ``assign_slots_codes``) to each frame's
    rows.
    """
    n, j, n_slots = cfg.traffic.n_active, cfg.frame.n_subcarriers, cfg.frame.n_slots
    counts = cfg.traffic.packet_counts(rng, n_frames)
    u = rng.random((n_frames, n * (1 + n_slots)))  # per frame: radii, then (n, S) keys
    tx = np.minimum(counts, n_slots)
    device = np.repeat(np.arange(counts.size), tx.ravel())
    code = rng.integers(0, cfg.frame.code_pool_size, size=len(device))
    z = rng.standard_normal((2, len(device), j))  # real and imaginary parts
    # bit for bit (re + 1j*im) / sqrt(2), without the complex temporaries
    fading = np.empty(z.shape[1:], dtype=complex)
    fading.real = z[0]
    fading.imag = z[1]
    fading /= math.sqrt(2.0)
    keys = u[:, n:].reshape(-1, n_slots)
    slot = np.argsort(keys, axis=1)[np.arange(n_slots) < tx.reshape(-1, 1)]
    return _Block(
        counts=counts,
        radii=cfg.geometry.cell_radius * np.sqrt(u[:, :n]),
        powers=cfg.packet_power(scheme, counts),
        device=device,
        slot=slot + device // n * n_slots,
        code=code,
        fading=fading,
    )


# ‖u‖² = 0 only when h_t = 0, a packet that reaches no θ > 0: its 0/0 SINR fails
@np.errstate(invalid="ignore")
def _sweep_sinr(h: np.ndarray, depth: np.ndarray, sinr_rule: str) -> np.ndarray:
    """SINR of every cancellation iteration of B slot rows, in one sweep.

    The rows are batch-last and right-aligned: ``h[:, :, b]`` (D, J) holds
    the channels of row b's K_b = ``depth[b]`` packets in decoding order
    at positions D-K_b..D-1, zero before them, each in units of the
    noise: h = √(p/σ²)·g for a packet of power p and effective channel
    g.  Rows are sorted deepest first.  Entry (p, b) of the (D, B) result
    is the SINR of the packet at position p of row b, its column
    t = p - (D - K_b), against the undecoded set t..K_b-1, positions
    p..D-1, by the arithmetic of the scalar receiver in
    ``tests/oracles.py``; entries before D-K_b are 0.

    An MMSE SINR depends on the powers and the noise only through h, and
    by the push-through identity the weight rows of a set are
    W = Hᴴ R⁻¹ with R = HHᴴ + I_J, so a set needs the inverse of one
    J x J matrix, not an m x m solve.  The set at position p adds that
    position to the set at p + 1, so sweeping p from D-1 down to 0 from
    R⁻¹ = I takes one Sherman-Morrison update of R⁻¹ per step, an update
    never a downdate: its denominator δ = 1 + s is at least 1.  With
    u = R_{p+1}⁻¹h_p and s = h_pᴴu:

    ``conservative``
        s² / (δ²·Σ_{i>p} q_i² + ‖u‖²), where q_i = h_iᴴR_p⁻¹h_i is kept
        by q_i -= |uᴴh_i|²/δ; as γ grows, column 0 of m separable
        packets tends to 1/(m - 1), each q_i to 1;
    ``post_mmse``
        s² / (Σ_{i>p} |uᴴh_i|² + ‖u‖²).

    Step p touches only the rows with K_b >= D - p, a prefix of the
    rows, whose undecoded sets are all of positions p..D-1: each of its
    products runs over contiguous runs of those rows and over their real
    packets only, Σ K_b(K_b + 1)/2 projections in all.  A row runs the same
    rank-1 updates in the same order whatever the other rows, and no
    update follows the last step.  ``q`` has at least two columns, so
    the Σq² of a step with one row in play is a strided column, summed
    in the same order as a wider step sums it: a contiguous (k, 1)
    column would take numpy's dot path and move the last digits.  A
    row's SINRs under either rule are thus the same bits in any block.
    """
    d, j, n_rows = h.shape
    r_inv = np.zeros((j, j, n_rows), dtype=complex)
    r_inv[np.arange(j), np.arange(j)] = 1.0
    q = np.zeros((d, max(n_rows, 2)))
    sinr = np.zeros((d, n_rows))
    width = np.searchsorted(-depth, np.arange(1 - d, 1))  # rows with K_b >= D - p
    for p in range(d - 1, -1, -1):
        b = width[p]
        u = np.einsum("ijb,jb->ib", r_inv[:, :, :b], h[p, :, :b])
        u_h = u.conj()
        proj = np.einsum("jb,kjb->kb", u_h, h[p:, :, :b])  # u^H h_i for i >= p
        s = proj[0].real
        cross = proj.real[1:] ** 2 + proj.imag[1:] ** 2
        noise = np.einsum("jb,jb->b", u_h, u).real
        delta = 1.0 + s
        if sinr_rule == "conservative":
            q_rest = q[p + 1:, :b]
            q_rest -= cross / delta
            q[p, :b] = s / delta  # h_p^H R_p^-1 h_p
            interference = delta**2 * np.einsum("kb,kb->b", q_rest, q_rest)
        else:
            # in column order at any width, as a step of many rows adds it:
            # sum() adds a step of one row pairwise, other last digits
            interference = np.cumsum(cross, axis=0)[-1] if len(cross) else 0.0
        sinr[p, :b] = s * s / (interference + noise)
        if p:
            r_inv[:, :, :b] -= (u / delta)[:, None] * u_h
    return sinr


def _decode_block(cfg: SystemConfig, block: _Block, sinr_rule: str) -> np.ndarray:
    """Run the cancellation receiver on every slot of a block of frames.

    Returns the (F, 4) per-frame counts of packets decoded,
    collided, below threshold and blocked by a stronger user.  The
    receiver works in units of the noise: each packet's channel is its
    fading times its code scaled by √snr, the received SNR
    path_gain·power/σ² of its device row.  A packet collides when
    another of its slot has its code: one argsort of the (slot, code)
    keys puts such packets next to each other, and flags every packet of
    a run of equal keys, so the sort need not be stable.  Each occupied
    slot is a row [singletons nearest first, then collided], rows sorted
    deepest first; the channels are built in that row order and laid out
    batch-last and right-aligned for ``_sweep_sinr``, row b's column t at
    position t + pad_b with pad_b = D - K_b.  One backward sweep over the
    rows of two or more packets gives the SINR of every iteration t
    against the undecoded set row[t:K]; a lone packet keeps the matched
    filter against noise, its SINR ‖h‖².  A slot passes the leading run
    of its singletons whose SINR reaches the threshold, counted over the
    positions with the padding taken as passed and then pad_b taken off;
    a failure blocks the slot's remaining singletons.  Each row's counts
    are summed into its frame by ``bincount``.
    """
    pool = code_pool(cfg.frame.n_subcarriers, cfg.frame.code_pool_size)
    n_frames, n_active = block.counts.shape
    if len(block.device) == 0:
        return np.zeros((n_frames, 4), dtype=np.int64)
    code, slot = block.code, block.slot
    pair = slot * len(pool) + code
    by_pair = np.argsort(pair)  # a run of equal keys is flagged whole in any order
    sorted_pair = pair[by_pair]
    shared = np.zeros(len(pair) + 1, dtype=bool)  # sorted entries i - 1 and i share a key
    shared[1:-1] = sorted_pair[1:] == sorted_pair[:-1]
    collided = np.empty(len(pair), dtype=bool)
    collided[by_pair] = shared[:-1] | shared[1:]
    # one integer key sorts packets by (-depth, slot, collided, radius):
    # rows deepest first; in a row singletons nearest first, ties between
    # equal radii going to the lower device row
    depth = np.bincount(slot)[slot]
    nearness = np.empty(block.radii.size, dtype=np.int64)
    nearness[np.argsort(block.radii, axis=None, kind="stable")] = np.arange(block.radii.size)
    key = (slot - depth * (int(slot.max()) + 1)) * 2 + collided
    order = np.argsort(key * block.radii.size + nearness[block.device])
    device = block.device[order]
    snr = cfg.path_gain(block.radii) * block.powers / cfg.channel.noise_power
    channel = block.fading[order] * pool[code[order]]  # in units of the noise, in row order
    channel *= np.sqrt(snr).ravel()[device][:, None]
    row_slot = slot[order]
    first = np.flatnonzero(np.concatenate(([True], row_slot[1:] != row_slot[:-1])))
    ends = np.append(first, len(order))
    k = np.diff(ends)
    singles = np.add.reduceat((~collided[order]).astype(np.int64), first)

    theta = cfg.reliability.sinr_threshold
    n_multi = np.count_nonzero(k > 1)
    cut = ends[n_multi]  # packets of the rows of two or more
    row = np.repeat(np.arange(n_multi), k[:n_multi])
    pad = k[0] - k[:n_multi]
    # right-aligned: column t of a row of depth K at position t + (D - K)
    h = np.zeros((k[0], channel.shape[1], n_multi), dtype=complex)
    h[np.arange(cut) - first[row] + pad[row], :, row] = channel[:cut]
    sinr = _sweep_sinr(h, k[:n_multi], sinr_rule)
    position = np.arange(k[0])[:, None]
    # the padding passes, then a row's singletons must reach the threshold
    ok = (position < pad) | ((sinr >= theta) & (position < pad + singles[:n_multi]))
    lone = channel[cut:]
    passed = np.concatenate((
        np.logical_and.accumulate(ok, axis=0).sum(axis=0) - pad,
        np.sum(lone.real**2 + lone.imag**2, axis=1) >= theta,
    ))
    failed = passed < singles

    blocked = np.where(failed, singles - passed - 1, 0)
    frame = device[first] // n_active
    per_row = (passed, k - singles, failed, blocked)
    # float sums of counts below 2^53 are exact
    return np.column_stack(
        [np.bincount(frame, weights=count, minlength=n_frames) for count in per_row]
    ).astype(np.int64)


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
    n_slots: int          # slots per frame the scheme ran (optimizer.scheme_slots)


class FrameSums(NamedTuple):
    """Exact integer sums over frames, g and d the packets generated and decoded per frame."""
    frames: int = 0
    generated: int = 0    # Σg
    decoded: int = 0      # Σd
    dropped: int = 0
    gg: int = 0           # Σg²
    dd: int = 0           # Σd²
    gd: int = 0           # Σgd
    collided: int = 0
    below: int = 0
    blocked: int = 0

    def __add__(self, other: FrameSums) -> FrameSums:
        return FrameSums(*(a + int(b) for a, b in zip(self, other)))  # numpy ints become exact ints

    def estimate(self, n_slots: int) -> CoverageEstimate:
        """The ratio D/G and its 95% halfwidth with frames as the iid unit.

        Var = n/(n-1) * Σ(d_i - p g_i)² / G² with p = D/G; the residual sum
        scaled by G², G²Σd² - 2GDΣgd + D²Σg², is exact in integers.  Both
        are NaN without a packet, the halfwidth for one frame too.
        """
        n, g, d = self.frames, self.generated, self.decoded
        p_hat = d / g if g else math.nan
        ci = math.nan
        if g and n > 1:
            residual = g * g * self.dd - 2 * g * d * self.gd + d * d * self.gg
            ci = 1.96 * math.sqrt(n / (n - 1) * residual) / (g * g)
        return CoverageEstimate(
            p_hat=p_hat, ci_halfwidth=ci, packets_generated=g, packets_decoded=d,
            packets_dropped=self.dropped, collision_failures=self.collided,
            threshold_failures=self.below, blocked_failures=self.blocked, n_slots=n_slots)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _coverage_worker(seed, sinr_rule, errors, n_frames, task) -> tuple[int, FrameSums]:
    """Point ``i`` and the sums over block ``b`` of its run of ``n_frames``
    frames in blocks of ``size``, ``task = (i, cfg, scheme, size, b)``,
    drawn from ``default_rng(SeedSequence(seed, spawn_key=(b,)))`` and
    decoded at once, under the caller's ``np.geterr()`` ``errors``: a
    spawned or forkserver worker starts at numpy's defaults."""
    i, cfg, scheme, size, b = task
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
    with np.errstate(**errors):
        block = _draw_block(cfg, scheme, rng, min(size, n_frames - b * size))
        outcomes = _decode_block(cfg, block, sinr_rule)
    g = block.counts.sum(axis=1)
    d, collided, below, blocked = outcomes.T
    return i, FrameSums(
        frames=len(g), generated=g.sum(), decoded=d.sum(),
        dropped=g.sum() - len(block.device), gg=g @ g, dd=d @ d, gd=g @ d,
        collided=collided.sum(), below=below.sum(), blocked=blocked.sum())


def check_frame_budget(cfg: SystemConfig, scheme: Scheme) -> tuple[SystemConfig, int]:
    """The run's config, ``scheme``'s slot rule (``optimizer.scheme_slots``)
    resolved into its ``frame.n_slots``, and the frames B a block holds
    within its budget, from the config alone, before anything is drawn.
    B is part of the run's stream definition: block b holds frames
    [b·B, (b+1)·B).

    Raises the ``ConfigError`` :func:`estimate_coverages` raises, before
    any point is drawn, for a point's frame that costs more than
    ``_FRAME_DRAWS`` doubles or its code pool that holds more, and the
    ``InfeasibleError`` of a slot rule that has no slot count.
    """
    cfg = with_values(cfg, {"frame.n_slots": scheme_slots(cfg, scheme)})
    n, j, n_slots = cfg.traffic.n_active, cfg.frame.n_subcarriers, cfg.frame.n_slots
    draws = n * (1 + n_slots)
    cost = draws + 2 * j * n_slots * (2 * n + j)
    if cost > _FRAME_DRAWS:
        raise ConfigError(
            f"one frame draws n_active * (1 + n_slots) = {draws} values and holds"
            f" {cost - draws} more for its {j} subcarriers, {cost} in all,"
            f" above the {_FRAME_DRAWS} a frame may hold"
        )
    # the code pool is built whole before any block, a complex J-vector per
    # code (one code at a time above 4^8 codes); no frame's cost counts it
    pool = 2 * j * cfg.frame.code_pool_size
    if pool > _FRAME_DRAWS:
        raise ConfigError(
            f"the code pool holds 2 * n_subcarriers * code_pool_size = {pool} values,"
            f" above the {_FRAME_DRAWS} a frame may hold"
        )
    return cfg, max(1, min(_BLOCK_FRAMES, _BLOCK_DRAWS // cost))


def estimate_coverages(
    points: list[tuple[SystemConfig, Scheme]],
    n_frames: int,
    seed: int,
    n_workers: int = 1,
    sinr_rule: str = "conservative",
) -> list[CoverageEstimate]:
    """Empirical coverage of each ``(cfg, scheme)`` point, ``n_frames``
    independent frames each, as one job.

    ``check_frame_budget`` resolves each point's slot rule into its run's
    config, whose ``frame.n_slots`` the draws and the reported ``n_slots``
    read, and gives its block size B, for every point in list order before
    anything is drawn: a later point's refusal comes before an earlier
    point's first frame.  Each point's frames are split once, into blocks
    of its B, the last one partial; block b draws from its own generator,
    ``default_rng(SeedSequence(seed, spawn_key=(b,)))``, and returns the
    exact ``FrameSums`` of its frames, added to its point's sum as it
    arrives.  An estimate, ``FrameSums.estimate`` of that sum, is thus the
    same for any worker count, chunking or order of the blocks, and for
    any other points in the list.  One task list, point-major, holds every
    (point, block) pair and runs in this process or over one pool: at most
    as many workers start as this process may use CPUs, and as there are
    tasks, so points that total one block start none.  A seed that is not
    an integer raises ``TypeError``, a negative one ``ValueError``, before
    any draw.
    """
    seed = operator.index(seed)
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    _check_sinr_rule(sinr_rule)
    runs = [(scheme, *check_frame_budget(cfg, scheme)) for cfg, scheme in points]

    tasks = [(i, cfg, scheme, size, b) for i, (scheme, cfg, size) in enumerate(runs)
             for b in range(-(-n_frames // size))]
    work = functools.partial(_coverage_worker, seed, sinr_rule, np.geterr(), n_frames)
    sums = [FrameSums()] * len(points)
    workers = min(n_workers, len(tasks))
    if workers > 1:  # a pool starts all its processes at the first task
        workers = min(workers, _usable_cpus())
    if workers <= 1:
        for i, part in map(work, tasks):
            sums[i] += part
    else:
        # about four tasks per worker: a task per block costs its round trip
        chunk = math.ceil(len(tasks) / (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool_exec:
            for i, part in pool_exec.map(work, tasks, chunksize=chunk):
                sums[i] += part
    return [total.estimate(cfg.frame.n_slots) for total, (_, cfg, _) in zip(sums, runs)]


def estimate_coverage(
    cfg: SystemConfig,
    scheme: Scheme,
    n_frames: int,
    seed: int,
    n_workers: int = 1,
    sinr_rule: str = "conservative",
) -> CoverageEstimate:
    """Empirical coverage over independent frames: the one-point case of
    :func:`estimate_coverages`, with its checks and errors.  A run shorter
    than two blocks uses one worker."""
    return estimate_coverages([(cfg, scheme)], n_frames, seed, n_workers, sinr_rule)[0]
