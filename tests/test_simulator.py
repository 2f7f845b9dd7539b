"""Link-level simulator: sampling laws, receiver micro-oracles, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

from musalink.analytic import collision_free_prob
from musalink import simulator
from musalink.config import Scenario, Scheme, SystemConfig, default_config, slot_occupancy_prob
from musalink.optimizer import adaptive_slots, scheme_slots
from musalink.simulator import (
    _decode_block,
    _draw_block,
    _frame_rng,
    code_pool,
    estimate_coverage,
)

from conftest import reference_config
from oracles import (
    FailureCause,
    SlotRealization,
    assign_slots_codes,
    mmse_weights,
    sample_deployment,
    sic_decode,
)


# ----------------------------------------------------------------------------
#  Code pool
# ----------------------------------------------------------------------------

# 4^9 > 2^16 codes: the pool is drawn by rejection sampling, not a permutation
POOL_SHAPES = [(4, 64), (9, 64)]


@pytest.mark.parametrize("n_subcarriers,pool_size", POOL_SHAPES)
def test_code_pool_unit_norm_and_distinct(n_subcarriers, pool_size):
    pool = code_pool(n_subcarriers, pool_size)
    assert pool.shape == (pool_size, n_subcarriers)
    norms = np.linalg.norm(pool, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    as_tuples = {tuple(np.round(row * math.sqrt(2 * n_subcarriers), 6)) for row in pool}
    assert len(as_tuples) == pool_size


@pytest.mark.parametrize("n_subcarriers,pool_size", POOL_SHAPES)
def test_code_pool_deterministic(n_subcarriers, pool_size):
    a = code_pool(n_subcarriers, pool_size)
    b = code_pool.__wrapped__(n_subcarriers, pool_size)
    assert np.array_equal(a, b)


def test_code_pool_memoised_read_only():
    pool = code_pool(4, 64)
    assert code_pool(4, 64) is pool
    assert not pool.flags.writeable
    with pytest.raises(ValueError):
        pool[0, 0] = 0
    fresh = code_pool.__wrapped__(4, 64)
    assert fresh is not pool
    assert np.array_equal(fresh, pool)


def test_code_pool_rejects_oversized():
    with pytest.raises(ValueError):
        code_pool(2, 64)  # only 16 distinct quaternary vectors of length 2


# ----------------------------------------------------------------------------
#  Sampling laws
# ----------------------------------------------------------------------------

def test_deployment_empty():
    rng = np.random.default_rng(0)
    assert sample_deployment(0, 50.0, rng).size == 0


def test_deployment_radial_cdf():
    rng = np.random.default_rng(123)
    radii = sample_deployment(1_000_000, 50.0, rng)
    assert np.all(radii <= 50.0)
    result = sps.kstest(radii, lambda x: (x / 50.0) ** 2)
    assert result.statistic < 0.002


def test_traffic_non_emergency_single_packet():
    cfg = default_config()
    cfg = replace(cfg, traffic=replace(cfg.traffic, scenario=Scenario.NON_EMERGENCY))
    counts = cfg.traffic.packet_counts(np.random.default_rng(1))
    assert np.all(counts == 1)


def test_traffic_poisson_moments():
    cfg = reference_config(n_active=1_000_000, lam=4.0)
    counts = cfg.traffic.packet_counts(np.random.default_rng(7))
    n = counts.size
    mean = counts.mean()
    var = counts.var()
    assert abs(mean - 4.0) < 3.0 * math.sqrt(4.0 / n)
    # Poisson variance of the sample variance is approximately (2 lam^2 + lam)/n
    assert abs(var - 4.0) < 3.0 * math.sqrt((2 * 16.0 + 4.0) / n)


def test_traffic_zero_rate():
    cfg = reference_config(n_active=100, lam=0.0)
    cfg = replace(cfg, traffic=replace(cfg.traffic, lambda_min=0.0))
    assert np.all(cfg.traffic.packet_counts(np.random.default_rng(2)) == 0)


def test_assign_single_packet():
    assignments, dropped = assign_slots_codes(
        np.array([1]), 5, 64, np.random.default_rng(3)
    )
    assert dropped == 0
    assert len(assignments) == 1
    device, slot, code = assignments[0]
    assert device == 0 and 0 <= slot < 5 and 0 <= code < 64


def test_assign_clamps_excess_packets():
    assignments, dropped = assign_slots_codes(
        np.array([7]), 5, 64, np.random.default_rng(4)
    )
    assert dropped == 2
    slots = [slot for _, slot, _ in assignments]
    assert len(slots) == 5 and len(set(slots)) == 5


def test_assign_occupancy_matches_analytic():
    # one call over many independent devices = many single-device frames
    rng = np.random.default_rng(5)
    n_dev = 300_000
    counts = rng.poisson(4.0, n_dev)
    assignments, _ = assign_slots_codes(counts, 20, 64, rng)
    hits = sum(1 for _, slot, _ in assignments if slot == 0)
    empirical = hits / n_dev
    assert empirical == pytest.approx(slot_occupancy_prob(4.0, 20), abs=3e-3)


# ----------------------------------------------------------------------------
#  MMSE weights
# ----------------------------------------------------------------------------

def test_mmse_scalar_matched_filter_limit():
    w = mmse_weights(np.array([[1.0 + 0j]]), np.array([1.0]), 1e-12)
    assert w.shape == (1, 1)
    assert w[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_mmse_single_user_matched_direction():
    rng = np.random.default_rng(8)
    g = (rng.standard_normal(4) + 1j * rng.standard_normal(4)).reshape(4, 1)
    w = mmse_weights(g, np.array([2.0]), 0.3)[0]
    cosine = abs(np.vdot(w.conj(), g[:, 0])) / (
        np.linalg.norm(w) * np.linalg.norm(g)
    )
    assert cosine == pytest.approx(1.0, abs=1e-10)


def test_mmse_normal_equations_residual():
    rng = np.random.default_rng(9)
    for _ in range(5):
        g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        p = rng.uniform(0.5, 2.0, 3)
        sigma2 = 0.1
        wh = mmse_weights(g, p, sigma2)
        sqrt_p = np.sqrt(p)
        a = (sqrt_p[:, None] * (g.conj().T @ g)) * sqrt_p[None, :] + sigma2 * np.eye(3)
        residual = np.max(np.abs(a @ wh - sqrt_p[:, None] * g.conj().T))
        assert residual < 1e-10


# ----------------------------------------------------------------------------
#  SIC decoding
# ----------------------------------------------------------------------------

def make_manual_slot(fading, codes, path_gain, powers, radii):
    fading = np.asarray(fading, dtype=complex)
    codes = np.asarray(codes, dtype=complex)
    k = fading.shape[0]
    return SlotRealization(
        device_ids=np.arange(k),
        radii=np.asarray(radii, dtype=float),
        path_gain=np.asarray(path_gain, dtype=float),
        fading=fading,
        code_indices=np.arange(k),  # all distinct: no collisions
        code_vectors=codes,
        powers=np.asarray(powers, dtype=float),
    )


def test_sic_single_device_decodes():
    slot = make_manual_slot(
        fading=[[1.0 + 0j, 0.5 - 0.5j]],
        codes=[[1 / math.sqrt(2), 1 / math.sqrt(2)]],
        path_gain=[1.0],
        powers=[1.0],
        radii=[10.0],
    )
    outcome = sic_decode(slot, theta=1.0, noise_power=1e-3)
    assert outcome.decoded.tolist() == [True]
    assert outcome.failure_cause == (FailureCause.DECODED,)


def test_sic_shared_code_collision():
    slot = SlotRealization(
        device_ids=np.array([0, 1]),
        radii=np.array([5.0, 25.0]),
        path_gain=np.array([1.0, 1.0]),
        fading=np.array([[1.0 + 0j], [0.4 + 0.1j]]),
        code_indices=np.array([7, 7]),
        code_vectors=np.array([[1.0 + 0j], [1.0 + 0j]]),
        powers=np.array([1.0, 1.0]),
    )
    outcome = sic_decode(slot, theta=0.5, noise_power=1e-6)
    assert outcome.decoded.tolist() == [False, False]
    assert outcome.failure_cause == (FailureCause.COLLISION, FailureCause.COLLISION)
    assert outcome.sinr_trace == ()


def expected_sinr_chain(g, powers, sigma2, order):
    """Hand arithmetic for the conservative SINR trace, one decode at a time."""
    undecoded = list(range(g.shape[1]))
    sinrs = []
    for target in order:
        cols = list(undecoded)
        gu = g[:, cols]
        p = powers[cols]
        a = (
            np.diag(np.sqrt(p)) @ gu.conj().T @ gu @ np.diag(np.sqrt(p))
            + sigma2 * np.eye(len(cols))
        )
        wh = np.linalg.inv(a) @ (np.diag(np.sqrt(p)) @ gu.conj().T)
        ti = cols.index(target)
        own = [p[i] * abs(wh[i] @ gu[:, i]) ** 2 for i in range(len(cols))]
        noise = sigma2 * np.linalg.norm(wh[ti]) ** 2
        sinrs.append(own[ti] / (sum(own) - own[ti] + noise))
        undecoded.remove(target)
    return sinrs


def test_sic_three_device_hand_trace():
    # three singletons, third too weak: expect decode, decode, fail
    fading = np.array(
        [
            [1.2 + 0.3j, -0.4 + 0.9j],
            [0.8 - 0.6j, 0.3 + 0.4j],
            [0.05 + 0.02j, -0.03 - 0.04j],
        ]
    )
    codes = np.array(
        [
            [1 + 1j, 1 - 1j],
            [1 + 1j, -1 + 1j],
            [-1 - 1j, 1 + 1j],
        ]
    ) / 2.0
    path_gain = np.array([1.0, 0.6, 0.3])
    powers = np.array([1.0, 1.0, 1.0])
    radii = np.array([5.0, 15.0, 30.0])
    sigma2 = 0.01

    g = ((fading * codes) * np.sqrt(path_gain)[:, None]).T
    expected = expected_sinr_chain(g, powers, sigma2, order=[0, 1, 2])
    theta = 0.5
    assert expected[0] >= theta and expected[1] >= theta and expected[2] < theta

    slot = make_manual_slot(fading, codes, path_gain, powers, radii)
    outcome = sic_decode(slot, theta=theta, noise_power=sigma2)
    assert outcome.decoded.tolist() == [True, True, False]
    assert outcome.failure_cause == (
        FailureCause.DECODED,
        FailureCause.DECODED,
        FailureCause.BELOW_THRESHOLD,
    )
    got = [sinr for _, sinr in outcome.sinr_trace]
    assert got == pytest.approx(expected, abs=1e-9)
    assert [dev for dev, _ in outcome.sinr_trace] == [0, 1, 2]


def test_sic_blocked_devices_marked():
    # make the nearest device undecodable: everyone behind it is blocked
    fading = np.array([[0.01 + 0j], [1.0 + 0j], [1.0 + 0j]])
    codes = np.ones((3, 1), dtype=complex)
    slot = SlotRealization(
        device_ids=np.array([0, 1, 2]),
        radii=np.array([1.0, 2.0, 3.0]),
        path_gain=np.array([1.0, 1.0, 1.0]),
        fading=fading,
        code_indices=np.array([0, 1, 2]),
        code_vectors=codes,
        powers=np.array([1.0, 1.0, 1.0]),
    )
    outcome = sic_decode(slot, theta=10.0, noise_power=1e-3)
    assert outcome.decoded.sum() == 0
    assert outcome.failure_cause[0] is FailureCause.BELOW_THRESHOLD
    assert outcome.failure_cause[1] is FailureCause.BLOCKED_BY_STRONGER
    assert outcome.failure_cause[2] is FailureCause.BLOCKED_BY_STRONGER


def test_sic_decode_order_is_nondecreasing_distance():
    cfg = reference_config(n_active=20, lam=6.0)
    rng = np.random.default_rng(11)
    pool = code_pool(4, 64)
    for _ in range(50):
        counts = cfg.traffic.packet_counts(rng)
        radii = sample_deployment(cfg.traffic.n_active, 50.0, rng)
        assignments, _ = assign_slots_codes(counts, 20, 64, rng)
        per_slot = {}
        for device, slot_idx, code in assignments:
            per_slot.setdefault(slot_idx, []).append((device, code))
        for members in per_slot.values():
            ids = np.array([m[0] for m in members])
            codes = np.array([m[1] for m in members])
            k, j = len(ids), cfg.frame.n_subcarriers
            fading = (rng.standard_normal((k, j))
                      + 1j * rng.standard_normal((k, j))) / math.sqrt(2.0)
            slot = SlotRealization(
                device_ids=ids,
                radii=radii[ids],
                path_gain=cfg.path_gain(radii[ids]),
                fading=fading,
                code_indices=codes,
                code_vectors=pool[codes],
                powers=np.ones(k),
            )
            outcome = sic_decode(slot, theta=1.0, noise_power=1e-13)
            decoded_ids = [dev for dev, _ in outcome.sinr_trace][: int(outcome.decoded.sum())]
            dist = {int(d): float(r) for d, r in zip(slot.device_ids, slot.radii)}
            distances = [dist[d] for d in decoded_ids]
            assert distances == sorted(distances)


def test_sic_post_mmse_rule_is_more_permissive():
    cfg = reference_config(n_active=20, lam=8.0)
    _, base = decode_frame(cfg, Scheme.BASELINE, np.random.default_rng(13))
    _, optimistic = decode_frame(
        cfg, Scheme.BASELINE, np.random.default_rng(13), sinr_rule="post_mmse"
    )
    assert optimistic[0] >= base[0]
    with pytest.raises(ValueError):
        estimate_coverage(cfg, Scheme.BASELINE, 1, seed=13, sinr_rule="bogus")


# ----------------------------------------------------------------------------
#  Frames and schemes
# ----------------------------------------------------------------------------

def decode_frame(cfg, scheme, rng, sinr_rule="conservative"):
    """One frame's block drawn from ``rng`` at the scheme's slot count, and
    its [decoded, collided, below threshold, blocked] packet counts.
    """
    n_slots = scheme_slots(cfg, scheme)
    block = _draw_block(cfg, scheme, [rng], n_slots)
    return block, _decode_block(cfg, block, n_slots, sinr_rule)[0]


def test_vacuous_frame():
    cfg = reference_config(n_active=1, lam=0.0)
    cfg = replace(cfg, traffic=replace(cfg.traffic, lambda_min=0.0))
    block, counts = decode_frame(cfg, Scheme.NAS, np.random.default_rng(0))
    assert block.counts.sum() == 0
    assert counts[0] == 0
    assert block.dropped[0] == 0


def test_packet_power_rules(monkeypatch):
    cfg = reference_config(n_active=4, lam=4.0)
    counts = np.array([4, 1, 0, 2])
    p_max = cfg.power.p_max
    tpds = cfg.packet_power(Scheme.TPDS, counts)
    assert tpds == pytest.approx([p_max / 4, p_max, 0.0, p_max / 2])
    nas = cfg.packet_power(Scheme.NAS, counts)
    assert nas == pytest.approx([p_max] * 4)
    # PROPOSED and BASELINE: the receiver sees the analytics' equal split, bit for bit
    seen = []
    decode = simulator._decode_block

    def spy(cfg_, block, *rest):
        seen.extend(block.powers)
        return decode(cfg_, block, *rest)

    monkeypatch.setattr(simulator, "_decode_block", spy)
    for scheme in (Scheme.PROPOSED, Scheme.BASELINE):
        estimate_coverage(cfg, scheme, 3, seed=5)
    assert len(seen) == 6
    assert all(p.tolist() == [cfg.mean_packet_power()] * 4 for p in seen)


def test_proposed_frame_uses_adaptive_slot_count():
    cfg = reference_config(n_active=10, lam=2.0)
    expected = adaptive_slots(cfg).n_practical
    assert scheme_slots(cfg, Scheme.PROPOSED) == expected


def test_conservation_over_random_frames():
    cfg = reference_config(n_active=15, lam=6.0)
    for seed in range(20):
        block, counts = decode_frame(cfg, Scheme.BASELINE, np.random.default_rng(seed))
        transmitted = len(block.device)
        assert counts.sum() == transmitted
        assert transmitted + block.dropped[0] == block.counts.sum()


def test_collision_rate_matches_analytic():
    cfg = reference_config(n_active=10, lam=4.0)
    rng = np.random.default_rng(17)
    transmitted = 0
    collided = 0
    n_frames = 10_000  # 200k slots
    for _ in range(n_frames):
        counts = cfg.traffic.packet_counts(rng)
        assignments, _ = assign_slots_codes(counts, 20, 64, rng)
        slot_codes: dict[int, list[int]] = {}
        for _, slot_idx, code in assignments:
            slot_codes.setdefault(slot_idx, []).append(code)
        for codes in slot_codes.values():
            transmitted += len(codes)
            unique, cnt = np.unique(codes, return_counts=True)
            collided += int(cnt[cnt > 1].sum())
    p_lam = slot_occupancy_prob(4.0, 20)
    expected_cf = collision_free_prob(p_lam, 10, 64)
    assert 1.0 - collided / transmitted == pytest.approx(expected_cf, abs=3e-3)


# ----------------------------------------------------------------------------
#  Coverage estimation
# ----------------------------------------------------------------------------

def test_estimate_coverage_reproducible():
    cfg = reference_config(n_active=10, lam=4.0)
    a = estimate_coverage(cfg, Scheme.BASELINE, 30, seed=5)
    b = estimate_coverage(cfg, Scheme.BASELINE, 30, seed=5)
    assert a == b
    c = estimate_coverage(cfg, Scheme.BASELINE, 30, seed=6)
    assert c != a


def test_estimate_coverage_worker_invariance():
    cfg = reference_config(n_active=10, lam=4.0)
    serial = estimate_coverage(cfg, Scheme.BASELINE, 40, seed=9, n_workers=1)
    parallel = estimate_coverage(cfg, Scheme.BASELINE, 40, seed=9, n_workers=2)
    assert serial == parallel


def test_estimate_coverage_forks_no_more_workers_than_tasks(monkeypatch):
    made = []

    class RecordingPool:
        """Records its worker count and maps in-process."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", RecordingPool)
    cfg = reference_config(n_active=10, lam=4.0)
    one = estimate_coverage(cfg, Scheme.BASELINE, 1, seed=9, n_workers=4)
    assert made == []
    three = estimate_coverage(cfg, Scheme.BASELINE, 3, seed=9, n_workers=8)
    assert made == [3]
    assert one == estimate_coverage(cfg, Scheme.BASELINE, 1, seed=9)
    assert three == estimate_coverage(cfg, Scheme.BASELINE, 3, seed=9)


def test_schemes_coincide_outside_an_emergency():
    # one packet per device: PROPOSED keeps the configured slots, and
    # p_max / 1 (TPDS), p_max (NAS) and p_max / rho_max_proxy() agree
    cfg = reference_config(n_active=12, lam=4.0)
    cfg = replace(cfg, traffic=replace(cfg.traffic, scenario=Scenario.NON_EMERGENCY))
    estimates = [estimate_coverage(cfg, scheme, 40, seed=4) for scheme in Scheme]
    assert estimates[0].packets_decoded > 0
    assert all(est == estimates[0] for est in estimates)


def test_estimate_coverage_accounting():
    cfg = reference_config(n_active=10, lam=6.0)
    est = estimate_coverage(cfg, Scheme.BASELINE, 100, seed=3)
    assert est.p_hat == pytest.approx(est.packets_decoded / est.packets_generated)
    assert est.packets_dropped <= est.packets_generated
    assert est.ci_halfwidth > 0


def test_failure_causes_account_for_transmitted_packets():
    cfg = reference_config(n_active=20, lam=8.0)
    cfg = replace(cfg, reliability=replace(cfg.reliability, sinr_threshold=0.1))
    est = estimate_coverage(cfg, Scheme.BASELINE, 40, seed=14)
    decoded, collided, below, blocked = sum(
        decode_frame(cfg, Scheme.BASELINE, _frame_rng(14, i))[1] for i in range(40)
    )
    failures = (est.collision_failures, est.threshold_failures, est.blocked_failures)
    assert all(type(c) is int and c > 0 for c in failures)
    assert est.packets_decoded + sum(failures) == est.packets_generated - est.packets_dropped
    assert est.collision_failures == collided
    assert est.threshold_failures == below
    assert est.blocked_failures == blocked
    assert est.packets_decoded == decoded


def test_estimate_coverage_near_one_in_benign_regime():
    cfg = reference_config(n_active=5, lam=2.0, n_slots=200)
    cfg = replace(
        cfg,
        frame=replace(cfg.frame, n_slots=200, n_subcarriers=6, code_pool_size=4096),
        reliability=replace(cfg.reliability, sinr_threshold=1e-12),
    )
    est = estimate_coverage(cfg, Scheme.BASELINE, 200, seed=8)
    assert est.p_hat >= 1.0 - max(3 * est.ci_halfwidth, 2e-3)


def test_unknown_sinr_rule_rejected_without_traffic():
    cfg = reference_config(n_active=5, lam=0.0)
    cfg = replace(cfg, traffic=replace(cfg.traffic, lambda_min=0.0))
    with pytest.raises(ValueError):
        estimate_coverage(cfg, Scheme.BASELINE, 3, seed=1, sinr_rule="bogus")


def test_assign_slots_codes_draw_layout():
    counts = np.array([3, 0, 12, 1])
    assignments, dropped = assign_slots_codes(counts, 5, 64, np.random.default_rng(31))
    rng = np.random.default_rng(31)
    order = np.argsort(rng.random((4, 5)), axis=1)
    slots = np.concatenate([order[0, :3], order[2, :5], order[3, :1]])
    codes = rng.integers(0, 64, size=9)
    assert dropped == 7
    assert assignments.shape == (9, 3)
    assert assignments[:, 0].tolist() == [0, 0, 0, 2, 2, 2, 2, 2, 3]
    assert assignments[:, 1].tolist() == slots.tolist()
    assert assignments[:, 2].tolist() == codes.tolist()


def test_power_proxy_evaluated_once_per_estimate(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(SystemConfig, name)

        def counted(self):
            calls.append(name)
            return original(self)
        return counted

    for name in ("rho_max_proxy", "mean_packet_power"):
        monkeypatch.setattr(SystemConfig, name, counting(name))
    cfg = reference_config(n_active=10, lam=4.0)
    estimate_coverage(cfg, Scheme.BASELINE, 30, seed=2)
    assert sorted(calls) == ["mean_packet_power", "rho_max_proxy"]


# ----------------------------------------------------------------------------
#  Batched receiver against the scalar oracle
# ----------------------------------------------------------------------------

def oracle_frame(cfg, block, pool, sinr_rule):
    """``sic_decode`` applied slot by slot to a one-frame block's draws."""
    tally = dict(decoded=0, collision=0, below=0, blocked=0, lone=0)
    radii, powers = block.radii[0], block.powers[0]
    for slot_index in np.unique(block.slot):
        sel = block.slot == slot_index
        ids, codes = block.device[sel], block.code[sel]
        slot = SlotRealization(
            device_ids=ids,
            radii=radii[ids],
            path_gain=cfg.path_gain(radii[ids]),
            fading=block.fading[sel],
            code_indices=codes,
            code_vectors=pool[codes],
            powers=powers[ids],
        )
        outcome = sic_decode(
            slot, cfg.reliability.sinr_threshold, cfg.channel.noise_power, sinr_rule
        )
        tally["decoded"] += int(outcome.decoded.sum())
        tally["collision"] += outcome.failure_cause.count(FailureCause.COLLISION)
        tally["below"] += outcome.failure_cause.count(FailureCause.BELOW_THRESHOLD)
        tally["blocked"] += outcome.failure_cause.count(FailureCause.BLOCKED_BY_STRONGER)
        tally["lone"] += len(ids) == 1
    return tally


def parity_cases():
    dense = reference_config(n_active=20, lam=8.0)
    dense = replace(dense, reliability=replace(dense.reliability, sinr_threshold=0.1))
    shared = reference_config(n_active=10, lam=4.0)
    shared = replace(shared, frame=replace(shared.frame, code_pool_size=4))
    lone = reference_config(n_active=3, lam=2.0)
    scalar = reference_config(n_active=10, lam=3.0)
    scalar = replace(scalar, frame=replace(scalar.frame, n_subcarriers=1, code_pool_size=4))
    wide = reference_config(n_active=12, lam=4.0)
    wide = replace(wide, frame=replace(wide.frame, n_subcarriers=8))
    # 2 m over a 50 m disk: path gains spread ~1200-fold, the nearest
    # devices at ~1e9 SNR
    low = reference_config(n_active=12, lam=4.0)
    low = replace(low, geometry=replace(low.geometry, uav_altitude=2.0))
    return [
        (dense, Scheme.BASELINE),
        (shared, Scheme.TPDS),
        (lone, Scheme.PROPOSED),
        (reference_config(n_active=15, lam=5.0), Scheme.NAS),
        (scalar, Scheme.BASELINE),
        (wide, Scheme.BASELINE),
        (low, Scheme.TPDS),
    ]


@pytest.mark.parametrize("sinr_rule", ["conservative", "post_mmse"])
def test_batched_receiver_matches_scalar_oracle(sinr_rule):
    seen = dict(decoded=0, collision=0, below=0, blocked=0, lone=0)
    for cfg, scheme in parity_cases():
        pool = code_pool(cfg.frame.n_subcarriers, cfg.frame.code_pool_size)
        for i in range(12):
            block, counts = decode_frame(cfg, scheme, _frame_rng(40, i), sinr_rule)
            want = oracle_frame(cfg, block, pool, sinr_rule)
            assert counts.tolist() == [
                want["decoded"], want["collision"], want["below"], want["blocked"]
            ]
            for key in seen:
                seen[key] += want[key]
    # every receiver path was exercised: lone devices, shared codes, blocks
    assert all(count > 0 for count in seen.values()), seen


def sweep_oracle_slots(cfg, pool, rng, n_slots):
    """Random slots of up to n_active packets with path gains over 10 decades.

    Gains fall with the radius from the strongest of the geometry (a
    device under the UAV) by up to 10 decades, and powers are the equal
    split and its halves to quarters.  A random subset of each slot
    shares one code: a collided tail, never decoded, always interfering.
    """
    g0 = cfg.path_gain(np.zeros(1))[0]
    j = cfg.frame.n_subcarriers
    slots = []
    for _ in range(n_slots):
        k = int(rng.integers(1, cfg.traffic.n_active + 1))
        n_single = int(rng.integers(0, min(k, len(pool) - 1) + 1))
        if k - n_single == 1:
            n_single = k  # one packet cannot collide alone
        perm = rng.permutation(len(pool))
        codes = rng.permutation(
            np.r_[perm[:n_single], np.repeat(perm[n_single:n_single + 1], k - n_single)]
        )
        u = rng.random(k)
        slots.append(SlotRealization(
            device_ids=np.arange(k),
            radii=cfg.geometry.cell_radius * u,
            path_gain=g0 * 10.0 ** (-10.0 * u),
            fading=(rng.standard_normal((k, j)) + 1j * rng.standard_normal((k, j))) / math.sqrt(2),
            code_indices=codes,
            code_vectors=pool[codes],
            powers=cfg.mean_packet_power() / rng.integers(1, 5, k),
        ))
    return slots


@pytest.mark.parametrize("sinr_rule", ["conservative", "post_mmse"])
@pytest.mark.parametrize("n_subcarriers", [1, 2, 4, 8])
def test_sweep_sinr_matches_scalar_oracle(n_subcarriers, sinr_rule):
    """The sweep's SINR of every iteration against ``sic_decode``'s trace.

    |sweep - oracle| <= 1e-21 + 1e-9 |oracle|, i.e. relative 1e-9 for
    SINRs above 1e-12 (-120 dB): the oracle's m x m solve keeps only
    absolute precision on a target 12+ decades weaker than the set's
    strongest packet.  Against a
    50-digit evaluation of these slots (every SINR where the two differ
    by more than 1e-10, and a sample of the rest), the sweep was within
    4e-12 relative and the oracle off by up to 2e-8.
    """
    cfg = reference_config(n_active=20, lam=8.0)
    pool_size = min(4**n_subcarriers, cfg.frame.code_pool_size)
    cfg = replace(cfg, frame=replace(cfg.frame, n_subcarriers=n_subcarriers,
                                     code_pool_size=pool_size))
    pool = code_pool(n_subcarriers, pool_size)
    sigma2 = cfg.channel.noise_power
    slots = sweep_oracle_slots(cfg, pool, np.random.default_rng(n_subcarriers), 80)
    slots.sort(key=lambda slot: -len(slot.device_ids))  # rows deepest first
    depth = np.array([len(slot.device_ids) for slot in slots])
    g = np.zeros((len(slots), depth[0], n_subcarriers), dtype=complex)
    p = np.zeros((len(slots), depth[0]))
    expected = []
    for row, slot in enumerate(slots):
        # threshold 0: every singleton passes, so the trace covers them all
        trace = sic_decode(slot, 0.0, sigma2, sinr_rule).sinr_trace
        pooled, counts = np.unique(slot.code_indices, return_counts=True)
        collided = counts[np.searchsorted(pooled, slot.code_indices)] > 1
        order = np.lexsort((slot.radii, collided))  # singletons nearest first
        g[row, :depth[row]] = slot.equivalent_channel().T[order]
        p[row, :depth[row]] = slot.powers[order]
        assert [device for device, _ in trace] == order[:len(trace)].tolist()
        expected.append([value for _, value in trace])
    sinr = simulator._sweep_sinr(g, p, depth, sigma2, sinr_rule)
    assert sinr.shape == (len(slots), depth[0])
    assert not sinr[np.arange(depth[0]) >= depth[:, None]].any()  # zero past each row
    assert any(len(e) < d for e, d in zip(expected, depth))  # collided tails seen
    for row, want in enumerate(expected):
        np.testing.assert_allclose(sinr[row, :len(want)], want, rtol=1e-9, atol=1e-21)


def test_estimate_coverage_makes_no_linear_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the batched receiver must not call np.linalg")

    for name in ("solve", "inv", "lstsq", "pinv", "cholesky"):
        monkeypatch.setattr(np.linalg, name, refuse)
    cfg = reference_config(n_active=20, lam=8.0)
    cfg = replace(cfg, reliability=replace(cfg.reliability, sinr_threshold=0.1))
    est = estimate_coverage(cfg, Scheme.BASELINE, 10, seed=81)
    assert est.packets_decoded > 0 and est.threshold_failures > 0


def test_decode_block_independent_of_block_composition():
    cfg, scheme = parity_cases()[0]
    n_slots = scheme_slots(cfg, scheme)
    frames = [_draw_block(cfg, scheme, [_frame_rng(3, i)], n_slots) for i in range(20)]
    block = _draw_block(cfg, scheme, [_frame_rng(3, i) for i in range(20)], n_slots)
    together = _decode_block(cfg, block, n_slots, "conservative")
    alone = np.vstack([_decode_block(cfg, f, n_slots, "conservative") for f in frames])
    assert together.shape == (20, 4)
    assert np.array_equal(together, alone)


# ----------------------------------------------------------------------------
#  Block draw against the per-frame sampling laws
# ----------------------------------------------------------------------------

def oracle_draws(cfg, scheme, rng, n_slots):
    """One frame drawn by the public sampling laws, in the simulator's order."""
    counts = cfg.traffic.packet_counts(rng)
    radii = sample_deployment(cfg.traffic.n_active, cfg.geometry.cell_radius, rng)
    packets, dropped = assign_slots_codes(counts, n_slots, cfg.frame.code_pool_size, rng)
    z = rng.standard_normal((2, len(packets), cfg.frame.n_subcarriers))
    powers = cfg.packet_power(scheme, counts)
    return counts, radii, powers, packets, dropped, (z[0] + 1j * z[1]) / math.sqrt(2.0)


def block_draw_cases():
    """(config, scheme, what its frames must contain) for the block-draw test."""
    drops = reference_config(n_active=6, lam=5.0, n_slots=3)
    sparse = reference_config(n_active=3, lam=0.3)
    sparse = replace(sparse, traffic=replace(sparse.traffic, lambda_min=0.0))
    quiet = reference_config(n_active=12, lam=4.0)
    quiet = replace(quiet, traffic=replace(quiet.traffic, scenario=Scenario.NON_EMERGENCY))
    return [
        (drops, Scheme.TPDS, {"dropped"}),
        (sparse, Scheme.TPDS, {"empty_frames", "silent_devices"}),
        (drops, Scheme.PROPOSED, set()),
        (quiet, Scheme.BASELINE, set()),
        (quiet, Scheme.NAS, set()),
    ]


@pytest.mark.parametrize("n_frames", [1, 7])
@pytest.mark.parametrize("case", range(5))
def test_block_draw_matches_per_frame_oracle(case, n_frames):
    cfg, scheme, must_see = block_draw_cases()[case]
    n_slots = scheme_slots(cfg, scheme)
    n = cfg.traffic.n_active
    seen = dict(dropped=0, empty_frames=0, silent_devices=0)
    for first in range(0, 21, n_frames):
        frames = range(first, first + n_frames)
        block_rngs = [_frame_rng(17, i) for i in frames]
        block = _draw_block(cfg, scheme, block_rngs, n_slots)
        frame_of = block.device // n
        for f, i in enumerate(frames):
            rng = _frame_rng(17, i)
            counts, radii, powers, packets, dropped, fading = oracle_draws(
                cfg, scheme, rng, n_slots
            )
            sel = frame_of == f
            assert np.array_equal(block.counts[f], counts)
            assert block.radii[f].tobytes() == radii.tobytes()
            assert block.powers[f].tobytes() == powers.tobytes()
            assert block.dropped[f] == dropped
            assert np.array_equal(block.device[sel] - f * n, packets[:, 0])
            assert np.array_equal(block.slot[sel], packets[:, 1])
            assert np.array_equal(block.code[sel], packets[:, 2])
            assert block.fading[sel].tobytes() == fading.tobytes()
            # the block read exactly as far into the frame's stream
            assert block_rngs[f].bit_generator.state == rng.bit_generator.state
            seen["dropped"] += dropped
            seen["empty_frames"] += len(packets) == 0
            seen["silent_devices"] += int(np.sum(counts == 0))
    assert all(seen[key] > 0 for key in must_see), seen


def test_estimate_coverage_invariant_to_block_size(monkeypatch):
    cfg = reference_config(n_active=10, lam=4.0)
    reference = estimate_coverage(cfg, Scheme.PROPOSED, 45, seed=12)
    for block in (1, 7):
        monkeypatch.setattr(simulator, "_BLOCK_FRAMES", block)
        assert estimate_coverage(cfg, Scheme.PROPOSED, 45, seed=12) == reference
        assert estimate_coverage(cfg, Scheme.PROPOSED, 45, seed=12, n_workers=2) == reference
    # a draw budget just short of two frames' n_active·(1 + n_slots) forces
    # one-frame blocks whatever the frame cap
    frame_draws = 10 * (1 + adaptive_slots(cfg).n_practical)
    monkeypatch.setattr(simulator, "_BLOCK_FRAMES", 256)
    monkeypatch.setattr(simulator, "_BLOCK_DRAWS", 2 * frame_draws - 1)
    sizes = []
    draw_block = simulator._draw_block

    def recording(cfg, scheme, rngs, n_slots):
        sizes.append(len(rngs))
        return draw_block(cfg, scheme, rngs, n_slots)

    monkeypatch.setattr(simulator, "_draw_block", recording)
    assert estimate_coverage(cfg, Scheme.PROPOSED, 45, seed=12) == reference
    assert sizes == [1] * 45
    assert estimate_coverage(cfg, Scheme.PROPOSED, 45, seed=12, n_workers=2) == reference


# ----------------------------------------------------------------------------
#  Frame-clustered confidence interval
# ----------------------------------------------------------------------------

def test_clustered_ci_matches_per_frame_computation():
    cfg = reference_config(n_active=10, lam=2.0)
    n = 300
    est = estimate_coverage(cfg, Scheme.BASELINE, n, seed=21)
    frames = [decode_frame(cfg, Scheme.BASELINE, _frame_rng(21, i)) for i in range(n)]
    g = np.array([block.counts.sum() for block, _ in frames], dtype=float)
    d = np.array([counts[0] for _, counts in frames], dtype=float)
    p = d.sum() / g.sum()
    var = n / (n - 1) * np.sum((d - p * g) ** 2) / g.sum() ** 2
    assert est.p_hat == p
    assert est.ci_halfwidth == pytest.approx(1.96 * math.sqrt(var), rel=1e-12)
    # packets of a frame are correlated: the packet-binomial interval is too narrow
    binomial = 1.96 * math.sqrt(p * (1 - p) / g.sum())
    assert est.ci_halfwidth > 1.2 * binomial


def test_coverage_undefined_without_traffic():
    # no packet generated: neither the estimate nor its halfwidth exists
    cfg = reference_config(n_active=10, lam=0.0)
    est = estimate_coverage(cfg, Scheme.BASELINE, 20, seed=4)
    assert est.packets_generated == 0
    assert math.isnan(est.p_hat)
    assert math.isnan(est.ci_halfwidth)


def test_clustered_ci_undefined_for_one_frame():
    est = estimate_coverage(reference_config(n_active=10, lam=4.0), Scheme.BASELINE, 1, seed=4)
    assert est.packets_generated > 0
    assert math.isnan(est.ci_halfwidth)
