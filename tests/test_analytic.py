"""Coverage analysis against brute-force sampling and quadrature oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

from musalink import analytic
from musalink.analytic import (
    IntensitySet,
    _campbell_exponent,
    collision_free_prob,
    conditional_coverage,
    frame_coverage_prob,
    laplace_collided,
    laplace_singleton,
    ordered_distance_pdf,
    singleton_count,
    slot_occupancy_prob,
    slot_statistics,
)
from musalink.quadrature import QuadratureError, adaptive_simpson

from conftest import reference_config


# ----------------------------------------------------------------------------
#  Slot occupancy
# ----------------------------------------------------------------------------

def occupancy_mc(lam, n_slots, n_draws, seed):
    """Brute-force oracle: draw packet counts, pick distinct slots, count a
    fixed slot's occupancy.  Slot membership comes from the rank of one
    uniform among n_slots i.i.d. uniforms."""
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 100_000
    done = 0
    while done < n_draws:
        n = min(chunk, n_draws - done)
        counts = np.minimum(rng.poisson(lam, n), n_slots)
        u = rng.random((n, n_slots))
        rank0 = (u < u[:, :1]).sum(axis=1)
        hits += int((rank0 < counts).sum())
        done += n
    return hits / n_draws


def test_occupancy_zero_rate():
    assert slot_occupancy_prob(0.0, 20) == 0.0


def test_occupancy_single_slot_collapses_to_activity():
    assert slot_occupancy_prob(1.0, 1) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_occupancy_matches_slot_selection_oracle():
    value = slot_occupancy_prob(2.0, 20)
    oracle = occupancy_mc(2.0, 20, 1_000_000, seed=20260801)
    assert value == pytest.approx(oracle, abs=3e-3)


def test_occupancy_equals_untruncated_series():
    # E[min(L, S)]/S = 1 - sum_{L < S} (1 - L/S) pmf(L): a finite sum, so
    # no Poisson tail is cut off
    lams = np.concatenate([np.linspace(0.3, 60.0, 60), np.geomspace(0.3, 60.0, 25)])
    slots = np.arange(1, 151)
    for lam in lams:
        counts = np.arange(150)
        pmf = np.exp(-lam + counts * math.log(lam) - gammaln(counts + 1.0))
        short = np.cumsum(pmf) - np.cumsum(counts * pmf) / slots
        series = 1.0 - short
        closed = [slot_occupancy_prob(float(lam), int(s)) for s in slots]
        np.testing.assert_allclose(closed, series, rtol=0, atol=1e-12)
    assert all(slot_occupancy_prob(0.0, int(s)) == 0.0 for s in slots)


def test_occupancy_rejects_negative_rate():
    with pytest.raises(ValueError):
        slot_occupancy_prob(-0.5, 20)


def test_occupancy_monotonicity():
    lams = [0.5, 1, 2, 4, 6, 8, 10]
    vals = [slot_occupancy_prob(l, 20) for l in lams]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    slots = [1, 2, 5, 10, 20, 50]
    vals = [slot_occupancy_prob(4.0, n) for n in slots]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------------
#  Collision-free probability
# ----------------------------------------------------------------------------

def collision_mc(p_lambda, n_active, pool_size, n_trials, seed):
    """Oracle: other devices join the slot independently and pick codes
    uniformly; count trials where none matches the tagged device's code."""
    rng = np.random.default_rng(seed)
    clashes = 0
    chunk = 200_000
    done = 0
    while done < n_trials:
        n = min(chunk, n_trials - done)
        tagged = rng.integers(0, pool_size, (n, 1))
        active = rng.random((n, n_active - 1)) < p_lambda
        codes = rng.integers(0, pool_size, (n, n_active - 1))
        clashes += int((active & (codes == tagged)).any(axis=1).sum())
        done += n
    return 1.0 - clashes / n_trials


def collision_direct_sum(p_lambda, n_active, pool_size):
    """Plain-arithmetic evaluation of the binomial sum (no log tricks)."""
    others = n_active - 1
    total = (1 - p_lambda) ** others
    for n in range(1, others + 1):
        total += (
            math.comb(others, n)
            * p_lambda**n
            * (1 - p_lambda) ** (others - n)
            * ((pool_size - 1) / pool_size) ** n
        )
    return total


def test_collision_free_single_device():
    assert collision_free_prob(0.37, 1, 64) == 1.0


def test_collision_free_shared_single_code():
    assert collision_free_prob(1.0, 3, 1) == 0.0


def test_collision_free_two_oracles():
    value = collision_free_prob(0.1, 10, 64)
    assert value == pytest.approx(collision_direct_sum(0.1, 10, 64), abs=1e-12)
    oracle = collision_mc(0.1, 10, 64, 1_000_000, seed=42)
    assert value == pytest.approx(oracle, abs=3e-3)


def test_collision_free_equals_closed_form_thinning():
    # the binomial sum telescopes to (1 - p/pool)^(n-1); independent identity
    for p, n, mu in [(0.3, 15, 64), (0.9, 40, 16), (0.05, 200, 64)]:
        assert collision_free_prob(p, n, mu) == pytest.approx(
            (1 - p / mu) ** (n - 1), rel=1e-10
        )


def test_collision_free_monotone_properties():
    vals = [collision_free_prob(p, 10, 64) for p in np.linspace(0, 1, 11)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    vals = [collision_free_prob(0.2, n, 64) for n in (1, 2, 5, 10, 20, 50)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    vals = [collision_free_prob(0.2, 10, mu) for mu in (2, 4, 16, 64, 256)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_singleton_count_arithmetic():
    assert singleton_count(20, 0.5, 0.8) == pytest.approx(8.0)
    assert singleton_count(1, 1.0, 1.0) == pytest.approx(1.0)


# ----------------------------------------------------------------------------
#  Ordered distance statistics
# ----------------------------------------------------------------------------

def test_distance_pdf_single_device_reduces_to_uniform_disk():
    R = 50.0
    for x in (0.0, 10.0, 33.3, 50.0):
        assert ordered_distance_pdf(1, 1, R, x) == pytest.approx(2 * x / R**2, rel=1e-12)


def test_distance_pdf_normalizes():
    R = 50.0
    value, _ = adaptive_simpson(
        lambda x: ordered_distance_pdf(2, 5, R, x), 0.0, R, tol=1e-10
    )
    assert value == pytest.approx(1.0, abs=1e-9)


def test_distance_pdf_fractional_count_normalizes():
    # a vanishing threshold turns each conditional term into the plain
    # integral of the rank pdf, fractional-exponent endpoints included
    cfg = reference_config(n_active=10, lam=4.0)
    cfg = replace(cfg, reliability=replace(cfg.reliability, sinr_threshold=1e-18))
    intensities = slot_statistics(cfg).intensities
    n_frac = 3.4
    for k in range(1, 5):
        value = conditional_coverage(k, cfg, n_frac, intensities)
        assert value == pytest.approx(1.0, abs=1e-6), f"k={k}"


def test_distance_pdf_matches_order_statistic_sampling():
    R, n, k = 50.0, 5, 2
    rng = np.random.default_rng(7)
    radii = R * np.sqrt(rng.random((1_000_000, n)))
    kth = np.sort(radii, axis=1)[:, k - 1]
    edges = np.linspace(0.0, R, 51)
    hist, _ = np.histogram(kth, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    pdf = np.array([ordered_distance_pdf(k, n, R, c) for c in centers])
    assert np.max(np.abs(hist - pdf)) <= 1e-2


def test_distance_pdf_domain_errors():
    with pytest.raises(ValueError):
        ordered_distance_pdf(0, 5, 50.0, 10.0)
    with pytest.raises(ValueError):
        ordered_distance_pdf(6, 5, 50.0, 10.0)
    with pytest.raises(ValueError):
        ordered_distance_pdf(1, 5, 50.0, 51.0)
    with pytest.raises(ValueError):
        ordered_distance_pdf(1, 5, 50.0, -1.0)


# ----------------------------------------------------------------------------
#  Interference Laplace transforms
# ----------------------------------------------------------------------------

def interference_laplace_mc(s, lo, hi, omega, cfg, n_fields, seed):
    """Oracle: sample interferer fields from the thinned process on the
    annulus [lo, hi], exponential fading, and average exp(-s * I)."""
    rng = np.random.default_rng(seed)
    p_bar = cfg.mean_packet_power()
    beta = cfg.channel.pathloss_coeff
    alpha = cfg.channel.pathloss_exp
    h2 = cfg.geometry.uav_altitude**2
    area = math.pi * (hi**2 - lo**2)
    n_pts = rng.poisson(omega * area, n_fields)
    total = 0.0
    for n in n_pts:
        if n == 0:
            total += 1.0
            continue
        r2 = lo**2 + (hi**2 - lo**2) * rng.random(n)
        gains = p_bar * beta * (r2 + h2) ** (-alpha / 2) * rng.exponential(1.0, n)
        total += math.exp(-s * float(gains.sum()))
    return total / n_fields


def reference_s(cfg, r_hat):
    h2 = cfg.geometry.uav_altitude**2
    return (
        cfg.reliability.sinr_threshold
        * (r_hat**2 + h2) ** (cfg.channel.pathloss_exp / 2)
        / (cfg.mean_packet_power() * cfg.channel.pathloss_coeff)
    )


def test_laplace_at_zero_is_exactly_one(default_cfg):
    stats = slot_statistics(default_cfg)
    assert laplace_singleton(0.0, 12.0, default_cfg, stats.intensities) == 1.0
    assert laplace_collided(0.0, default_cfg, stats.intensities) == 1.0


def test_laplace_singleton_empty_annulus(default_cfg):
    stats = slot_statistics(default_cfg)
    R = default_cfg.geometry.cell_radius
    assert laplace_singleton(3.0e8, R, default_cfg, stats.intensities) == 1.0


def test_laplace_collided_no_collisions(default_cfg):
    no_collided = IntensitySet.from_collision_prob(default_cfg.active_intensity(), 1.0)
    assert laplace_collided(1e9, default_cfg, no_collided) == 1.0


def test_laplace_singleton_matches_field_sampling(default_cfg):
    stats = slot_statistics(default_cfg)
    r_hat = 25.0
    s = reference_s(default_cfg, r_hat)
    value = laplace_singleton(s, r_hat, default_cfg, stats.intensities)
    oracle = interference_laplace_mc(
        s, r_hat, default_cfg.geometry.cell_radius, stats.intensities.omega_s,
        default_cfg, 100_000, seed=11,
    )
    assert value == pytest.approx(oracle, rel=2e-2)


def test_laplace_collided_matches_field_sampling():
    cfg = reference_config(n_active=10, lam=8.0, n_slots=20)
    stats = slot_statistics(cfg)
    s = reference_s(cfg, 25.0)
    value = laplace_collided(s, cfg, stats.intensities)
    oracle = interference_laplace_mc(
        s, 0.0, cfg.geometry.cell_radius, stats.intensities.omega_c, cfg,
        100_000, seed=12,
    )
    assert value == pytest.approx(oracle, rel=2e-2)


def test_laplace_nonincreasing_in_s(default_cfg):
    stats = slot_statistics(default_cfg)
    s0 = reference_s(default_cfg, 25.0)
    values = [
        laplace_singleton(s, 25.0, default_cfg, stats.intensities)
        for s in np.linspace(0.0, 2 * s0, 9)
    ]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert all(0.0 < v <= 1.0 for v in values)


def test_laplace_power_scaling_invariance(default_cfg):
    """Equal rescaling of all transmit powers cancels inside the transforms."""
    cfg1 = default_cfg
    cfg2 = replace(cfg1, power=replace(cfg1.power, p_max=2 * cfg1.power.p_max))
    stats = slot_statistics(cfg1)
    for r_hat in (5.0, 25.0, 45.0):
        s1 = reference_s(cfg1, r_hat)
        s2 = reference_s(cfg2, r_hat)
        l1 = laplace_singleton(s1, r_hat, cfg1, stats.intensities)
        l2 = laplace_singleton(s2, r_hat, cfg2, stats.intensities)
        assert l2 == pytest.approx(l1, rel=1e-14)
        c1 = laplace_collided(s1, cfg1, stats.intensities)
        c2 = laplace_collided(s2, cfg2, stats.intensities)
        assert c2 == pytest.approx(c1, rel=1e-14)


# ----------------------------------------------------------------------------
#  Conditional and frame coverage
# ----------------------------------------------------------------------------

def test_conditional_coverage_tends_to_one_as_threshold_vanishes():
    cfg = reference_config(n_active=10, lam=4.0)
    cfg = replace(cfg, reliability=replace(cfg.reliability, sinr_threshold=1e-12))
    stats = slot_statistics(cfg)
    value = conditional_coverage(1, cfg, stats.n_singleton, stats.intensities)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_conditional_coverage_no_interference_no_noise():
    cfg = reference_config(n_active=10, lam=4.0)
    cfg = replace(cfg, channel=replace(cfg.channel, noise_power=1e-300))
    silent = IntensitySet(0.0, 0.0, 0.0)
    value = conditional_coverage(1, cfg, 1.0, silent)
    assert value == pytest.approx(1.0, abs=1e-9)


def conditional_coverage_mc(cfg, n_fields, seed):
    """Oracle for the nearest-device term: sample the modeled slot
    composition (order-statistic distance, thinned interferer fields,
    exponential fading) and test the physical SINR directly."""
    rng = np.random.default_rng(seed)
    stats = slot_statistics(cfg)
    n_s = stats.n_singleton
    R = cfg.geometry.cell_radius
    h2 = cfg.geometry.uav_altitude**2
    alpha = cfg.channel.pathloss_exp
    p_bar = cfg.mean_packet_power()
    beta = cfg.channel.pathloss_coeff
    theta = cfg.reliability.sinr_threshold
    sigma2 = cfg.channel.noise_power
    # inverse CDF of the nearest of n_s devices (valid for fractional n_s)
    t = 1.0 - (1.0 - rng.random(n_fields)) ** (1.0 / n_s)
    r_hat = R * np.sqrt(t)
    covered = 0
    for rh in r_hat:
        n_sing = rng.poisson(stats.intensities.omega_s * math.pi * (R**2 - rh**2))
        n_col = rng.poisson(stats.intensities.omega_c * math.pi * R**2)
        interference = 0.0
        if n_sing:
            r2 = rh**2 + (R**2 - rh**2) * rng.random(n_sing)
            interference += float(
                (p_bar * beta * (r2 + h2) ** (-alpha / 2) * rng.exponential(1.0, n_sing)).sum()
            )
        if n_col:
            r2 = R**2 * rng.random(n_col)
            interference += float(
                (p_bar * beta * (r2 + h2) ** (-alpha / 2) * rng.exponential(1.0, n_col)).sum()
            )
        signal = p_bar * beta * (rh**2 + h2) ** (-alpha / 2) * rng.exponential(1.0)
        if signal / (interference + sigma2) >= theta:
            covered += 1
    return covered / n_fields


def test_conditional_coverage_matches_composition_sampling():
    cfg = reference_config(n_active=20, lam=4.0, n_slots=20)
    stats = slot_statistics(cfg)
    value = conditional_coverage(1, cfg, stats.n_singleton, stats.intensities)
    oracle = conditional_coverage_mc(cfg, 150_000, seed=5)
    assert value == pytest.approx(oracle, abs=3e-2)


def test_frame_coverage_collision_limited_threshold_limit():
    cfg = reference_config(n_active=10, lam=4.0, n_slots=20)
    cfg = replace(cfg, reliability=replace(cfg.reliability, sinr_threshold=1e-12))
    report = frame_coverage_prob(cfg)
    expected = min(
        1.0,
        cfg.frame.n_slots * report.n_singleton / (cfg.traffic.n_active * cfg.traffic.lam),
    )
    assert report.p_succ == pytest.approx(expected, abs=1e-6)


def test_frame_coverage_report_recombines(default_cfg):
    report = frame_coverage_prob(default_cfg)
    n_s = report.n_singleton
    total = 0.0
    product = 1.0
    for k, term in enumerate(report.conditional_terms, start=1):
        product *= term
        weight = 1.0 if k <= math.floor(n_s) else n_s - math.floor(n_s)
        total += weight * product
    lam = default_cfg.traffic.lam
    expected = default_cfg.frame.n_slots / (default_cfg.traffic.n_active * lam) * total
    assert report.p_succ_raw == pytest.approx(expected, abs=1e-9)
    assert len(report.conditional_terms) == math.ceil(n_s)
    assert -1e-9 <= report.p_succ_raw <= 1 + 1e-9
    assert 0.0 <= report.p_succ <= 1.0
    assert all(0.0 <= t <= 1.0 for t in report.conditional_terms)


def test_frame_coverage_zero_rate():
    cfg = reference_config(n_active=10, lam=0.0)
    cfg = replace(cfg, traffic=replace(cfg.traffic, lambda_min=0.0))
    report = frame_coverage_prob(cfg)
    assert report.p_succ == 0.0
    assert report.conditional_terms == ()
    # singleton counts below 2^-54, where the shared rule's exponent
    # n_singleton - 1 rounds to -1: the lone rank tends to the kernel at the
    # cell edge t = 1
    for lam in (1e-16, 1e-17, 1e-300):
        tiny = replace(cfg, traffic=replace(cfg.traffic, lam=lam))
        report = frame_coverage_prob(tiny)
        assert 0.0 < report.n_singleton < 2.0**-54
        kernel = analytic._coverage_kernel(tiny, slot_statistics(tiny).intensities)
        assert report.p_succ == pytest.approx(kernel(np.array([1.0]))[0], abs=1e-12)


def test_frame_coverage_quick_monotonicity_spots():
    p_low = frame_coverage_prob(reference_config(n_active=10, lam=2.0)).p_succ
    p_high = frame_coverage_prob(reference_config(n_active=10, lam=6.0)).p_succ
    assert p_high <= p_low + 1e-6
    p_few = frame_coverage_prob(reference_config(n_active=10, lam=4.0, n_slots=10)).p_succ
    p_many = frame_coverage_prob(reference_config(n_active=10, lam=4.0, n_slots=40)).p_succ
    assert p_many >= p_few - 1e-6


def test_intensity_set_partition(default_cfg):
    stats = slot_statistics(default_cfg)
    i = stats.intensities
    assert i.omega_s + i.omega_c == pytest.approx(i.omega_o, rel=1e-12)
    assert i.omega_s >= 0 and i.omega_c >= 0


# ----------------------------------------------------------------------------
#  Closed forms against the adaptive-Simpson oracle
# ----------------------------------------------------------------------------

def campbell_simpson(q, h2, alpha, lo, hi):
    """Oracle: int (x/(1+x)) r dr over [lo, hi] by adaptive Simpson, so that
    2*pi*omega times it is the Campbell exponent."""

    def integrand(r):
        x = q * (r * r + h2) ** (-alpha / 2)
        return x / (1.0 + x) * r

    return adaptive_simpson(integrand, lo, hi, tol=1e-12).value


@pytest.mark.parametrize("alpha", [2.0, 2.2, 3.0, 4.0])
def test_campbell_exponent_matches_quadrature(default_cfg, alpha):
    R = default_cfg.geometry.cell_radius
    h2 = default_cfg.geometry.uav_altitude**2
    omega = 1.0 / (2.0 * math.pi)  # exponent == the bare integral
    # collided disk [0, R], singleton annuli [r_hat, R] down to the empty one
    annuli = [(0.0, R)] + [(r_hat, R) for r_hat in (10.0, 25.0, 45.0, R)]
    for q in np.logspace(2, 7, 11):
        for lo, hi in annuli:
            value = float(_campbell_exponent(q, omega, lo * lo + h2, hi * hi + h2, alpha))
            oracle = campbell_simpson(q, h2, alpha, lo, hi)
            if lo == hi:
                assert value == oracle == 0.0
            else:
                assert value == pytest.approx(oracle, rel=1e-9), (q, lo)


def test_campbell_exponent_broadcasts_over_distances(default_cfg):
    h2 = default_cfg.geometry.uav_altitude**2
    u_edge = default_cfg.geometry.cell_radius**2 + h2
    u = np.linspace(h2, u_edge, 7)
    q = 2.0 * u**1.1
    batch = _campbell_exponent(q, 1e-3, u, u_edge, 2.2)
    singles = [_campbell_exponent(qi, 1e-3, ui, u_edge, 2.2) for qi, ui in zip(q, u)]
    assert batch.shape == u.shape
    assert batch == pytest.approx(singles, rel=1e-15, abs=0.0)
    assert batch[-1] == 0.0


def test_laplace_transforms_match_quadrature(default_cfg):
    stats = slot_statistics(default_cfg)
    i = stats.intensities
    R = default_cfg.geometry.cell_radius
    h2 = default_cfg.geometry.uav_altitude**2
    alpha = default_cfg.channel.pathloss_exp
    for r_hat in (0.0, 25.0, 49.0, R):
        s = reference_s(default_cfg, r_hat)
        q = s * default_cfg.mean_packet_power() * default_cfg.channel.pathloss_coeff
        sing = math.exp(-2 * math.pi * i.omega_s * campbell_simpson(q, h2, alpha, r_hat, R))
        coll = math.exp(-2 * math.pi * i.omega_c * campbell_simpson(q, h2, alpha, 0.0, R))
        assert laplace_singleton(s, r_hat, default_cfg, i) == pytest.approx(sing, rel=1e-12)
        assert laplace_collided(s, default_cfg, i) == pytest.approx(coll, rel=1e-12)


def conditional_coverage_simpson(k, cfg, n_singleton, intensities):
    """Oracle for one rank: the k-th order-statistic average of the scalar
    coverage kernel by adaptive Simpson.  The substitution t = 1 - v^m with
    m * (beta + 1) >= 5 turns (1-t)^beta dt into a smooth power of v, so
    the integrand is bounded and smooth for every beta > -1."""
    R = cfg.geometry.cell_radius
    h2 = cfg.geometry.uav_altitude**2
    sigma2 = cfg.channel.noise_power

    def kernel(r_hat):
        s = reference_s(cfg, r_hat)
        return (
            math.exp(-s * sigma2)
            * laplace_singleton(s, r_hat, cfg, intensities)
            * laplace_collided(s, cfg, intensities)
        )

    beta = n_singleton - k
    m = math.ceil(5.0 / (beta + 1.0))

    def integrand(v):
        t = 1.0 - v**m
        return kernel(R * math.sqrt(t)) * t ** (k - 1) * m * v ** (m * (beta + 1.0) - 1.0)

    log_coeff = (
        math.lgamma(n_singleton + 1.0) - math.lgamma(k) - math.lgamma(n_singleton - k + 1.0)
    )
    coeff = math.exp(log_coeff)
    return coeff * adaptive_simpson(integrand, 0.0, 1.0, tol=1e-13 / coeff).value


@pytest.mark.parametrize(
    "n_singleton,k",
    [
        (3.4, 4),   # beta = -0.6: integrable divergence of the density at t = 1
        (3.4, 3),   # beta = 0.4
        (3.0, 3),   # beta = 0: integer, top rank
        (3.0, 1),   # beta = 2: integer
        (3.4, 1),   # beta = 2.4
        (9.7, 2),   # beta = 7.7
    ],
)
def test_conditional_coverage_matches_quadrature(n_singleton, k):
    cfg = reference_config(n_active=10, lam=2.0, n_slots=20)
    cfg = replace(cfg, reliability=replace(cfg.reliability, sinr_threshold=0.2))
    intensities = slot_statistics(cfg).intensities
    value = conditional_coverage(k, cfg, n_singleton, intensities)
    oracle = conditional_coverage_simpson(k, cfg, n_singleton, intensities)
    assert 0.01 < oracle < 0.99  # a kernel that is neither flat 0 nor flat 1
    assert value == pytest.approx(oracle, abs=1e-10)


def low_altitude_config(uav_altitude, theta):
    """A hover height far below the cell radius: the coverage kernel varies
    fast near the centre and the outer rule is no longer exact to rounding."""
    cfg = reference_config(n_active=10, lam=4.0)
    return replace(
        cfg,
        geometry=replace(cfg.geometry, uav_altitude=uav_altitude),
        reliability=replace(cfg.reliability, sinr_threshold=theta),
    )


def test_quadrature_error_estimate_bounds_refined_rule(monkeypatch):
    # the lambda sweeps of the analytic benchmark, then low-altitude points
    sweep = [
        reference_config(n_active=n_active, lam=float(lam))
        for n_active in (5, 10, 20) for lam in range(2, 11)
    ]
    hard = [low_altitude_config(h, theta) for h in (5.0, 1.0) for theta in (1.0, 0.01)]
    # n_singleton 17.6 to 23.3: a shared rule that did not grow with the rank
    # count would lose ceil(n_singleton) - 1 degrees and read ~1e-9 here
    many_ranks = [
        replace(cfg, geometry=replace(cfg.geometry, uav_altitude=20.0))
        for cfg in (reference_config(n_active=n, lam=10.0, n_slots=10) for n in (30, 45, 60))
    ]
    configs = sweep + hard + many_ranks
    reports = [frame_coverage_prob(cfg) for cfg in configs]
    monkeypatch.setattr(analytic, "_OUTER_NODES", 2 * analytic._OUTER_NODES)
    for cfg, report in zip(configs, reports):
        refined = frame_coverage_prob(cfg)
        gap = sum(
            abs(a - b) for a, b in zip(report.conditional_terms, refined.conditional_terms)
        )
        # the rules agree to ~1e-13 once both have converged to rounding
        assert gap <= report.quadrature_error_estimate + 1e-12
    n_sweep, n_hard = len(sweep), len(hard)
    assert max(r.quadrature_error_estimate for r in reports[:n_sweep]) < 1e-11
    assert min(r.quadrature_error_estimate for r in reports[n_sweep:n_sweep + n_hard]) > 1e-9
    assert [math.ceil(r.n_singleton) for r in reports[-3:]] == [18, 22, 24]
    assert max(r.quadrature_error_estimate for r in reports[-3:]) < 1e-12


def test_non_finite_kernel_raises_quadrature_error(default_cfg):
    cfg = replace(default_cfg, channel=replace(default_cfg.channel, noise_power=math.nan))
    with pytest.raises(QuadratureError):
        frame_coverage_prob(cfg)


# ----------------------------------------------------------------------------
#  The Gauss-Jacobi rule pair shared by all ranks
# ----------------------------------------------------------------------------

# Singleton counts over (0, 9]: fractional and integer counts (integer n_s
# gives alpha = beta, scipy's Gegenbauer branch, at rank (n_s + 1)/2; n_s = 1
# its Legendre branch), counts just above an integer, where the top rank has
# beta = n_s - k -> -1+, and 13.06..., the largest count the analytic
# benchmark's optimize curves reach (n_active=20, lambda=6, n_slots=6).
GJ_SINGLETON_COUNTS = sorted(
    {round(v, 6) for v in np.linspace(0.05, 9.0, 36)}
    | {float(n) for n in range(1, 10)}
    | {k - 1 + 1e-3 for k in range(2, 10)}
    | {13.06318861777029}
)


def shared_rule_size(n_singleton):
    """Exponent f of the shared weight (1-x)^f and node count n of its base rule."""
    n_ranks = math.ceil(n_singleton)
    return n_singleton - n_ranks, analytic._OUTER_NODES + n_ranks // 2


def jacobi_rule_reference(m, a):
    """m-node Gauss rule for the weight (1-x)^a in 40-digit decimal arithmetic.

    The nodes of ``roots_jacobi`` polished by one Newton step, and the
    normalised weights 1/(P_{m-1}(x) P_m'(x)), with P^(a,0) and its
    derivative from the three-term recurrence (DLMF 18.9.2).  In double
    precision ``roots_jacobi``'s weight of the node nearest 1 is off by up
    to ~3e-12 as a -> -1: that node is within ~1e-5 of 1, and P_{m-1}
    varies fast there on the scale of its rounding.
    """
    from decimal import Decimal, localcontext

    from scipy.special import roots_jacobi

    x_start, _ = roots_jacobi(m, a, 0.0)
    with localcontext() as ctx:
        ctx.prec = 40
        a = Decimal(a)

        def evaluate(x):
            """P_{m-1}(x), P_m(x) and P_m'(x)."""
            p_prev, p = Decimal(1), (a + 1) + (a + 2) * (x - 1) / 2
            d_prev, d = Decimal(0), (a + 2) / 2
            for j in range(2, m + 1):
                c = 2 * j + a
                lin = (c - 1) * (c * (c - 2) * x + a * a)
                back = 2 * (j + a - 1) * (j - 1) * c
                norm = 2 * j * (j + a) * (c - 2)
                p_prev, p, d_prev, d = (
                    p,
                    (lin * p - back * p_prev) / norm,
                    d,
                    (lin * d + (c - 1) * c * (c - 2) * p - back * d_prev) / norm,
                )
            return p_prev, p, d

        nodes, weights = [], []
        for x in map(Decimal, x_start.tolist()):
            _, p, d = evaluate(x)
            x -= p / d
            p_prev, _, d = evaluate(x)
            nodes.append(x)
            weights.append(1 / (p_prev * d))
        total = sum(weights)
        return (np.array([float(x) for x in nodes]),
                np.array([float(w / total) for w in weights]))


@pytest.mark.parametrize("n_singleton", GJ_SINGLETON_COUNTS)
def test_gauss_jacobi_matches_roots_jacobi(n_singleton):
    f, n = shared_rule_size(n_singleton)
    x, log_w = analytic._gauss_jacobi(f, n)
    assert x.shape == log_w.shape == (3 * n,)
    for rule, nodes in ((slice(0, n), n), (slice(n, 3 * n), 2 * n)):
        x_ref, w_ref = jacobi_rule_reference(nodes, f)
        w = np.exp(log_w[rule] - log_w[rule].max())
        np.testing.assert_allclose(x[rule], x_ref, rtol=0, atol=1e-14)
        np.testing.assert_allclose(w / w.sum(), w_ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_singleton", GJ_SINGLETON_COUNTS)
def test_shared_rule_exact_for_beta_moments(n_singleton):
    # both rules of the pair integrate t^m, m <= 2 * _OUTER_NODES - 1, exactly
    # against every rank's Beta(k, n_singleton - k + 1) law, whatever the
    # rank count: the moment is B(k + m, n_singleton - k + 1) / B(k, ...)
    ranks = np.arange(1, math.ceil(n_singleton) + 1)
    for m in range(2 * analytic._OUTER_NODES):
        values, errs = analytic._ranks_coverage(n_singleton, lambda t: t**m)
        exact = [
            math.exp(math.lgamma(k + m) + math.lgamma(n_singleton + 1.0)
                     - math.lgamma(k) - math.lgamma(n_singleton + m + 1.0))
            for k in ranks
        ]
        np.testing.assert_allclose(values, exact, rtol=1e-12, atol=0)
        np.testing.assert_array_less(errs, 1e-12 * np.array(exact))


@pytest.mark.parametrize("k", [1, 2, 5])
def test_ranks_continuous_above_integer_counts(k):
    # just above an integer count the shared weight (1-x)^f has f -> -1 and its
    # last node tends to 1; the first k ranks still tend to the k ranks at
    # n_singleton = k, at a slope below 1 (~0.26 here)
    cfg = reference_config()
    kernel = analytic._coverage_kernel(cfg, slot_statistics(cfg).intensities)
    at_k, _ = analytic._ranks_coverage(float(k), kernel)
    for eps in (1e-6, 1e-9, 1e-12, 1e-14, math.nextafter(k, math.inf) - k):
        above, _ = analytic._ranks_coverage(k + eps, kernel)
        assert len(above) == k + 1
        np.testing.assert_allclose(above[:k], at_k, rtol=0, atol=eps + 1e-14)


def test_one_rule_pair_and_kernel_call_per_point(monkeypatch):
    import scipy.linalg.lapack

    calls = {"kernel": 0, "dsterf": 0}
    make_kernel, dsterf = analytic._coverage_kernel, scipy.linalg.lapack.dsterf

    def spy_kernel(cfg, intensities):
        g = make_kernel(cfg, intensities)

        def counted(t):
            calls["kernel"] += 1
            return g(t)
        return counted

    def spy_dsterf(*args):
        calls["dsterf"] += 1
        return dsterf(*args)

    monkeypatch.setattr(analytic, "_coverage_kernel", spy_kernel)
    monkeypatch.setattr(scipy.linalg.lapack, "dsterf", spy_dsterf)
    rank_counts = []
    for n_active, lam in ((5, 2.0), (20, 8.0), (60, 10.0)):
        calls.update(kernel=0, dsterf=0)
        report = frame_coverage_prob(reference_config(n_active=n_active, lam=lam, n_slots=10))
        rank_counts.append(len(report.conditional_terms))
        assert calls == {"kernel": 1, "dsterf": 2}
    assert rank_counts == [1, 13, 24]


@pytest.mark.parametrize(
    "n_active,lam,n_slots",
    [(5, 2.0, 20), (20, 8.0, 20), (10, 3.0, 40), (20, 6.0, 6)],
)
def test_batched_ranks_equal_per_rank_values(n_active, lam, n_slots):
    cfg = reference_config(n_active=n_active, lam=lam, n_slots=n_slots)
    stats = slot_statistics(cfg)
    kernel = analytic._coverage_kernel(cfg, stats.intensities)
    report = frame_coverage_prob(cfg)
    per_rank = [
        analytic._conditional_coverage(k, stats.n_singleton, kernel)
        for k in range(1, math.ceil(stats.n_singleton) + 1)
    ]
    assert report.conditional_terms == tuple(value for value, _ in per_rank)
    assert report.quadrature_error_estimate == pytest.approx(
        sum(err for _, err in per_rank), rel=1e-12, abs=1e-300
    )
    assert report.conditional_terms[0] == conditional_coverage(
        1, cfg, stats.n_singleton, stats.intensities
    )


def test_non_finite_rank_named_in_quadrature_error():
    def kernel(t):
        # finite everywhere except on one node of the 2n-node rule
        g = 1.0 - t
        g[-3] = math.nan
        return g

    with pytest.raises(QuadratureError, match=r"rank k=[1-5]: non-finite") as info:
        analytic._ranks_coverage(4.5, kernel)
    assert math.isnan(info.value.value)
