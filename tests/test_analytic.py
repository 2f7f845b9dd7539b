"""Coverage analysis against brute-force sampling and quadrature oracles."""

import functools
import itertools
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

from musalink import analytic
from musalink.analytic import (
    QuadratureError,
    frame_coverage_prob,
    frame_coverage_probs,
    slot_statistics,
)
from musalink.config import ConfigError, Scenario, TrafficParams, default_config, with_values

from conftest import reference_config
from oracles import (
    _antiderivative,
    _campbell_exponent,
    laplace_collided,
    laplace_singleton,
    ordered_distance_pdf,
    poisson_slot_occupancy,
)
from simpson import adaptive_simpson


def conditional_coverage(k, cfg, n_singleton, stats):
    """Rank k's conditional coverage, in the interference field of ``stats``:
    row k of the engine's all-ranks evaluation."""
    kernel = analytic._coverage_kernels([cfg], [stats])
    return float(analytic._ranks_coverages([n_singleton], kernel)[0][0][k - 1])


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
    assert TrafficParams(lam=0.0).slot_occupancy(20) == 0.0


def test_occupancy_single_slot_collapses_to_activity():
    value = TrafficParams(lam=1.0).slot_occupancy(1)
    assert value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)


def test_occupancy_matches_slot_selection_oracle():
    value = TrafficParams(lam=2.0).slot_occupancy(20)
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
        closed = [TrafficParams(lam=float(lam)).slot_occupancy(int(s)) for s in slots]
        np.testing.assert_allclose(closed, series, rtol=0, atol=1e-12)
    assert all(TrafficParams(lam=0.0).slot_occupancy(int(s)) == 0.0 for s in slots)


def test_occupancy_equals_the_closed_form_oracle():
    # the sum over L's window against scipy's pdtr/pdtrc closed form, relative,
    # from a rate far below any slot's share to one far above the slot count
    lams = [1e-300] + [10.0**e for e in range(-3, 9)]
    slots = [1, 2, 3, 5, 7, 10, 20, 64, 100, 10**3, 10**4, 10**6, 10**9, 10**17]
    for lam in lams:
        for n_slots in slots:
            value = TrafficParams(lam=lam).slot_occupancy(n_slots)
            assert value <= 1.0
            assert value == pytest.approx(poisson_slot_occupancy(lam, n_slots), rel=4e-15, abs=0), (
                lam, n_slots)


def test_occupancy_monotonicity():
    lams = [0.5, 1, 2, 4, 6, 8, 10]
    vals = [TrafficParams(lam=l).slot_occupancy(20) for l in lams]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    slots = [1, 2, 5, 10, 20, 50]
    vals = [TrafficParams(lam=4.0).slot_occupancy(n) for n in slots]
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


def collision_config(n_active, pool_size, lam=4.0, n_slots=20, scenario=Scenario.EMERGENCY):
    """The reference config with its code pool and scenario set: its own
    p_lambda is 1/n_slots outside an emergency."""
    cfg = reference_config(n_active=n_active, lam=lam, n_slots=n_slots)
    return replace(cfg, traffic=replace(cfg.traffic, scenario=scenario),
                   frame=replace(cfg.frame, code_pool_size=pool_size))


def test_collision_free_single_device():
    assert slot_statistics(collision_config(1, 64)).p_cf == 1.0


def test_collision_free_shared_single_code():
    st = slot_statistics(collision_config(3, 1, n_slots=1, scenario=Scenario.NON_EMERGENCY))
    assert st.p_lambda == 1.0
    assert st.p_cf == 0.0


def test_collision_free_two_oracles():
    st = slot_statistics(collision_config(10, 64, n_slots=10, scenario=Scenario.NON_EMERGENCY))
    assert st.p_lambda == 0.1
    value = st.p_cf
    assert value == pytest.approx(collision_direct_sum(st.p_lambda, 10, 64), abs=1e-12)
    oracle = collision_mc(st.p_lambda, 10, 64, 1_000_000, seed=42)
    assert value == pytest.approx(oracle, abs=3e-3)


def test_collision_free_equals_closed_form_thinning():
    # the binomial sum telescopes to (1 - p/pool)^(n-1), the form the
    # engine states
    for n, mu, lam in [(15, 64, 6.0), (40, 16, 18.0), (200, 64, 1.0)]:
        st = slot_statistics(collision_config(n, mu, lam=lam))
        p = st.p_lambda
        assert st.p_cf == pytest.approx((1 - p / mu) ** (n - 1), rel=1e-10)
        assert st.p_cf == pytest.approx(collision_direct_sum(p, n, mu), rel=1e-10)


def test_collision_free_monotone_properties():
    stats = [slot_statistics(collision_config(10, 64, lam=lam))
             for lam in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)]
    p_lambdas = [st.p_lambda for st in stats]
    assert p_lambdas[0] == 0.0 and p_lambdas[-1] > 0.99
    assert all(b > a for a, b in zip(p_lambdas, p_lambdas[1:]))
    vals = [st.p_cf for st in stats]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    vals = [slot_statistics(collision_config(n, 64)).p_cf for n in (1, 2, 5, 10, 20, 50)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    vals = [slot_statistics(collision_config(10, mu)).p_cf for mu in (2, 4, 16, 64, 256)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_singleton_count_arithmetic():
    st = slot_statistics(collision_config(20, 64))
    assert st.n_singleton == pytest.approx(20 * st.p_lambda * st.p_cf)
    lone = slot_statistics(collision_config(1, 64, n_slots=1, scenario=Scenario.NON_EMERGENCY))
    assert (lone.p_lambda, lone.p_cf, lone.n_singleton) == (1.0, 1.0, 1.0)


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
    stats = slot_statistics(cfg)
    n_frac = 3.4
    for k in range(1, 5):
        value = conditional_coverage(k, cfg, n_frac, stats)
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
    assert ordered_distance_pdf(2, 5.0, 50.0, 10.0) == ordered_distance_pdf(2, 5, 50.0, 10.0)
    with pytest.raises(ValueError):
        ordered_distance_pdf(0, 5, 50.0, 10.0)
    with pytest.raises(ValueError):
        ordered_distance_pdf(6, 5, 50.0, 10.0)
    with pytest.raises(ValueError):
        ordered_distance_pdf(1, 5, 50.0, 51.0)
    with pytest.raises(ValueError):
        ordered_distance_pdf(1, 5, 50.0, -1.0)
    with pytest.raises(ValueError):
        ordered_distance_pdf(1, 3.4, 50.0, 10.0)


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
    assert laplace_singleton(0.0, 12.0, default_cfg, stats.omega_s) == 1.0
    assert laplace_collided(0.0, default_cfg, stats.omega_c) == 1.0


def test_laplace_singleton_empty_annulus(default_cfg):
    stats = slot_statistics(default_cfg)
    R = default_cfg.geometry.cell_radius
    assert laplace_singleton(3.0e8, R, default_cfg, stats.omega_s) == 1.0


def test_laplace_collided_no_collisions():
    lone = reference_config(n_active=1)  # a lone device never collides
    omega_c = slot_statistics(lone).omega_c
    assert omega_c == 0.0
    assert laplace_collided(1e9, lone, omega_c) == 1.0


def test_laplace_singleton_matches_field_sampling(default_cfg):
    stats = slot_statistics(default_cfg)
    r_hat = 25.0
    s = reference_s(default_cfg, r_hat)
    value = laplace_singleton(s, r_hat, default_cfg, stats.omega_s)
    oracle = interference_laplace_mc(
        s, r_hat, default_cfg.geometry.cell_radius, stats.omega_s,
        default_cfg, 100_000, seed=11,
    )
    assert value == pytest.approx(oracle, rel=2e-2)


def test_laplace_collided_matches_field_sampling():
    cfg = reference_config(n_active=10, lam=8.0, n_slots=20)
    stats = slot_statistics(cfg)
    s = reference_s(cfg, 25.0)
    value = laplace_collided(s, cfg, stats.omega_c)
    oracle = interference_laplace_mc(
        s, 0.0, cfg.geometry.cell_radius, stats.omega_c, cfg,
        100_000, seed=12,
    )
    assert value == pytest.approx(oracle, rel=2e-2)


def test_laplace_nonincreasing_in_s(default_cfg):
    stats = slot_statistics(default_cfg)
    s0 = reference_s(default_cfg, 25.0)
    values = [
        laplace_singleton(s, 25.0, default_cfg, stats.omega_s)
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
        l1 = laplace_singleton(s1, r_hat, cfg1, stats.omega_s)
        l2 = laplace_singleton(s2, r_hat, cfg2, stats.omega_s)
        assert l2 == pytest.approx(l1, rel=1e-14)
        c1 = laplace_collided(s1, cfg1, stats.omega_c)
        c2 = laplace_collided(s2, cfg2, stats.omega_c)
        assert c2 == pytest.approx(c1, rel=1e-14)


# ----------------------------------------------------------------------------
#  Conditional and frame coverage
# ----------------------------------------------------------------------------

def test_conditional_coverage_tends_to_one_as_threshold_vanishes():
    cfg = reference_config(n_active=10, lam=4.0)
    cfg = replace(cfg, reliability=replace(cfg.reliability, sinr_threshold=1e-12))
    stats = slot_statistics(cfg)
    value = conditional_coverage(1, cfg, stats.n_singleton, stats)
    assert value == pytest.approx(1.0, abs=1e-6)


def test_conditional_coverage_no_interference_no_noise():
    cfg = reference_config(n_active=10, lam=4.0)
    cfg = replace(cfg, channel=replace(cfg.channel, noise_power=1e-300))
    silent = replace(slot_statistics(cfg), omega_s=0.0, omega_c=0.0)
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
        n_sing = rng.poisson(stats.omega_s * math.pi * (R**2 - rh**2))
        n_col = rng.poisson(stats.omega_c * math.pi * R**2)
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
    value = conditional_coverage(1, cfg, stats.n_singleton, stats)
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


@pytest.mark.parametrize("scenario, load",
                         [(Scenario.EMERGENCY, 4.0), (Scenario.NON_EMERGENCY, 1.0)],
                         ids=["emergency", "non_emergency"])
def test_frame_coverage_report_recombines(default_cfg, scenario, load):
    cfg = replace(default_cfg, traffic=replace(default_cfg.traffic, scenario=scenario))
    report = frame_coverage_prob(cfg)
    n_s = report.n_singleton
    total = 0.0
    product = 1.0
    for k, term in enumerate(report.conditional_terms, start=1):
        product *= term
        weight = 1.0 if k <= math.floor(n_s) else n_s - math.floor(n_s)
        total += weight * product
    expected = cfg.frame.n_slots / (cfg.traffic.n_active * load) * total
    assert report.p_succ_raw == pytest.approx(expected, abs=1e-9)
    emergency = scenario is Scenario.EMERGENCY
    p_lambda = TrafficParams(lam=4.0).slot_occupancy(20) if emergency else 1.0 / 20
    assert slot_statistics(cfg).p_lambda == report.p_lambda == p_lambda
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
        kernel = analytic._coverage_kernels([tiny], [slot_statistics(tiny)])
        assert report.p_succ == pytest.approx(kernel(np.array([1.0]), 0)[0], abs=1e-12)


def test_frame_coverage_quick_monotonicity_spots():
    p_low = frame_coverage_prob(reference_config(n_active=10, lam=2.0)).p_succ
    p_high = frame_coverage_prob(reference_config(n_active=10, lam=6.0)).p_succ
    assert p_high <= p_low + 1e-6
    p_few = frame_coverage_prob(reference_config(n_active=10, lam=4.0, n_slots=10)).p_succ
    p_many = frame_coverage_prob(reference_config(n_active=10, lam=4.0, n_slots=40)).p_succ
    assert p_many >= p_few - 1e-6


def test_intensity_set_partition(default_cfg):
    stats = slot_statistics(default_cfg)
    omega = default_cfg.active_intensity()
    assert stats.omega_s + stats.omega_c == pytest.approx(omega, rel=1e-12)
    assert stats.omega_s >= 0 and stats.omega_c >= 0


# ----------------------------------------------------------------------------
#  Closed forms against the adaptive-Simpson oracle
# ----------------------------------------------------------------------------

def campbell_simpson(q, h2, alpha, lo, hi, tol=1e-12):
    """Oracle: int (x/(1+x)) r dr over [lo, hi] by adaptive Simpson, so that
    2*pi*omega times it is the Campbell exponent.  x/(1+x) is written
    q/(q + (r^2 + h^2)^(alpha/2)), finite at r = h = 0."""

    def integrand(r):
        return q / (q + (r * r + h2) ** (alpha / 2)) * r

    return adaptive_simpson(integrand, lo, hi, tol=tol).value


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


# ----------------------------------------------------------------------------
#  The Gauss-Legendre rule of the Campbell integrals
# ----------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 58, 119, 323])
def test_legendre_rule_is_exact_to_degree_2n_minus_1(n):
    from numpy.polynomial.legendre import leggauss

    c, w = analytic._legendre_rule(n)
    assert c.shape == w.shape == (n,) and not (c.flags.writeable or w.flags.writeable)
    degrees = np.arange(min(2 * n, 40))
    moments = [np.add.reduce(w * c**j) for j in degrees]
    np.testing.assert_allclose(moments, 1.0 / (degrees + 1), rtol=0, atol=2e-15)
    x, weights = leggauss(n)  # ascending in x, so descending in c = (1 - x)/2
    np.testing.assert_allclose(1.0 - 2.0 * c[::-1], x, rtol=0, atol=4e-16)
    np.testing.assert_allclose(2.0 * w[::-1], weights, rtol=0, atol=1e-12 * weights.max())
    assert analytic._legendre_rule(n)[0] is c  # built once per process


def test_campbell_rule_size_from_the_bernstein_bound():
    # 5 nodes at the default geometry; the low-altitude sizes grow with
    # alpha and ln(u_edge/h^2); the cut keeps h -> 0 finite
    def size(alpha, h, radius=50.0):
        u_edge = radius * radius + h * h
        span = math.log(u_edge / max(h * h, analytic._CAMPBELL_TOL * u_edge))
        return analytic._campbell_rule_size(0.5 * alpha, span)

    assert size(2.2, 125.0) == 5
    assert size(6.0, 2.0) == 58
    assert [size(2.2, h) for h in (20.0, 5.0, 2.0, 1.0, 1e-3)] == [11, 18, 23, 28, 71]
    assert size(2.2, 1e-300) == size(2.2, 1e-100) == 119
    assert size(6.0, 1e-300) == 323
    assert analytic._campbell_rule_size(1.1, 0.0) == 1


@pytest.mark.parametrize("alpha", [2.0, 2.2, 3.0, 4.0, 6.0])
def test_campbell_integrals_match_closed_form_and_quadrature(alpha):
    """The package's Gauss-Legendre Campbell integrals over the grid of
    altitudes (down to 1e-300 m, where h^2 underflows to 0), radii and
    thresholds, against the hypergeometric closed form to 1e-13 u_edge
    absolute, the order of its own cancellation, and against adaptive
    Simpson to the relative 1e-9 of ``test_campbell_exponent_matches_quadrature``.
    """
    a = 0.5 * alpha
    t = np.array([1e-6, 0.01, 0.3, 1.0])
    grid = itertools.product((1e-300, 1e-3, 1.0, 2.0, 5.0, 20.0, 125.0), (50.0, 500.0),
                             (0.01, 1.0, 100.0))
    for h, radius, theta in grid:
        h2 = h * h
        u_edge = radius * radius + h2
        u = radius * radius * t + h2
        q = theta * u**a
        singleton, collided = analytic._campbell_integrals(a, u_edge, h2, u, q)
        f_edge = _antiderivative(u_edge, u_edge**a, q, a)
        np.testing.assert_allclose(singleton, f_edge - _antiderivative(u, u**a, q, a),
                                   rtol=0, atol=1e-13 * u_edge, err_msg=str((h, radius, theta)))
        np.testing.assert_allclose(collided, f_edge - _antiderivative(h2, h2**a, q, a),
                                   rtol=0, atol=1e-13 * u_edge, err_msg=str((h, radius, theta)))
        assert singleton[-1] == 0.0
        for i in (1, 2):
            r_hat = radius * math.sqrt(t[i])
            tol = 1e-16 * u_edge
            assert singleton[i] == pytest.approx(
                2.0 * campbell_simpson(q[i], h2, alpha, r_hat, radius, tol), rel=1e-9)
            assert collided[i] == pytest.approx(
                2.0 * campbell_simpson(q[i], h2, alpha, 0.0, radius, tol), rel=1e-9)


def test_frame_coverage_runs_without_scipy(monkeypatch):
    # the Gauss-Legendre and Gauss-Jacobi rules, built afresh here, the
    # coverage kernel and the rank sums are numpy alone
    cfgs = [low_altitude_config(2.0, 1.0), low_altitude_config(1e-300, 1.0), *mixed_batch()]
    expected = frame_coverage_probs(cfgs)
    for name in [name for name in sys.modules if name.partition(".")[0] == "scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setitem(sys.modules, "scipy", None)
    for rule in ("_legendre_rule", "_jacobi_table"):
        monkeypatch.setattr(analytic, rule, functools.cache(getattr(analytic, rule).__wrapped__))
    with pytest.raises(ImportError):
        import scipy.special  # noqa: F401
    assert frame_coverage_probs(cfgs) == expected
    assert analytic._jacobi_table.cache_info().currsize > 0


def test_frame_coverage_finite_as_the_altitude_vanishes():
    # h^2 underflows to 0 at h = 1e-300: the cut keeps the collided span, and
    # so the rule, finite; the hypergeometric closed form gave the same value
    cfg = default_config()
    low = replace(cfg, geometry=replace(cfg.geometry, uav_altitude=1e-300))
    assert frame_coverage_prob(low).p_succ == pytest.approx(0.13590788596581202, abs=1e-12)


def test_laplace_transforms_match_quadrature(default_cfg):
    i = slot_statistics(default_cfg)
    R = default_cfg.geometry.cell_radius
    h2 = default_cfg.geometry.uav_altitude**2
    alpha = default_cfg.channel.pathloss_exp
    for r_hat in (0.0, 25.0, 49.0, R):
        s = reference_s(default_cfg, r_hat)
        q = s * default_cfg.mean_packet_power() * default_cfg.channel.pathloss_coeff
        sing = math.exp(-2 * math.pi * i.omega_s * campbell_simpson(q, h2, alpha, r_hat, R))
        coll = math.exp(-2 * math.pi * i.omega_c * campbell_simpson(q, h2, alpha, 0.0, R))
        single = laplace_singleton(s, r_hat, default_cfg, i.omega_s)
        assert single == pytest.approx(sing, rel=1e-12)
        assert laplace_collided(s, default_cfg, i.omega_c) == pytest.approx(coll, rel=1e-12)


def conditional_coverage_simpson(k, cfg, n_singleton, stats):
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
            * laplace_singleton(s, r_hat, cfg, stats.omega_s)
            * laplace_collided(s, cfg, stats.omega_c)
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
    stats = slot_statistics(cfg)
    value = conditional_coverage(k, cfg, n_singleton, stats)
    oracle = conditional_coverage_simpson(k, cfg, n_singleton, stats)
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
        [(values, errs)] = analytic._ranks_coverages([n_singleton], lambda t, point: t**m)
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
    kernel = analytic._coverage_kernels([cfg], [slot_statistics(cfg)])
    [(at_k, _)] = analytic._ranks_coverages([float(k)], kernel)
    for eps in (1e-6, 1e-9, 1e-12, 1e-14, math.nextafter(k, math.inf) - k):
        [(above, _)] = analytic._ranks_coverages([k + eps], kernel)
        assert len(above) == k + 1
        np.testing.assert_allclose(above[:k], at_k, rtol=0, atol=eps + 1e-14)


def count_rule_pairs(calls):
    """A spy for ``_gauss_jacobi`` that adds its rule pairs to ``calls``."""
    gauss_jacobi = analytic._gauss_jacobi

    def spy(a, n):
        calls["rule_pairs"] += np.size(n)
        return gauss_jacobi(a, n)
    return spy


# Exponents between the table's points, near f = 0, and near f = -1, where
# the top node tends to 1 like f + 1
BETWEEN_TABLE_POINTS = np.concatenate((
    0.5 * (analytic._JACOBI_F[1:] + analytic._JACOBI_F[:-1]),
    [-0.999, -1.0 + 1e-9, -1.0 + 1e-12, -1e-3],
))


@pytest.mark.parametrize("m", [1, 2, 16, 17, 36, 64])
def test_interpolated_rules_match_a_direct_newton_solve(m):
    f = BETWEEN_TABLE_POINTS
    y, u = analytic._jacobi_interpolate(f, [m] * f.size)
    y_ref, u_ref = analytic._jacobi_rules(m, f)
    y, u = y.reshape(f.size, m), u.reshape(f.size, m)
    np.testing.assert_allclose(y, y_ref, rtol=0, atol=1e-14)
    # the top node's 1 - x to its own scale, however close to 1 it lies
    np.testing.assert_allclose(y[:, -1], y_ref[:, -1], rtol=1e-11, atol=0)
    w, w_ref = np.exp(u - np.log(y)), np.exp(u_ref - np.log(y_ref))
    np.testing.assert_allclose(w / w.sum(axis=1, keepdims=True),
                               w_ref / w_ref.sum(axis=1, keepdims=True), rtol=0, atol=1e-12)


def test_table_points_read_the_table_rows():
    f = analytic._JACOBI_F
    y, u = analytic._jacobi_interpolate(f, [16] * f.size)
    scaled_y, table_u = analytic._jacobi_table(16)
    assert np.array_equal(y, (scaled_y / (17.0 + f[:, None])).ravel())
    assert np.array_equal(u, table_u.ravel())


def test_newton_failure_raises_quadrature_error(monkeypatch):
    with pytest.raises(QuadratureError, match="degree 16: Newton's method did not converge"):
        analytic._jacobi_rules(16, np.array([math.nan]))
    # one step cannot also be the step that confirms convergence
    monkeypatch.setattr(analytic, "_JACOBI_ITERATIONS", 1)
    monkeypatch.setattr(analytic, "_jacobi_table", functools.cache(analytic._jacobi_table.__wrapped__))
    with pytest.raises(QuadratureError, match="did not converge"):
        frame_coverage_prob(reference_config())


def test_one_table_build_per_degree(monkeypatch):
    built = []
    build = analytic._jacobi_table.__wrapped__

    def spy(m):
        built.append(m)
        return build(m)

    monkeypatch.setattr(analytic, "_jacobi_table", functools.cache(spy))
    cfgs = mixed_batch()
    first = frame_coverage_probs(cfgs)
    assert frame_coverage_probs(cfgs) == first
    assert [frame_coverage_prob(cfg) for cfg in cfgs] == first
    ranks = {len(r.conditional_terms) for r in first} - {0}
    degrees = {analytic._OUTER_NODES + k // 2 for k in ranks}
    assert sorted(built) == sorted(degrees | {2 * n for n in degrees})


def test_one_rule_pair_and_kernel_call_per_point(monkeypatch):
    calls = {"kernel": 0, "rule_pairs": 0}
    make_kernel = analytic._coverage_kernels

    def spy_kernel(cfgs, stats):
        g = make_kernel(cfgs, stats)

        def counted(t, point):
            calls["kernel"] += 1
            return g(t, point)
        return counted

    monkeypatch.setattr(analytic, "_coverage_kernels", spy_kernel)
    monkeypatch.setattr(analytic, "_gauss_jacobi", count_rule_pairs(calls))
    rank_counts = []
    for n_active, lam in ((5, 2.0), (20, 8.0), (60, 10.0)):
        calls.update(kernel=0, rule_pairs=0)
        report = frame_coverage_prob(reference_config(n_active=n_active, lam=lam, n_slots=10))
        rank_counts.append(len(report.conditional_terms))
        assert calls == {"kernel": 1, "rule_pairs": 1}
    assert rank_counts == [1, 13, 24]


@pytest.mark.parametrize(
    "n_active,lam,n_slots",
    [(5, 2.0, 20), (20, 8.0, 20), (10, 3.0, 40), (20, 6.0, 6)],
)
def test_batched_ranks_equal_per_rank_values(n_active, lam, n_slots):
    cfg = reference_config(n_active=n_active, lam=lam, n_slots=n_slots)
    stats = slot_statistics(cfg)
    report = frame_coverage_prob(cfg)
    for k, value in enumerate(report.conditional_terms, start=1):
        oracle = conditional_coverage_simpson(k, cfg, stats.n_singleton, stats)
        assert value == pytest.approx(oracle, abs=1e-10), f"k={k}"
        assert value == conditional_coverage(k, cfg, stats.n_singleton, stats), f"k={k}"
    kernel = analytic._coverage_kernels([cfg], [stats])
    [(_, errs)] = analytic._ranks_coverages([stats.n_singleton], kernel)
    assert report.quadrature_error_estimate == pytest.approx(
        sum(errs.tolist()), rel=1e-12, abs=1e-300
    )


def test_non_finite_rank_named_in_quadrature_error():
    def kernel(t, point):
        # finite everywhere except on one node of the 2n-node rule
        g = 1.0 - t
        g[-3] = math.nan
        return g

    with pytest.raises(QuadratureError, match=r"rank k=[1-5]: non-finite") as info:
        analytic._ranks_coverages([4.5], kernel)
    assert math.isnan(info.value.value)


# ----------------------------------------------------------------------------
#  Batched evaluation of many points
# ----------------------------------------------------------------------------

def mixed_batch():
    """Points that differ along all three sweep axes, plus the edge cases."""
    zero = reference_config(n_active=10, lam=0.0)
    zero = replace(zero, traffic=replace(zero.traffic, lambda_min=0.0))
    quiet = reference_config(n_active=20, lam=6.0)
    quiet = replace(quiet, traffic=replace(quiet.traffic, scenario=Scenario.NON_EMERGENCY))
    return [
        reference_config(n_active=5, lam=2.0, n_slots=20),
        reference_config(n_active=20, lam=8.0, n_slots=20),
        zero,
        reference_config(n_active=10, lam=3.0, n_slots=40),
        quiet,
        replace(zero, traffic=replace(zero.traffic, lam=1e-300)),
        reference_config(n_active=60, lam=10.0, n_slots=10),  # 24 ranks
        low_altitude_config(2.0, 1.0),
        reference_config(n_active=20, lam=6.0, n_slots=6),
        reference_config(n_active=15, lam=3.0, n_slots=3),
    ]


@pytest.mark.parametrize("budget", [analytic._RANK_WEIGHTS, 1, 2000])
def test_batched_reports_equal_single_point_reports(monkeypatch, budget):
    # the whole report, bit for bit, whatever batch a point lands in: the
    # default budget takes one batch, 1 one point per batch, 2000 a few;
    # a lone point above the budget is cut into the same row blocks either way
    monkeypatch.setattr(analytic, "_RANK_WEIGHTS", budget)
    cfgs = mixed_batch()
    singles = [frame_coverage_prob(cfg) for cfg in cfgs]
    assert singles[2].conditional_terms == () and singles[2].p_succ == 0.0
    assert [len(singles[i].conditional_terms) for i in (5, 6)] == [1, 24]
    assert frame_coverage_probs([]) == []
    for order in (slice(None), slice(None, None, -1), slice(3, 9)):
        assert frame_coverage_probs(cfgs[order]) == singles[order]
    # a second pathloss exponent, altitude, cell radius or threshold is a
    # second geometry, interleaved A, B, A, B: each report is its own
    for key, value in (("channel.pathloss_exp", 4.0), ("geometry.uav_altitude", 60.0),
                       ("geometry.cell_radius", 80.0), ("reliability.sinr_threshold", 3.0)):
        other = [with_values(cfg, {key: value}) for cfg in cfgs[:2]]
        mixed = [cfgs[0], other[0], cfgs[1], other[1]]
        assert frame_coverage_probs(mixed) == [singles[0], frame_coverage_prob(other[0]),
                                               singles[1], frame_coverage_prob(other[1])], key


@pytest.mark.parametrize("rank_weights", [1, 2000])
def test_rank_weights_in_row_blocks_agree_with_one_block(monkeypatch, rank_weights):
    # the one budget cuts batches and a lone point's ranks alike; each row
    # block is reduced per rule and row on its own, so the reports are the
    # default budget's bit for bit
    cfgs = [mixed_batch()[6], reference_config(20, 8.0, 20), reference_config(5, 2.0, 20)]
    defaults = [frame_coverage_prob(cfg) for cfg in cfgs]
    assert len(defaults[0].conditional_terms) == 24
    monkeypatch.setattr(analytic, "_RANK_WEIGHTS", rank_weights)
    reports = frame_coverage_probs(cfgs) + [frame_coverage_prob(cfg) for cfg in cfgs]
    assert reports == defaults * 2


def test_lone_point_rank_weights_bounded_in_memory():
    # ~2991 singleton ranks: one K x 3n array of all rank weights is ~100 MB
    cfg = reference_config(n_active=3000, lam=10.0, n_slots=1)
    cfg = replace(cfg, frame=replace(cfg.frame, n_subcarriers=10, code_pool_size=1_000_000))
    tracemalloc.start()
    try:
        report = frame_coverage_prob(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.conditional_terms) == math.ceil(report.n_singleton) > 2900
    assert peak < 64 * 2**20


def rank_weights(report):
    """Rank weights K·3n of a report's point: K ranks, n = 16 + floor(K/2)."""
    k = len(report.conditional_terms)
    return k * 3 * (analytic._OUTER_NODES + k // 2)


def no_rule(*args, **kwargs):
    raise AssertionError("a rule was built")


def test_point_weight_cap_admits_a_point_at_the_cap(monkeypatch):
    cfg = mixed_batch()[6]
    reference = frame_coverage_prob(cfg)
    monkeypatch.setattr(analytic, "_POINT_WEIGHTS", rank_weights(reference))
    assert frame_coverage_prob(cfg) == reference


def test_point_above_the_weight_cap_is_refused(monkeypatch):
    # refused before any point's rule is built, the sweep's earlier points too
    cfgs = mixed_batch()
    reference = frame_coverage_prob(cfgs[6])
    weights = rank_weights(reference)
    assert max(rank_weights(frame_coverage_prob(cfg)) for cfg in cfgs[:6]) < weights
    monkeypatch.setattr(analytic, "_POINT_WEIGHTS", weights - 1)
    monkeypatch.setattr(analytic, "_gauss_jacobi", no_rule)
    stated = (f"n_singleton = {reference.n_singleton:.6g} needs K \\* 3n = {weights} rank"
              f" weights, above the {weights - 1} a point may hold")
    # earlier points of another geometry are refused with it, in any order
    higher = [with_values(cfg, {"geometry.uav_altitude": 60.0}) for cfg in cfgs[:6]]
    for points in ([cfgs[6]], cfgs[:7], higher + [cfgs[6]], [cfgs[6]] + higher):
        with pytest.raises(ConfigError, match=stated):
            frame_coverage_probs(points)


def test_sweep_batches_bounded_in_memory():
    # 5000 points of up to 9 ranks: the budget keeps each batch's rank
    # weights small (13 MB peak; one 16x larger budget peaks at 32 MB)
    cfg = reference_config()
    cfgs = [replace(cfg, frame=replace(cfg.frame, n_slots=s)) for s in range(1, 5001)]
    tracemalloc.start()
    try:
        reports = frame_coverage_probs(cfgs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 5000 and all(r.conditional_terms for r in reports)
    assert peak < 24 * 2**20


def test_one_kernel_call_and_rule_pair_per_point_of_a_batch(monkeypatch):
    calls = {"kernel": 0, "rule_pairs": 0}
    make_kernel = analytic._coverage_kernels

    def spy_kernel(cfgs, stats):
        g = make_kernel(cfgs, stats)

        def counted(t, point):
            calls["kernel"] += 1
            return g(t, point)
        return counted

    monkeypatch.setattr(analytic, "_coverage_kernels", spy_kernel)
    monkeypatch.setattr(analytic, "_gauss_jacobi", count_rule_pairs(calls))
    cfgs = mixed_batch()
    reports = frame_coverage_probs(cfgs)
    # one kernel call per geometry, the low-altitude point's and the rest's;
    # the zero-rate point needs no rule
    assert calls == {"kernel": 2, "rule_pairs": len(cfgs) - 1}
    assert sum(r.conditional_terms == () for r in reports) == 1
    # a geometry's points form one batch wherever they stand in the list
    low = [with_values(cfg, {"geometry.uav_altitude": 2.0}) for cfg in cfgs[:2]]
    calls.update(kernel=0, rule_pairs=0)
    frame_coverage_probs([cfgs[0], low[0], cfgs[1], low[1]])
    assert calls == {"kernel": 2, "rule_pairs": 4}


def test_non_finite_rank_in_a_batch_named_in_quadrature_error():
    def kernel(t, point):
        # finite everywhere except on one node of the third point's 2n-node rule
        g = 1.0 - t
        g[np.flatnonzero(point == 2)[-3]] = math.nan
        return g

    rows = analytic._ranks_coverages([2.5, 0.5, 4.5], lambda t, point: 1.0 - t)
    assert [len(values) for values, _ in rows] == [3, 1, 5]
    with pytest.raises(QuadratureError, match=r"rank k=[1-5]: non-finite") as info:
        analytic._ranks_coverages([2.5, 0.5, 4.5], kernel)
    assert math.isnan(info.value.value)
