"""Finite-blocklength error model: series oracle, identities and trends."""

import math
from dataclasses import replace

import numpy as np
import pytest

from musalink.config import Scenario, default_config
from musalink.shortpacket import error_prob_ln_form, max_snr_proxy, q_function

from oracles import BlocklengthPoint, packet_error_prob

# reference operating point
B = 5e6
T_F = 1e-3
D = 200
V = math.log2(math.e) ** 2


def q_series_oracle(x: float) -> float:
    """Q via the Maclaurin series of erf, independent of math.erfc."""
    z = x / math.sqrt(2.0)
    total = 0.0
    term = z
    n = 0
    while abs(term) > 1e-18 * max(1.0, abs(total)):
        total += term / (2 * n + 1)
        n += 1
        term *= -z * z / n
    erf = 2.0 / math.sqrt(math.pi) * total
    return 0.5 * (1.0 - erf)


def test_q_function_anchors():
    assert q_function(0.0) == 0.5
    assert q_function(math.inf) == 0.0
    assert q_function(-math.inf) == 1.0


def test_q_function_matches_series_oracle():
    for x in (-3.0, -1.0, 0.3, 1.5, 2.192, 4.0):
        assert q_function(x) == pytest.approx(q_series_oracle(x), abs=1e-12)


def point(gamma, n_slots):
    return BlocklengthPoint(
        sinr=gamma, n_slots=n_slots, channel_uses=B * T_F, packet_bits=D
    )


def test_error_half_at_rate_matching_sinr():
    # capacity equals the per-slot rate -> Q(0)
    n = 20
    gamma = 2.0 ** (D * n / (B * T_F)) - 1.0
    assert packet_error_prob(point(gamma, n)) == pytest.approx(0.5, abs=1e-15)


def test_error_prob_reference_substitution():
    # at unit SINR and 20 slots the argument is sqrt(250/V) * 0.2
    arg = math.sqrt(250.0 / V) * (1.0 - 0.8)
    expected = q_series_oracle(arg)
    assert packet_error_prob(point(1.0, 20)) == pytest.approx(expected, abs=1e-12)


def test_error_prob_vanishes_at_high_sinr():
    assert packet_error_prob(point(1e30, 20)) == 0.0


def test_error_prob_rejects_bad_sinr():
    with pytest.raises(ValueError):
        packet_error_prob(point(0.0, 20))
    with pytest.raises(ValueError):
        packet_error_prob(point(-1.0, 20))


def test_blocklength_point_invariants():
    with pytest.raises(ValueError):
        BlocklengthPoint(sinr=1.0, n_slots=0.0, channel_uses=5000, packet_bits=D)
    with pytest.raises(ValueError):
        BlocklengthPoint(sinr=1.0, n_slots=8000, channel_uses=5000, packet_bits=D)


def test_ln_form_base_change_identity_single_point():
    got = error_prob_ln_form(1.0, 20.0, B, T_F, D)
    assert got == pytest.approx(packet_error_prob(point(1.0, 20.0)), abs=1e-12)


def test_ln_form_base_change_identity_random_grid():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        gamma = 10.0 ** rng.uniform(-1, 2)       # [0.1, 100]
        n = rng.uniform(1.0, 200.0)
        a = error_prob_ln_form(gamma, n, B, T_F, D)
        b = packet_error_prob(point(gamma, n))
        assert a == pytest.approx(b, abs=1e-12)


def test_ln_form_limit_small_n():
    assert error_prob_ln_form(1.0, 1e-9, B, T_F, D) == 0.0


def test_error_nondecreasing_in_slots():
    # full documented grid; ties allowed where the argument under/overflows
    for gamma in (1.0, 3.16, 10.0):
        eps = [packet_error_prob(point(gamma, n)) for n in range(1, 201)]
        assert all(b >= a for a, b in zip(eps, eps[1:])), f"gamma={gamma}"


def test_error_strictly_increasing_in_slots_inside_float_range():
    eps = [packet_error_prob(point(1.0, n)) for n in range(2, 51)]
    assert all(b > a for a, b in zip(eps, eps[1:]))


def test_error_strictly_decreasing_in_sinr():
    gammas = [0.5, 1.0, 2.0, 3.16, 5.0, 10.0]
    eps = [packet_error_prob(point(g, 20)) for g in gammas]
    assert all(b < a for a, b in zip(eps, eps[1:]))


def test_error_in_unit_interval():
    rng = np.random.default_rng(9)
    for _ in range(200):
        gamma = 10.0 ** rng.uniform(-3, 3)
        n = rng.uniform(1.0, 400.0)
        eps = packet_error_prob(point(gamma, n))
        assert 0.0 <= eps <= 1.0


def make_proxy_cfg(p_max, altitude, alpha, noise):
    cfg = default_config()
    return replace(
        cfg,
        geometry=replace(cfg.geometry, uav_altitude=altitude, min_radius=0.0),
        channel=replace(cfg.channel, pathloss_exp=alpha, noise_power=noise),
        traffic=replace(cfg.traffic, scenario=Scenario.NON_EMERGENCY),  # proxy 1: p_bar = p_max
        power=replace(cfg.power, p_max=p_max),
    )


def test_max_snr_proxy_constructed_identity():
    cfg = make_proxy_cfg(p_max=1e-13, altitude=1.0, alpha=2.0, noise=1e-13)
    assert max_snr_proxy(cfg) == pytest.approx(1.0, rel=1e-12)


def test_max_snr_proxy_matches_db_budget():
    cfg = make_proxy_cfg(p_max=0.01, altitude=125.0, alpha=2.2, noise=1e-13)
    budget_db = 10.0 + 0.0 - 2.2 * 10.0 * math.log10(125.0) - (-100.0)
    assert max_snr_proxy(cfg) == pytest.approx(10 ** (budget_db / 10.0), rel=1e-9)


def test_max_snr_proxy_pathloss_law():
    near = make_proxy_cfg(p_max=0.01, altitude=1.0, alpha=2.0, noise=1e-13)
    far = make_proxy_cfg(p_max=0.01, altitude=2.0, alpha=2.0, noise=1e-13)
    assert max_snr_proxy(near) / max_snr_proxy(far) == pytest.approx(4.0, rel=1e-12)
