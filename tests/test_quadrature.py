"""Adaptive Simpson quadrature against exact and dense-grid oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from musalink.analytic import QuadratureError
from musalink.config import default_config

from simpson import adaptive_simpson


def test_polynomial_exact():
    value, err = adaptive_simpson(lambda x: x * x, 0.0, 1.0, tol=1e-12)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert err <= 1e-10


def test_disk_distance_density_normalizes():
    R = 50.0
    value, _ = adaptive_simpson(lambda x: 2.0 * x / R**2, 0.0, R, tol=1e-12)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_reversed_limits_negate():
    fwd, _ = adaptive_simpson(math.sin, 0.0, 2.0)
    rev, _ = adaptive_simpson(math.sin, 2.0, 0.0)
    assert rev == pytest.approx(-fwd, abs=1e-14)


def test_interference_kernel_matches_dense_trapezoid():
    # the annulus interference integrand at the reference parameters
    cfg = default_config()
    p_bar = cfg.mean_packet_power()
    beta = cfg.channel.pathloss_coeff
    alpha = cfg.channel.pathloss_exp
    h2 = cfg.geometry.uav_altitude**2
    r_hat, radius = 25.0, cfg.geometry.cell_radius
    theta = cfg.reliability.sinr_threshold
    s = theta * (r_hat**2 + h2) ** (alpha / 2) / (p_bar * beta)
    q = s * p_bar * beta

    def f(r):
        x = q * (r * r + h2) ** (-alpha / 2)
        return x / (1.0 + x) * r

    value, _ = adaptive_simpson(f, r_hat, radius, tol=1e-8)
    grid = np.linspace(r_hat, radius, 1_000_001)
    x = q * (grid**2 + h2) ** (-alpha / 2)
    dense = trapezoid(x / (1.0 + x) * grid, grid)
    assert value == pytest.approx(dense, abs=1e-8)


def test_max_depth_raises_with_best_estimate():
    # highly oscillatory integrand at an impossible tolerance and depth
    with pytest.raises(QuadratureError) as info:
        adaptive_simpson(lambda x: math.sin(1000.0 * x), 0.0, 3.0, tol=1e-14, max_depth=3)
    exc = info.value
    assert math.isfinite(exc.value)
    assert exc.error_estimate > 0
