"""Slot-count optimization: root solver, bounds and oracle."""

import math
from dataclasses import replace

import numpy as np
import pytest

from musalink.config import Scenario
from musalink.optimizer import (
    InfeasibleError,
    adaptive_slots,
    brute_force_slots,
    solve_n_epsilon,
)
from musalink.shortpacket import error_prob_ln_form, max_snr_proxy

from conftest import reference_config

B = 5e6
T_F = 1e-3
D = 200


# ----------------------------------------------------------------------------
#  Reliability-bound root
# ----------------------------------------------------------------------------

def test_half_target_closed_form():
    for gamma in (0.5, 1.0, 100.0):
        expected = B * T_F * math.log2(1.0 + gamma) / D
        assert solve_n_epsilon(gamma, 0.5, B, T_F, D) == pytest.approx(expected, rel=1e-14)


def test_root_matches_grid_scan_oracle():
    cfg = reference_config()
    gamma = max_snr_proxy(cfg)
    eps = 1e-5
    root = solve_n_epsilon(gamma, eps, B, T_F, D)
    # dense scan bracketing the sign change
    n_up = B * T_F * math.log2(1.0 + gamma) / D
    grid = np.linspace(1.0, n_up, 1_000_000)
    bt = B * T_F
    args = np.sqrt(bt / grid) * (np.log1p(gamma) - D / bt * math.log(2.0) * grid)
    from scipy.special import erfc

    errs = 0.5 * erfc(args / math.sqrt(2.0)) - eps
    idx = int(np.searchsorted(np.sign(errs), 1.0))
    assert errs[idx - 1] < 0 <= errs[idx]
    assert grid[idx - 1] <= root <= grid[idx]


def test_root_residual_and_monotone_bracket():
    cfg = reference_config()
    gamma = max_snr_proxy(cfg)
    eps = 1e-5
    root = solve_n_epsilon(gamma, eps, B, T_F, D)
    assert abs(error_prob_ln_form(gamma, root, B, T_F, D) - eps) <= 1e-10
    n_up = B * T_F * math.log2(1.0 + gamma) / D
    probe = np.linspace(1.0, n_up, 100)
    vals = [error_prob_ln_form(gamma, n, B, T_F, D) for n in probe]
    # nondecreasing throughout; strictly increasing wherever the Q argument
    # stays inside floating-point range (the far tail underflows to 0)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    inside = [(a, b) for a, b in zip(vals, vals[1:]) if b > 0.0]
    assert inside and all(b > a for a, b in inside)


def test_root_infeasible_at_low_sinr():
    with pytest.raises(InfeasibleError, match="C3"):
        solve_n_epsilon(0.01, 1e-5, B, T_F, D)


def test_closed_form_relative_residual_and_half_target_c3():
    # the quadratic's root meets the target to rounding at every scale,
    # including targets far below any absolute stopping tolerance
    worst = 0.0
    for eps in (1e-9, 1e-7, 1e-5, 1e-3, 0.1, 0.3):
        for gamma in np.geomspace(0.2, 1e6, 60):
            root = solve_n_epsilon(float(gamma), eps, B, T_F, D)
            err = error_prob_ln_form(float(gamma), root, B, T_F, D)
            worst = max(worst, abs(err / eps - 1.0))
    assert worst <= 1e-12
    # at epsilon_max = 0.5 the root is n_up; below one slot it is C3
    gamma = 0.02
    assert B * T_F * math.log2(1.0 + gamma) / D < 1.0
    with pytest.raises(InfeasibleError, match="^C3: "):
        solve_n_epsilon(gamma, 0.5, B, T_F, D)


# ----------------------------------------------------------------------------
#  Adaptive slot selection
# ----------------------------------------------------------------------------

def test_traffic_bound_binds_at_light_load():
    cfg = reference_config(n_active=10, lam=2.0)
    out = adaptive_slots(cfg)
    assert out.n_practical == 20
    assert out.binding == "C1"
    assert out.n_lambda_bound == pytest.approx(20.0)
    assert out.n_epsilon_bound > 20.0


def test_floor_min_decomposition():
    for n_active, lam in [(10, 2.0), (10, 6.0), (20, 10.0), (15, 7.5)]:
        cfg = reference_config(n_active=n_active, lam=lam)
        out = adaptive_slots(cfg)
        assert out.n_practical == math.floor(min(out.n_lambda_bound, out.n_epsilon_bound))
        assert out.n_star == min(out.n_lambda_bound, out.n_epsilon_bound)
        expected_binding = "C1" if out.n_lambda_bound <= out.n_epsilon_bound else "C3"
        assert out.binding == expected_binding
        assert out.residual <= 1e-10
        assert out.n_practical >= math.ceil(cfg.traffic.lam)


def test_heavy_load_consistent_with_reliability_bound():
    cfg = reference_config(n_active=20, lam=10.0)
    out = adaptive_slots(cfg)
    if out.n_epsilon_bound < 200.0:
        assert out.binding == "C3"
        assert out.n_practical == math.floor(out.n_epsilon_bound)
    else:
        assert out.binding == "C1"
        assert out.n_practical == 200


def test_delta_slack_raises_traffic_bound():
    cfg = replace(reference_config(n_active=10, lam=2.0), delta_slack=3.0)
    out = adaptive_slots(cfg)
    assert out.n_lambda_bound == pytest.approx(23.0)
    assert out.n_practical == 23


def test_c2_conflict_reported():
    # huge packets push the reliability bound below the mean packet count
    cfg = reference_config(n_active=10, lam=3.0)
    cfg = replace(cfg, frame=replace(cfg.frame, packet_bits=40_000))
    with pytest.raises(InfeasibleError, match="C2"):
        adaptive_slots(cfg)


def test_zero_rate_without_slack_reported_as_c2():
    # lambda = 0 and no slack leave a traffic bound of zero slots
    cfg = reference_config(n_active=10, lam=0.0)
    cfg = replace(cfg, traffic=replace(cfg.traffic, lambda_min=0.0))
    assert cfg.traffic_slot_bound() == 0.0
    with pytest.raises(InfeasibleError, match="^C2: "):
        adaptive_slots(cfg)


def test_invalid_config_rejected_with_constraint_name():
    cfg = reference_config(n_active=10, lam=1.0)  # below lambda_min=2
    with pytest.raises(InfeasibleError, match="^C4: lambda") as info:
        adaptive_slots(cfg)
    assert info.value.constraint == "C4"
    # each constraint's label is printed once, not once more by the error
    above = reference_config(n_active=10, lam=11.0)  # above lambda_max=10
    ok = reference_config(n_active=10, lam=4.0)
    narrow = replace(ok, geometry=replace(ok.geometry, cell_radius=5.0))  # min_radius=10
    for bad, message in ((above, "^C5: lambda"), (narrow, "^C6: cell_radius")):
        with pytest.raises(InfeasibleError, match=message):
            adaptive_slots(bad)


def test_non_emergency_config_rejected_as_scenario():
    # one packet per device: no constraint is violated, the scenario is wrong
    cfg = reference_config(n_active=10, lam=4.0)
    cfg = replace(cfg, traffic=replace(cfg.traffic, scenario=Scenario.NON_EMERGENCY))
    with pytest.raises(InfeasibleError, match="^scenario: ") as info:
        adaptive_slots(cfg)
    assert info.value.constraint == "scenario"


# ----------------------------------------------------------------------------
#  Brute-force optimality oracle
# ----------------------------------------------------------------------------

def test_brute_force_single_point():
    cfg = reference_config(n_active=10, lam=4.0)
    result = brute_force_slots(cfg, [12])
    assert result.best_n == 12
    assert len(result.curve) == 1


def test_brute_force_confirms_boundary_argmax():
    cfg = reference_config(n_active=10, lam=4.0)
    out = adaptive_slots(cfg)
    grid = sorted({4, 10, 16, 22, 28, 34, out.n_practical})
    result = brute_force_slots(cfg, grid)
    p_at_choice = dict(result.curve)[out.n_practical]
    assert result.best_n == out.n_practical or result.best_p - p_at_choice <= 1e-3
    values = [p for _, p in result.curve]
    assert all(b >= a - 1e-6 for a, b in zip(values, values[1:]))


def test_brute_force_filters_to_feasible_range():
    cfg = reference_config(n_active=10, lam=4.0)
    result = brute_force_slots(cfg, range(1, 1000))
    ns = [n for n, _ in result.curve]
    assert min(ns) == math.ceil(cfg.traffic.lam)
    assert max(ns) == adaptive_slots(cfg).n_practical


def test_brute_force_drops_zero_slots_at_zero_rate():
    cfg = reference_config(n_active=10, lam=0.0)
    cfg = replace(cfg, traffic=replace(cfg.traffic, lambda_min=0.0), delta_slack=3.0)
    result = brute_force_slots(cfg, [0, 1, 2, 3])
    assert [n for n, _ in result.curve] == [1, 2, 3]


def test_brute_force_empty_range():
    cfg = reference_config(n_active=10, lam=4.0)
    with pytest.raises(InfeasibleError):
        brute_force_slots(cfg, [1, 2, 3])  # all below ceil(lam)

