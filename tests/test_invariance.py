"""Metamorphic invariances: rescalings that must leave both engines' results unchanged.

Each case maps a config to another that describes the same system in other
units, then runs the analytics and the simulator on both.  Tolerances are
fixed by the arithmetic: at the default point a common power factor
cancels exactly, so p_succ is asserted bit-identical; where the factor
meets noise that matters, or a length factor meets the quadrature, it
cancels only up to rounding, so p_succ is held to 1e-12.  The simulator
draws the same streams for both configs and compares SINRs against the
same threshold, so its estimates are asserted equal under both SINR rules.

The default point is interference-limited: noise × 1000 alone moves only
4 of its 5105 conservative decodes.  The power case is therefore also run
at noise × 1e5, where noise costs about a quarter of the coverage.

The last case changes a key the config's scenario ignores
(``config.reads_key``): every report and estimate must stay bit-identical.
"""

import pytest

from musalink import config
from musalink.analytic import frame_coverage_prob
from musalink.config import Scenario, Scheme, reads_key, with_values
from musalink.simulator import estimate_coverage

from conftest import reference_config

N_FRAMES = 500
SEED = 3


def _scaled(cfg, factors):
    """``cfg`` with each config key in ``factors`` multiplied by its factor."""
    values = {}
    for key, factor in factors.items():
        section, attr = key.split(".")
        values[key] = getattr(getattr(cfg, section), attr) * factor
    return with_values(cfg, values)


def _estimates(cfg):
    return [estimate_coverage(cfg, Scheme.BASELINE, N_FRAMES, SEED, sinr_rule=rule)
            for rule in ("conservative", "post_mmse")]


@pytest.mark.parametrize("noise_factor, tol", [(1.0, 0.0), (1e5, 1e-12)])
def test_power_and_noise_scaled_together_change_nothing(noise_factor, tol):
    cfg = _scaled(reference_config(n_active=10, lam=2.0, n_slots=20),
                  {"channel.noise_power": noise_factor})
    scaled = _scaled(cfg, {"power.p_max": 1000.0, "channel.noise_power": 1000.0})
    assert frame_coverage_prob(scaled).p_succ == pytest.approx(
        frame_coverage_prob(cfg).p_succ, rel=0, abs=tol
    )
    estimates = _estimates(cfg)
    assert all(0 < est.packets_decoded < est.packets_generated for est in estimates)
    assert _estimates(scaled) == estimates


def test_lengths_scaled_with_pathloss_coeff_change_nothing():
    cfg = reference_config(n_active=10, lam=2.0, n_slots=20)
    alpha = cfg.channel.pathloss_exp
    scaled = _scaled(cfg, {
        "geometry.cell_radius": 2.0,
        "geometry.uav_altitude": 2.0,
        "geometry.min_radius": 2.0,
        "channel.pathloss_coeff": 2.0 ** alpha,
    })
    assert frame_coverage_prob(scaled).p_succ == pytest.approx(
        frame_coverage_prob(cfg).p_succ, rel=0, abs=1e-12
    )
    estimates = _estimates(cfg)
    assert all(0 < est.packets_decoded < est.packets_generated for est in estimates)
    assert _estimates(scaled) == estimates


def test_keys_a_scenario_ignores_change_nothing():
    # each key the non-emergency scenario is said to ignore, set far from its
    # default: neither engine's result moves, for any scheme
    cfg = with_values(reference_config(n_active=10, lam=2.0, n_slots=20),
                      {"traffic.scenario": Scenario.NON_EMERGENCY})
    changes = {"traffic.lambda": 7.0, "traffic.lambda_min": 5.0,
               "traffic.lambda_max": 1.0, "delta_slack": 3.0}
    assert set(changes) == config._IGNORED_KEYS[Scenario.NON_EMERGENCY]
    assert all(reads_key(cfg, key) == (key not in changes) for key in config._KEY_TABLE)
    for key, value in changes.items():
        changed = with_values(cfg, {key: value})
        assert frame_coverage_prob(changed) == frame_coverage_prob(cfg), key
        for scheme in Scheme:
            assert (estimate_coverage(changed, scheme, 50, SEED)
                    == estimate_coverage(cfg, scheme, 50, SEED)), (key, scheme)
