"""Configuration types, unit conversions, validation and text round trips."""

import io
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from musalink.config import (
    ConfigError,
    Scenario,
    db_to_linear,
    dbm_to_watts,
    default_config,
    linear_to_db,
    load_config,
    serialize_config,
    validate_config,
    watts_to_dbm,
)

REFERENCE_DOC = """
# reference scenario
geometry.cell_radius = 50
geometry.uav_altitude = 125
channel.pathloss_coeff = 0 dB
channel.pathloss_exp = 2.2
channel.noise_power = -100 dBm
channel.bandwidth = 5e6
frame.frame_duration = 1e-3
frame.packet_bits = 200
frame.code_pool_size = 64
power.p_max = 10 dBm
reliability.sinr_threshold = 0 dB
"""


def test_db_conversions_round_trip():
    assert db_to_linear(0.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-12)
    assert dbm_to_watts(-100.0) == pytest.approx(1e-13, rel=1e-12)
    for db in (-31.7, 0.0, 12.5):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)
    for w in (1e-13, 0.01, 3.7):
        assert dbm_to_watts(watts_to_dbm(w)) == pytest.approx(w, rel=1e-12)


def test_active_intensity_inverts_disc_area():
    cfg = default_config()
    omega = cfg.active_intensity()
    area = math.pi * cfg.geometry.cell_radius**2
    assert omega * area == pytest.approx(cfg.traffic.n_active, rel=1e-12)


def test_load_reference_document():
    cfg = load_config(REFERENCE_DOC)
    assert cfg.geometry.cell_radius == 50
    assert cfg.geometry.uav_altitude == 125
    assert cfg.channel.pathloss_coeff == pytest.approx(1.0)
    assert cfg.channel.pathloss_exp == 2.2
    assert cfg.channel.noise_power == pytest.approx(1e-13)
    assert cfg.channel.bandwidth == 5e6
    assert cfg.frame.frame_duration == 1e-3
    assert cfg.frame.packet_bits == 200
    assert cfg.frame.code_pool_size == 64
    assert cfg.power.p_max == pytest.approx(0.01)
    assert cfg.reliability.sinr_threshold == pytest.approx(1.0)


def test_load_accepts_bytes_and_streams():
    doc = "traffic.lambda = 6\n"
    for source in (doc, doc.encode(), io.StringIO(doc), io.BytesIO(doc.encode())):
        assert load_config(source).traffic.lam == 6.0


def test_empty_document_gives_defaults():
    assert load_config("") == default_config()


def test_lambda_above_max_names_c5():
    doc = "traffic.lambda = 11\ntraffic.lambda_max = 10\n"
    with pytest.raises(ConfigError, match="C5"):
        load_config(doc)


def test_parse_error_carries_line_context():
    with pytest.raises(ConfigError, match="line 2"):
        load_config("traffic.lambda = 4\nnot a key value line\n")
    for key in ("traffic.bogus", "power.mode", "power.exact_rho_max",
                "reliability.dispersion", "traffic.tail_truncation"):
        with pytest.raises(ConfigError, match=f"line 1: unknown key '{key}'"):
            load_config(f"{key} = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_config("traffic.n_active = not_an_int\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config("traffic.lambda = 4\ntraffic.lambda = 5\n")


def test_validate_default_is_clean(default_cfg):
    assert validate_config(default_cfg) == []


def test_validate_reports_c6():
    cfg = default_config()
    cfg = replace(cfg, geometry=replace(cfg.geometry, cell_radius=5.0, min_radius=10.0))
    issues = validate_config(cfg)
    assert any(issue.startswith("C6") for issue in issues)


def test_validate_reports_c4():
    cfg = default_config()
    cfg = replace(cfg, traffic=replace(cfg.traffic, lam=1.0, lambda_min=2.0))
    issues = validate_config(cfg)
    assert any(issue.startswith("C4") for issue in issues)


def test_c4_c5_only_checked_in_emergency():
    cfg = default_config()
    cfg = replace(
        cfg,
        traffic=replace(cfg.traffic, lam=1.0, lambda_min=2.0,
                        scenario=Scenario.NON_EMERGENCY),
    )
    assert validate_config(cfg) == []


def test_validate_reports_type_invariants():
    cfg = default_config()
    cfg = replace(cfg, channel=replace(cfg.channel, noise_power=0.0))
    assert any("noise_power" in issue for issue in validate_config(cfg))
    cfg = default_config()
    cfg = replace(cfg, frame=replace(cfg.frame, n_subcarriers=2, code_pool_size=64))
    assert any("code_pool_size" in issue for issue in validate_config(cfg))


def test_serialize_round_trip_is_identity():
    cfg = default_config()
    assert load_config(serialize_config(cfg)) == cfg
    # a config with awkward floats and non-default enums
    varied = replace(
        cfg,
        traffic=replace(cfg.traffic, lam=3.7182818284590455,
                        scenario=Scenario.NON_EMERGENCY),
        power=replace(cfg.power, p_max=0.012345678901234567),
        delta_slack=1.5e-7,
    )
    assert load_config(serialize_config(varied)) == varied


def test_readme_config_block_loads_to_defaults():
    # the README documents every key at its default value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert load_config(block) == default_config()


def test_rho_max_proxy_quantile():
    cfg = default_config()  # lam=4, quantile 0.99
    rho = cfg.rho_max_proxy()
    assert stats.poisson.cdf(rho, 4.0) >= 0.99
    assert stats.poisson.cdf(rho - 1, 4.0) < 0.99
    non_emerg = replace(
        cfg, traffic=replace(cfg.traffic, scenario=Scenario.NON_EMERGENCY)
    )
    assert non_emerg.rho_max_proxy() == 1


def test_mean_packet_power_modes():
    cfg = default_config()
    assert cfg.mean_packet_power() == pytest.approx(cfg.power.p_max / cfg.rho_max_proxy())


def test_poisson_helpers_equal_scipy_stats():
    from scipy import stats as sps

    lams = np.concatenate([np.linspace(0.5, 12.0, 47), [0.0, 1e-3, 25.0, 100.0]])
    quantiles = (0.01, 0.5, 0.9, 0.99, 0.999)
    cfg = default_config()
    for lam in lams:
        for q in quantiles:
            varied = replace(
                cfg,
                traffic=replace(cfg.traffic, lam=float(lam)),
                power=replace(cfg.power, rho_max_proxy_quantile=q),
            )
            expected = max(1, int(sps.poisson.ppf(q, lam)))
            assert varied.rho_max_proxy() == expected, (lam, q)


def run_fresh_interpreter(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter importing this musalink."""
    import musalink

    src_dir = str(Path(musalink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return out.stdout.strip()


def test_import_leaves_scipy_stats_unloaded():
    code = (
        "import sys\n"
        "import musalink as ml\n"
        "ml.frame_coverage_prob(ml.default_config())\n"
        "ml.adaptive_slots(ml.default_config())\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    assert run_fresh_interpreter(code) == "False"


def test_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg takes tens of ms to import; only an analysis loads it
    code = "import sys\nimport musalink\nprint('scipy.linalg' in sys.modules)\n"
    assert run_fresh_interpreter(code) == "False"
