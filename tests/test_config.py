"""Configuration types, unit conversions, validation and text round trips."""

import ast
import importlib
import inspect
import io
import math
import pkgutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import musalink
from musalink import config
from musalink.config import (
    ConfigError,
    Scenario,
    db_to_linear,
    dbm_to_watts,
    default_config,
    load_config,
    serialize_config,
    slot_occupancy_prob,
    validate_config,
)

from conftest import fresh_interpreter_env

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
                "reliability.dispersion", "traffic.tail_truncation",
                "power.rho_max_proxy_quantile"):
        with pytest.raises(ConfigError, match=f"line 1: unknown key '{key}'"):
            load_config(f"{key} = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_config("traffic.n_active = not_an_int\n")
    # an integer key reads a finite whole number in any float spelling
    for raw in ("10", "10.0", "1e1", "+10", "1_0"):
        assert load_config(f"traffic.n_active = {raw}\n").traffic.n_active == 10
    assert type(load_config("frame.n_slots = 2e1\n").frame.n_slots) is int
    for raw in ("10.5", "1e-1", "nan", "inf", "-inf", "1e400", "0x10"):
        with pytest.raises(ConfigError, match="^line 3: bad value for frame.packet_bits: "):
            load_config(f"# integer\n\nframe.packet_bits = {raw}\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config("traffic.lambda = 4\ntraffic.lambda = 5\n")
    for line in ("traffic.lambda = nan", "delta_slack = nan",
                 "frame.frame_duration = nan", "channel.bandwidth = inf",
                 "channel.noise_power = -inf dBm", "channel.noise_power = 5000 dBm"):
        with pytest.raises(ConfigError, match="^line 2: bad value for "):
            load_config(f"# non-finite\n{line}\n")


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
    for coeff in (0.0, -1.0):
        cfg = default_config()
        cfg = replace(cfg, channel=replace(cfg.channel, pathloss_coeff=coeff))
        assert validate_config(cfg) == ["channel: pathloss_coeff must be > 0"]
    cfg = default_config()
    cfg = replace(cfg, frame=replace(cfg.frame, n_subcarriers=2, code_pool_size=64))
    assert any("code_pool_size" in issue for issue in validate_config(cfg))


def test_code_pool_check_is_exact_and_constant_time():
    def exceeds(j, pool):
        cfg = config.with_values(
            default_config(), {"frame.n_subcarriers": j, "frame.code_pool_size": pool}
        )
        return any("code_pool_size exceeds" in issue for issue in validate_config(cfg))

    for j in [*range(13), 40]:
        for pool in (4**j - 1, 4**j, 4**j + 1, 0, 1, 2, 10**40):
            for j_int, pool_int in ((int, int), (np.int64, int), (int, np.int64),
                                    (np.int64, np.int64)):
                if pool_int is np.int64 and pool >= 2**63:
                    continue
                assert exceeds(j_int(j), pool_int(pool)) == (4**j < pool), (j, pool)
    # 4**(10**9) would take seconds and a quarter of a gigabyte
    cfg = config.with_values(default_config(), {"frame.n_subcarriers": 10**9})
    assert validate_config(cfg) == []


def test_nan_breaks_every_lower_bound():
    bounded = {key for key in config._KEY_TABLE if config.key_domain(key)[1] is not None}
    assert {"traffic.lambda", "frame.frame_duration", "delta_slack", "traffic.n_active",
            "frame.n_slots"} <= bounded
    for key in bounded:
        op, bound = config.key_domain(key)[1]
        issues = validate_config(config.with_values(default_config(), {key: math.nan}))
        assert f"{key.replace('.', ': ')} must be {op} {bound:g}" in issues, key


INT_KEYS = ["traffic.n_active", "frame.n_slots", "frame.packet_bits",
            "frame.n_subcarriers", "frame.code_pool_size"]


@pytest.mark.parametrize("key", INT_KEYS)
def test_int_key_must_hold_an_integer(key):
    assert [k for k in config._KEY_TABLE if config.key_domain(k)[0] == "int"] == INT_KEYS
    default = config._field(default_config(), *config._KEY_TABLE[key][:2])
    message = f"{key.replace('.', ': ')} must be an integer"
    for value in (default + 0.5, float(default)):
        issues = validate_config(config.with_values(default_config(), {key: value}))
        assert issues == [message], value
    for value in (default, np.int64(default), np.int32(default)):
        assert validate_config(config.with_values(default_config(), {key: value})) == []


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
    # and each key's lower bound as its table row states it
    for line in block.splitlines():
        bound = config.key_domain(line.split(" = ", 1)[0])[1]
        if bound:
            assert line.endswith(f"[{bound[0]} {bound[1]:g}]"), line
        else:
            assert "[" not in line, line


def test_rho_max_proxy_quantile():
    cfg = default_config()  # lam=4, quantile 0.99
    rho = cfg.rho_max_proxy()
    assert stats.poisson.cdf(rho, 4.0) >= 0.99
    assert stats.poisson.cdf(rho - 1, 4.0) < 0.99
    non_emerg = replace(
        cfg, traffic=replace(cfg.traffic, scenario=Scenario.NON_EMERGENCY)
    )
    assert non_emerg.rho_max_proxy() == 1


def test_packet_count_law_by_scenario():
    emergency = replace(default_config().traffic, n_active=6, lam=3.0)
    quiet = replace(emergency, scenario=Scenario.NON_EMERGENCY)
    assert (emergency.mean_packets(), quiet.mean_packets()) == (3.0, 1.0)
    for n_slots in (1, 2, 20):
        assert emergency.slot_occupancy(n_slots) == slot_occupancy_prob(3.0, n_slots)
        assert quiet.slot_occupancy(n_slots) == 1.0 / n_slots
    counts = emergency.packet_counts(np.random.default_rng(5))
    assert counts.tolist() == np.random.default_rng(5).poisson(3.0, 6).tolist()
    # one packet each, drawn without reading the stream
    rng = np.random.default_rng(5)
    counts = quiet.packet_counts(rng)
    assert counts.dtype == np.int64 and counts.tolist() == [1] * 6
    assert rng.random() == np.random.default_rng(5).random()


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
            expected = int(sps.poisson.ppf(q, lam))
            assert config._poisson_quantile(q, float(lam)) == expected, (lam, q)
        varied = replace(cfg, traffic=replace(cfg.traffic, lam=float(lam)))
        assert varied.rho_max_proxy() == max(1, int(sps.poisson.ppf(0.99, lam))), lam


def run_fresh_interpreter(code: str) -> str:
    """Stdout of ``code`` run by a new interpreter importing this musalink."""
    out = subprocess.run(
        [sys.executable, "-c", code], env=fresh_interpreter_env(), capture_output=True,
        text=True, check=True, timeout=120,
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


def test_public_names_are_listed_and_exist():
    # every name a module exports exists there, and every name the package
    # re-exports is exported by its module, so a trimmed list cannot go stale
    for info in pkgutil.iter_modules(musalink.__path__):
        module = importlib.import_module(f"musalink.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], info.name
    tree = ast.parse(inspect.getsource(musalink))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    for node in imports:
        exported = importlib.import_module(f"musalink.{node.module}").__all__
        unlisted = [alias.name for alias in node.names if alias.name not in exported]
        assert unlisted == [], node.module
