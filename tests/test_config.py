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
    TrafficParams,
    db_to_linear,
    dbm_to_watts,
    default_config,
    load_config,
    serialize_config,
    validate_config,
)

from oracles import poisson_quantile

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


def test_load_drops_one_leading_byte_order_mark():
    doc = "\ufefftraffic.lambda = 6\n"
    for source in (doc, doc.encode(), io.StringIO(doc), io.BytesIO(doc.encode())):
        assert load_config(source).traffic.lam == 6.0
    # only the first: a second mark is part of the key
    with pytest.raises(ConfigError, match=r"line 1: unknown key '\\ufefftraffic"):
        load_config("\ufeff" + doc)


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


@pytest.mark.parametrize("key", INT_KEYS)
def test_int_key_loads_up_to_int64_max(key):
    # the simulator's int64 arrays hold 2^63 - 1, stated as an exact int
    top = config.key_domain(key)[2]
    assert type(top) is int and top == 2**63 - 1
    # 4^32 = 2^64 codes leave room for any pool below 2^63
    wide = "frame.n_subcarriers = 32\n" if key == "frame.code_pool_size" else ""
    assert config._field(load_config(f"{key} = {top}\n" + wide), *config._KEY_TABLE[key][:2]) == top
    with pytest.raises(ConfigError, match=rf"^{key.replace('.', ': ')} must be <= 9\.22337e\+18$"):
        load_config(f"{key} = {top + 1}\n" + wide)


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
    # every integer key beyond 2^53, the first integer a float cannot hold
    ints = {key: 2**53 + 1 for key in config._KEY_TABLE if config.key_domain(key)[0] == "int"}
    assert len(ints) == 5
    huge = config.with_values(cfg, ints)
    assert load_config(serialize_config(huge)) == huge


def test_readme_config_block_loads_to_defaults():
    # the README documents every key at its default value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert load_config(block) == default_config()
    # and each key's bounds as its table row states them: [>= 0], [>= 0, <= 1e+08]
    for line in block.splitlines():
        _, bound, most = config.key_domain(line.split(" = ", 1)[0])
        stated = [f"{bound[0]} {bound[1]:g}"] if bound else []
        stated += [f"<= {most:g}"] if most is not None else []
        if stated:
            assert line.endswith(f"[{', '.join(stated)}]"), line
        else:
            assert "[" not in line, line
    assert "[>= 0, <= 1e+08]" in block


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
    counts = np.arange(200)
    for n_slots in (1, 2, 20):
        # E[min(L, S)]/S summed over the Poisson law
        mean_min = np.minimum(counts, n_slots).dot(stats.poisson.pmf(counts, 3.0)) / n_slots
        assert emergency.slot_occupancy(n_slots) == pytest.approx(mean_min, abs=1e-12)
        assert quiet.slot_occupancy(n_slots) == 1.0 / n_slots
    counts = emergency.packet_counts(np.random.default_rng(5), 4)
    assert counts.tolist() == np.random.default_rng(5).poisson(3.0, (4, 6)).tolist()
    # one packet each, drawn without reading the stream
    rng = np.random.default_rng(5)
    counts = quiet.packet_counts(rng, 4)
    assert counts.dtype == np.int64 and counts.tolist() == [[1] * 6] * 4
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
            assert TrafficParams(lam=float(lam)).quantile(q) == expected, (lam, q)
        varied = replace(cfg, traffic=replace(cfg.traffic, lam=float(lam)))
        assert varied.rho_max_proxy() == max(1, int(sps.poisson.ppf(0.99, lam))), lam


def test_poisson_quantile_equals_the_incomplete_gamma_oracle():
    # the windowed pmf sum against scipy's pdtrik form, on a log-uniform grid
    # over lambda's whole domain [0, 1e8]; the grid and seed are fixed
    lams = np.concatenate([[0.0, 1e8], 10.0 ** np.random.default_rng(26).uniform(-3, 8, 1000)])
    for lam in lams.tolist():
        for q in (0.01, 0.5, 0.9, 0.99, 0.999):
            assert TrafficParams(lam=lam).quantile(q) == poisson_quantile(q, lam), (q, lam)


def test_poisson_quantile_refuses_lambda_outside_its_domain():
    top = config.key_domain("traffic.lambda")[2]
    assert TrafficParams(lam=top).quantile(0.99) == poisson_quantile(0.99, top)
    for lam in (-1e-300, math.nextafter(top, math.inf), 1e19, math.inf, math.nan):
        with pytest.raises(ValueError, match="lambda"):
            TrafficParams(lam=lam).quantile(0.99)
    # validate_config and load_config refuse such a lambda, so no valid config reaches it
    assert validate_config(config.with_values(default_config(), {"traffic.lambda": 2e8})) == [
        "traffic: lambda must be <= 1e+08", "C5: lambda (2e+08) exceeds lambda_max (10)"
    ]
    with pytest.raises(ConfigError, match=r"traffic: lambda must be <= 1e\+08"):
        load_config("traffic.lambda = 1e19\ntraffic.lambda_max = 1e20\n")
    assert load_config("traffic.lambda = 1e8\ntraffic.lambda_max = 1e8\n").rho_max_proxy() == (
        poisson_quantile(config.RHO_MAX_QUANTILE, 1e8)
    )


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
    # scipy.linalg takes tens of ms to import; nothing in the package loads it
    code = "import sys\nimport musalink\nprint('scipy.linalg' in sys.modules)\n"
    assert run_fresh_interpreter(code) == "False"


def test_import_and_coverage_kernel_leave_numpy_polynomial_unloaded():
    # numpy 2 loads numpy.polynomial on first use, for ~0.5 MB and ~2.5 ms:
    # neither the package nor its Gauss-Legendre rules load it
    code = (
        "import sys\nimport numpy\n"
        "before = 'numpy.polynomial' in sys.modules\n"
        "import musalink\n"
        "print(before, 'numpy.polynomial' in sys.modules)\n"
        "from musalink import analytic, config\n"
        "cfgs = [config.default_config(), config.with_values(config.default_config(),"
        " {'geometry.uav_altitude': 1e-300})]\n"
        "g = analytic._coverage_kernels(cfgs, [analytic.slot_statistics(c) for c in cfgs])\n"
        "g(numpy.linspace(0.01, 1.0, 10), numpy.arange(10) % 2)\n"
        "print(before, 'numpy.polynomial' in sys.modules)\n"
    )
    # numpy 1 loads it with numpy itself: "True" four times
    before, after_import, _, after_kernel = run_fresh_interpreter(code).split()
    assert after_import == after_kernel == before


def test_packet_count_law_runs_without_scipy():
    # the slot occupancy, the rho_max proxy and the slot statistics built on
    # them are the same doubles with scipy unimportable
    code = (
        "from musalink.analytic import slot_statistics\n"
        "from musalink.config import Scenario, default_config, with_values\n"
        "cfgs = [with_values(default_config(), {'traffic.lambda': lam, 'frame.n_slots': s,"
        " 'traffic.lambda_max': 1e8, 'traffic.scenario': sc}) for sc in Scenario"
        " for lam in (0.0, 1e-300, 1e-3, 2.0, 4.0, 10.0, 1e8) for s in (1, 20, 10**17)]\n"
        "print(repr([(slot_statistics(c), c.traffic.slot_occupancy(c.frame.n_slots),"
        " c.rho_max_proxy()) for c in cfgs]))\n"
    )
    with_scipy = run_fresh_interpreter(code)
    assert run_fresh_interpreter("import sys\nsys.modules['scipy'] = None\n" + code) == with_scipy


def commands_code(runs: str, block_scipy: bool) -> str:
    """Code that runs the ``cli.main`` calls of ``runs``, printing the scipy
    modules loaded after each import and after the runs; with
    ``block_scipy`` scipy cannot be imported."""
    loaded = ("print(sorted(name for name, module in sys.modules.items()"
              " if name.partition('.')[0] == 'scipy' and module is not None))\n")
    return (
        "import sys\n"
        + ("sys.modules['scipy'] = None\n" if block_scipy else "")
        + "import musalink\n" + loaded
        + "import musalink.cli as cli\n" + loaded
        + runs
        + loaded
    )


def simulate_and_compare_code(out_dir: Path, block_scipy: bool) -> str:
    """Code that runs ``simulate`` for every scheme and ``compare`` into
    ``out_dir`` (:func:`commands_code`)."""
    runs = "".join(
        f"assert cli.main(['simulate', '--scheme', {s.value!r}, '--trials', '3',"
        f" '--out', {str(out_dir / s.value)!r}]) == 0\n"
        for s in config.Scheme
    )
    runs += (f"assert cli.main(['compare', '--trials', '3', '--lambdas', '2:10:4',"
             f" '--out', {str(out_dir / 'compare')!r}]) == 0\n")
    return commands_code(runs, block_scipy)


def analytics_code(out_dir: Path, block_scipy: bool) -> str:
    """Code that runs ``analytic`` sweeps, ``optimize`` with its brute-force
    curve and ``validate`` into ``out_dir`` (:func:`commands_code`)."""
    argvs = {
        "lambda": ["analytic", "--sweep", "lambda=2:10:4"],
        "n_slots": ["analytic", "--sweep", "n_slots=2:40:19"],
        "optimize": ["optimize", "--brute-points", "4"],
        "validate": ["validate", "--trials", "2", "--n-active", "10,20", "--lambdas", "2,8"],
    }
    runs = "".join(f"assert cli.main({argv + ['--out', str(out_dir / name)]!r}) == 0\n"
                   for name, argv in argvs.items())
    return commands_code(runs, block_scipy)


def written(out_dir: Path) -> dict[str, list[str]]:
    """The lines of every file in ``out_dir``, bar the manifests' wall times."""
    return {path.name: [line for line in path.read_text().splitlines()
                        if "wall_clock_s" not in line] for path in out_dir.iterdir()}


def test_import_simulate_and_compare_leave_scipy_unloaded(tmp_path):
    # scipy.special is half the start-up of a command; no command loads it
    assert run_fresh_interpreter(simulate_and_compare_code(tmp_path, False)) == "[]\n[]\n[]"


def test_simulate_and_compare_run_without_scipy(tmp_path):
    with_scipy, without = tmp_path / "with", tmp_path / "without"
    with_scipy.mkdir()
    without.mkdir()
    run_fresh_interpreter(simulate_and_compare_code(with_scipy, False))
    assert run_fresh_interpreter(simulate_and_compare_code(without, True)) == "[]\n[]\n[]"
    # and write the same bytes as with scipy importable, bar the manifests' wall times
    assert written(with_scipy) == written(without)
    assert len(written(without)) == 9  # 4 simulate CSVs, their manifests, 1 compare CSV


def test_analytic_optimize_and_validate_run_without_scipy(tmp_path):
    # the analytics, their Gauss-Jacobi rules included, are numpy alone: no
    # scipy module loads, and with scipy unimportable the bytes are the same
    with_scipy, without = tmp_path / "with", tmp_path / "without"
    with_scipy.mkdir()
    without.mkdir()
    assert run_fresh_interpreter(analytics_code(with_scipy, False)) == "[]\n[]\n[]"
    assert run_fresh_interpreter(analytics_code(without, True)) == "[]\n[]\n[]"
    assert written(with_scipy) == written(without)
    assert sorted(written(without)) == ["lambda", "n_slots", "optimize", "validate"]


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
