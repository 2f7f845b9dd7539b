"""Command-line interface: schemas, determinism, error codes."""

import argparse
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import musalink
from musalink import analytic, cli, optimizer
from musalink.analytic import frame_coverage_prob
from musalink.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_NUMERIC,
    EXIT_USAGE,
    _numbers,
    _parse_sweep,
    build_parser,
    main,
)
from musalink.config import (
    Scheme,
    default_config,
    key_domain,
    serialize_config,
    validate_config,
    with_values,
)
from musalink.simulator import estimate_coverage

from conftest import fresh_interpreter_env, reference_config


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(serialize_config(default_config()))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    return rows[0], rows[1:]


def test_analytic_single_point_matches_library(tmp_path, cfg_file):
    out = tmp_path / "single.csv"
    assert main(["analytic", "--config", cfg_file, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["lambda", "p_succ", "p_lambda", "p_cf", "n_singleton"]
    assert len(rows) == 1
    report = frame_coverage_prob(default_config())
    assert float(rows[0][1]) == pytest.approx(report.p_succ, rel=1e-12)
    assert float(rows[0][2]) == pytest.approx(report.p_lambda, rel=1e-12)


def test_analytic_lambda_sweep_monotone(tmp_path, cfg_file):
    out = tmp_path / "sweep.csv"
    assert main([
        "analytic", "--config", cfg_file, "--sweep", "lambda=2:10:2",
        "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    assert [float(r[0]) for r in rows] == [2, 4, 6, 8, 10]
    p = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-6 for a, b in zip(p, p[1:]))


def test_analytic_slot_sweep_monotone(tmp_path, cfg_file):
    out = tmp_path / "slots.csv"
    assert main([
        "analytic", "--config", cfg_file, "--sweep", "n_slots=5:40:5",
        "--out", str(out),
    ]) == 0
    _, rows = read_csv(out)
    p = [float(r[1]) for r in rows]
    assert all(b >= a - 1e-6 for a, b in zip(p, p[1:]))


def test_simulate_deterministic_bytes(tmp_path, cfg_file):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--config", cfg_file, "--scheme", "baseline",
            "--trials", "25", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    manifest = tmp_path / "a.csv.manifest"
    assert manifest.exists()
    text = manifest.read_text()
    assert "manifest.config_sha256 = " in text
    assert "wall_clock_s" in text


def test_simulate_manifest_failure_counts(tmp_path, cfg_file, monkeypatch):
    serialized = []
    original = cli.serialize_config

    def counting(cfg):
        serialized.append(cfg)
        return original(cfg)

    monkeypatch.setattr(cli, "serialize_config", counting)
    out = tmp_path / "a.csv"
    assert main(["simulate", "--config", cfg_file, "--scheme", "baseline",
                 "--trials", "25", "--seed", "7", "--out", str(out)]) == 0
    assert len(serialized) == 1
    lines = dict(
        line.split(" = ", 1)
        for line in (tmp_path / "a.csv.manifest").read_text().splitlines()
    )
    est = estimate_coverage(default_config(), Scheme.BASELINE, 25, 7)
    assert lines["point.0.collision_failures"] == str(est.collision_failures)
    assert lines["point.0.threshold_failures"] == str(est.threshold_failures)
    assert lines["point.0.blocked_failures"] == str(est.blocked_failures)
    _, rows = read_csv(out)
    generated, decoded, dropped = (int(v) for v in rows[0][5:8])
    failed = sum(
        int(lines[f"point.0.{cause}_failures"]) for cause in ("collision", "threshold", "blocked")
    )
    assert decoded + failed == generated - dropped


def test_simulate_manifest_beside_stdout_csv(tmp_path, cfg_file, capsys):
    manifest = tmp_path / "run.manifest"
    assert main(["simulate", "--config", cfg_file, "--trials", "25", "--seed", "7",
                 "--manifest", str(manifest)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    lines = dict(line.split(" = ", 1) for line in manifest.read_text().splitlines())
    assert lines["manifest.seed"] == row["seed"] == "7"
    assert lines["manifest.trials"] == row["trials"] == "25"
    points = {key[len("point.0."):]: value
              for key, value in lines.items() if key.startswith("point.0.")}
    assert points.keys() == {*cli._MANIFEST_FIELDS, "wall_clock_s"}
    assert all(points[key] == row[key] for key in cli._MANIFEST_FIELDS)


def test_simulate_csv_failure_columns(tmp_path, cfg_file):
    out = tmp_path / "a.csv"
    assert main(["simulate", "--config", cfg_file, "--scheme", "tpds",
                 "--trials", "25", "--seed", "7", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == [
        "scheme", "trials", "seed", "p_hat", "ci_halfwidth", "packets_generated",
        "packets_decoded", "packets_dropped",
        "collision_failures", "threshold_failures", "blocked_failures",
    ]
    row = dict(zip(header, rows[0]))
    counts = {key: int(row[key]) for key in header[5:]}
    assert counts["packets_decoded"] + counts["collision_failures"] + (
        counts["threshold_failures"] + counts["blocked_failures"]
    ) == counts["packets_generated"] - counts["packets_dropped"]
    est = estimate_coverage(default_config(), Scheme.TPDS, 25, 7)
    assert [counts[key] for key in header[8:]] == [
        est.collision_failures, est.threshold_failures, est.blocked_failures
    ]


def test_simulate_unknown_scheme_usage_error(cfg_file):
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--config", cfg_file, "--scheme", "warp"])
    assert info.value.code == 2


def test_optimize_report_contents(tmp_path, cfg_file):
    out = tmp_path / "opt.txt"
    assert main(["optimize", "--config", cfg_file, "--brute-points", "4",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert "binding = C" in text
    assert "n_practical = " in text
    assert "brute_force.best_n = " in text
    fields = dict(
        line.split(" = ", 1) for line in text.strip().splitlines() if " = " in line
    )
    n_practical = int(fields["n_practical"])
    n_lambda = float(fields["n_lambda_bound"])
    n_eps = float(fields["n_epsilon_bound"])
    assert n_practical == math.floor(min(n_lambda, n_eps))
    assert float(fields["residual"]) <= 1e-10


def test_optimize_single_brute_point_reports_n_practical(tmp_path):
    # one grid point is ceil(lambda) = 3; the report must still give the
    # coverage at the chosen slot count, not at the grid's last entry
    cfg_path = tmp_path / "one.cfg"
    cfg_path.write_text("traffic.n_active = 15\ntraffic.lambda = 3\n")
    out = tmp_path / "opt.txt"
    assert main(["optimize", "--config", str(cfg_path), "--brute-points", "1",
                 "--out", str(out)]) == 0
    fields = dict(
        line.split(" = ", 1) for line in out.read_text().strip().splitlines()
    )
    n_practical = int(fields["n_practical"])
    curve = dict(item.split(":") for item in fields["brute_force.curve"].split(";"))
    assert sorted(int(n) for n in curve) == [3, n_practical]
    p_at = float(fields["brute_force.p_at_n_practical"])
    assert p_at == float(curve[str(n_practical)])
    expected = frame_coverage_prob(reference_config(n_active=15, lam=3.0, n_slots=n_practical))
    assert p_at == expected.p_succ


def test_optimize_solves_the_slot_bounds_once(tmp_path, monkeypatch):
    calls = []
    original = optimizer.adaptive_slots

    def counting(cfg):
        calls.append(cfg)
        return original(cfg)

    monkeypatch.setattr(optimizer, "adaptive_slots", counting)
    monkeypatch.setattr(cli, "adaptive_slots", counting)
    for points in ("6", "0"):
        calls.clear()
        assert main(["optimize", "--brute-points", points, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 1


def test_range_expansion():
    parse = _numbers(-math.inf)
    assert parse("2:10:2") == [2.0, 4.0, 6.0, 8.0, 10.0]
    assert parse("0.1:0.3:0.1") == pytest.approx([0.1, 0.2, 0.3])
    assert parse("4:4:1") == [4.0]
    assert parse("1e14:1e14:1") == [1e14]
    assert _parse_sweep("n_slots=1e17:1e17:1") == ("n_slots", [10**17])
    assert parse("3") == [3.0]
    assert parse("2,3:4:0.5,1") == [2.0, 3.0, 3.5, 4.0, 1.0]
    assert _numbers(1, integer=True)("10,20:30:10,4e1") == [10, 20, 30, 40]
    for bad in ("5:2:1", "1:2:0", "1:2", "a:b:c",
                "2:3:nan", "nan:3:1", "2:inf:1", "-inf:2:1", "2:3:inf", "0:1e9:1e-3",
                "", "2,", "2:3:1:1", "2;3"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse(bad)


def test_range_values_stay_within_stop_and_cap():
    # random finite ranges over 21 decades of start and 12 of step, from
    # one value to about twice the cap, alone and joined into lists
    parse = _numbers(-math.inf)
    rng = random.Random(16)
    for _ in range(200):
        items, lengths = [], []
        for _ in range(rng.randint(1, 3)):
            start = rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 18)
            step = 10 ** rng.uniform(-9, 3)
            stop = start + step * 10 ** rng.uniform(-1, 5.3)
            item = f"{start!r}:{stop!r}:{step!r}"
            items.append(item)
            try:
                values = parse(item)
            except argparse.ArgumentTypeError as exc:
                assert str(exc).startswith("must have at most 100000 values")
                lengths.append(cli._MAX_RANGE_POINTS + 1)
                continue
            assert 1 <= len(values) <= cli._MAX_RANGE_POINTS
            assert values[0] == start
            tolerance = 1e-9 * step + 4 * math.ulp(max(abs(start), abs(stop)))
            assert max(values) <= stop + tolerance
            lengths.append(len(values))
        if sum(lengths) > cli._MAX_RANGE_POINTS:
            with pytest.raises(argparse.ArgumentTypeError, match="at most 100000 values"):
                parse(",".join(items))
        else:
            assert len(parse(",".join(items))) == sum(lengths)


def test_every_list_option_takes_the_one_grammar():
    parser = build_parser()
    args = parser.parse_args(["validate", "--n-active", "5:10:5,12", "--lambdas", "2,3:4:1"])
    assert (args.n_active, args.lambdas) == ([5, 10, 12], [2.0, 3.0, 4.0])
    assert all(type(n) is int for n in args.n_active)
    assert parser.parse_args(["compare", "--lambdas", "2,3"]).lambdas == [2.0, 3.0]
    assert parser.parse_args(["analytic", "--sweep", "lambda=2,4:5:1"]).sweep == (
        "lambda", [2.0, 4.0, 5.0]
    )
    # the defaults go through the same parser
    assert parser.parse_args(["compare"]).lambdas == [float(v) for v in range(2, 11)]
    assert parser.parse_args(["validate"]).n_active == [10, 20]


def test_list_bounds_agree_with_the_config_key(capsys):
    # each list option is refused exactly where validate_config refuses the key
    options = [(f"analytic --sweep {axis}=", key) for axis, key in cli._SWEEP_AXES.items()]
    options += [("compare --lambdas=", "traffic.lambda"), ("validate --lambdas=", "traffic.lambda"),
                ("validate --n-active=", "traffic.n_active")]
    parser = build_parser()

    def accepted(option, value):
        try:
            parser.parse_args(f"{option}{value!r}".split())
        except SystemExit:
            return False
        return True

    def config_accepts(key, value):
        issues = validate_config(with_values(default_config(), {key: value}))
        return not any(issue.startswith(key.replace(".", ": ") + " must be") for issue in issues)

    for option, key in options:
        kind, (_, minimum) = key_domain(key)
        below = math.nextafter(minimum, -math.inf)
        assert accepted(option, minimum) and config_accepts(key, minimum), option
        assert not accepted(option, below) and not config_accepts(key, below), option
        assert "must be >=" in capsys.readouterr().err
        if kind == "int":
            assert not accepted(option, minimum + 0.5), option
            assert "must be an integer" in capsys.readouterr().err


def test_huge_slot_count_sweep_prints_one_row(capsys):
    assert main(["analytic", "--sweep", "n_slots=1e17:1e17:1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("100000000000000000,")


def test_optimize_infeasible_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("traffic.lambda = 1\ntraffic.lambda_min = 2\n")
    # the load itself reports the constraint violation
    assert main(["optimize", "--config", str(bad)]) == EXIT_CONFIG


def test_optimize_non_emergency_names_scenario(tmp_path, capsys):
    # a valid non-emergency config violates no constraint (not C4)
    cfg_path = tmp_path / "non_emergency.cfg"
    cfg_path.write_text("traffic.scenario = non_emergency\n")
    assert main(["optimize", "--config", str(cfg_path)]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert err.startswith("infeasible: scenario: ")
    assert len(err.strip().splitlines()) == 1


def test_repeated_main_calls_start_from_defaults(tmp_path, cfg_file):
    # the parser is built once per process; an option one call sets must
    # not carry over into the next call that omits it
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["analytic", "--config", cfg_file, "--sweep", "lambda=2:4:1",
                 "--out", str(first)]) == 0
    assert main(["analytic", "--config", cfg_file, "--out", str(second)]) == 0
    assert len(read_csv(first)[1]) == 3
    header, rows = read_csv(second)
    assert header[0] == "lambda"
    assert [float(row[0]) for row in rows] == [default_config().traffic.lam]


def test_optimize_reliability_conflict_exit_code(tmp_path):
    # valid config whose reliability bound undercuts the packet count (C2)
    conflicted = tmp_path / "conflicted.cfg"
    conflicted.write_text("traffic.lambda = 3\nframe.packet_bits = 40000\n")
    assert main(["optimize", "--config", str(conflicted)]) == EXIT_INFEASIBLE


def test_zero_rate_exits_infeasible(tmp_path, capsys):
    # lambda = 0 with no slack leaves zero slots: C2, not a traceback
    zero = tmp_path / "zero.cfg"
    zero.write_text("traffic.lambda = 0\ntraffic.lambda_min = 0\n")
    for argv in (["optimize"], ["simulate", "--scheme", "proposed", "--trials", "2",
                                "--out", str(tmp_path / "zero.csv")]):
        capsys.readouterr()
        assert main(argv + ["--config", str(zero)]) == EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert err.startswith("infeasible: C2: ")
        assert len(err.strip().splitlines()) == 1


def test_compare_below_lambda_min_names_constraint_once(cfg_file, capsys):
    # the proposed scheme's slot count needs lambda_min <= lambda (C4)
    argv = ["compare", "--config", cfg_file, "--trials", "20", "--lambdas", "0:1:1"]
    assert main(argv) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == "infeasible: C4: lambda (0) below lambda_min (2)\n"


def test_validate_zero_traffic_row_is_undefined(tmp_path, cfg_file):
    out = tmp_path / "val.csv"
    assert main(["validate", "--config", cfg_file, "--n-active", "10", "--lambdas", "0,2",
                 "--trials", "20", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[0] == ["10", "0", "0", "nan", "nan", "nan"]
    assert all(math.isfinite(float(v)) for v in rows[1])


def documented_columns():
    """command -> the CSV columns README's "Command line" section lists for it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    columns = {}
    for bullet in section.split("\n- ")[1:]:
        command = re.match(r"`(\w+)`", bullet).group(1)
        columns[command] = re.findall(r"`(\w+(?:,\w+)+)`", bullet)
    return columns


def test_csv_headers_match_readme(tmp_path, cfg_file):
    documented = documented_columns()
    runs = {
        "analytic": ["--sweep", "n_slots=5:6:1"],
        "simulate": ["--trials", "3"],
        "compare": ["--lambdas", "2:2:1", "--trials", "3"],
        "validate": ["--n-active", "5", "--lambdas", "2", "--trials", "3"],
    }
    for command, args in runs.items():
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg_file, "--out", str(out)] + args) == 0
        header, _ = read_csv(out)
        expected = documented[command][0].split(",")
        if command == "analytic":  # the first column is named after the swept axis
            assert expected[0] == "axis"
            expected[0] = "n_slots"
        assert header == expected, command


def test_validate_grid_and_hash(tmp_path, cfg_file):
    out = tmp_path / "val.csv"
    assert main([
        "validate", "--config", cfg_file, "--n-active", "5", "--lambdas", "2",
        "--trials", "30", "--seed", "2", "--out", str(out),
    ]) == 0
    text = out.read_text()
    assert text.startswith("# config_sha256 = ")
    header, rows = read_csv(out)
    assert header == [
        "n_active", "lambda", "p_succ_analytic", "p_hat_simulated",
        "ci_halfwidth", "gap",
    ]
    for row in rows:
        gap = float(row[5])
        assert math.isfinite(gap) and 0.0 <= gap <= 1.0
        assert gap == pytest.approx(abs(float(row[2]) - float(row[3])), abs=1e-15)


def test_compare_schema(tmp_path, cfg_file):
    out = tmp_path / "cmp.csv"
    assert main([
        "compare", "--config", cfg_file, "--lambdas", "2:3:1",
        "--trials", "10", "--seed", "3", "--out", str(out),
    ]) == 0
    header, rows = read_csv(out)
    assert header == [
        "lambda", "proposed_p_hat", "proposed_ci", "tpds_p_hat", "tpds_ci",
        "nas_p_hat", "nas_ci",
    ]
    assert len(rows) == 2


def test_compare_empty_range_usage_error(cfg_file):
    with pytest.raises(SystemExit) as info:
        main(["compare", "--config", cfg_file, "--lambdas", "5:2:1"])
    assert info.value.code == 2


@pytest.mark.parametrize("flag, value", [("--n-active", "10,x"), ("--lambdas", "2,y")])
def test_validate_bad_list_usage_error(cfg_file, capsys, flag, value):
    with pytest.raises(SystemExit) as info:
        main(["validate", "--config", cfg_file, flag, value, "--trials", "2"])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"musalink validate: error: argument {flag}: "
        f"expected a number or start:stop:step, got {value[-1]!r}"
    )
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag, message", [
    (["simulate", "--trials", "0"], "--trials", "must be >= 1, got '0'"),
    (["compare", "--trials", "0"], "--trials", "must be >= 1, got '0'"),
    (["validate", "--trials", "-2"], "--trials", "must be >= 1, got '-2'"),
    (["validate", "--n-active", "10,0"], "--n-active", "must be >= 1, got '0'"),
    (["validate", "--lambdas", "2,-1"], "--lambdas", "must be >= 0, got '-1'"),
    (["compare", "--lambdas=-1:1:1"], "--lambdas", "must be >= 0, got '-1:1:1'"),
    (["analytic", "--sweep", "n_active=0:2:1"], "--sweep", "must be >= 1, got '0:2:1'"),
    (["analytic", "--sweep", "n_slots=0:2:1"], "--sweep", "must be >= 1, got '0:2:1'"),
    (["analytic", "--sweep", "lambda=-0.5:2:1"], "--sweep",
     "must be >= 0, got '-0.5:2:1'"),
    (["simulate", "--seed", "-1"], "--seed", "must be >= 0, got '-1'"),
    (["compare", "--seed", "-1"], "--seed", "must be >= 0, got '-1'"),
    (["validate", "--seed", "-3"], "--seed", "must be >= 0, got '-3'"),
    (["optimize", "--brute-points", "-1"], "--brute-points", "must be >= 0, got '-1'"),
    (["analytic", "--sweep", "n_slots=1.5:3.5:1"], "--sweep",
     "must be an integer, got '1.5:3.5:1'"),
    (["analytic", "--sweep", "n_active=2.5:3.5:1"], "--sweep",
     "must be an integer, got '2.5:3.5:1'"),
    (["analytic", "--sweep", "n_slots=1:2:0.5"], "--sweep",
     "must be an integer, got '1:2:0.5'"),
    (["analytic", "--sweep", "lambda=2:3:nan"], "--sweep",
     "must be finite, got '2:3:nan'"),
    (["analytic", "--sweep", "lambda=2:inf:1"], "--sweep",
     "must be finite, got '2:inf:1'"),
    (["compare", "--lambdas", "2:inf:1"], "--lambdas",
     "must be finite, got '2:inf:1'"),
    (["validate", "--lambdas", "nan"], "--lambdas", "must be finite, got 'nan'"),
    (["validate", "--lambdas", "2,inf"], "--lambdas", "must be finite, got 'inf'"),
    (["analytic", "--sweep", "lambda=0:1e9:1e-3"], "--sweep",
     "must have at most 100000 values, got '0:1e9:1e-3'"),
    (["validate", "--n-active", "10.5"], "--n-active", "must be an integer, got '10.5'"),
    (["compare", "--lambdas", "1:2:0"], "--lambdas", "step must be > 0, got '1:2:0'"),
    (["compare", "--lambdas", "2,5:2:1"], "--lambdas", "range is empty, got '5:2:1'"),
    (["analytic", "--sweep", "lambda"], "--sweep", "sweep must look like axis=values, got 'lambda'"),
    # counts take the lists' whole-number rule: 1e1 is 10, fractions are refused
    (["simulate", "--trials", "10.5"], "--trials", "must be an integer, got '10.5'"),
    (["compare", "--trials", "inf"], "--trials", "must be an integer, got 'inf'"),
    (["validate", "--trials", "1:3:1"], "--trials", "must be an integer, got '1:3:1'"),
    (["simulate", "--trials", "abc"], "--trials", "must be an integer, got 'abc'"),
    (["simulate", "--trials=-1e1"], "--trials", "must be >= 1, got '-1e1'"),
    (["simulate", "--seed", "2.5"], "--seed", "must be an integer, got '2.5'"),
    (["compare", "--seed", "nan"], "--seed", "must be an integer, got 'nan'"),
    (["optimize", "--brute-points", "6.5"], "--brute-points", "must be an integer, got '6.5'"),
    (["optimize", "--brute-points", "inf"], "--brute-points", "must be an integer, got 'inf'"),
])
def test_out_of_range_option_usage_error(cfg_file, capsys, argv, flag, message):
    with pytest.raises(SystemExit) as info:
        main(argv[:1] + ["--config", cfg_file] + argv[1:])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"musalink {argv[0]}: error: argument {flag}: {message}"
    ]
    assert "Traceback" not in err


def test_bad_worker_count_usage_error(cfg_file, capsys, monkeypatch):
    monkeypatch.setenv("MUSALINK_WORKERS", "abc")
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--config", cfg_file, "--trials", "2"])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "musalink: error: MUSALINK_WORKERS must be an integer, got 'abc'"
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["10.5", "inf", "1:3:1"])
def test_fractional_worker_count_usage_error(cfg_file, capsys, monkeypatch, value):
    monkeypatch.setenv("MUSALINK_WORKERS", value)
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--config", cfg_file, "--trials", "2"])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"musalink: error: MUSALINK_WORKERS must be an integer, got {value!r}"
    )


def test_count_spellings_write_the_same_bytes(tmp_path, cfg_file, monkeypatch):
    def simulate(trials, seed, workers):
        monkeypatch.setenv("MUSALINK_WORKERS", workers)
        out = tmp_path / f"sim_{trials}_{seed}_{workers}.csv"
        assert main(["simulate", "--config", cfg_file, "--trials", trials,
                     "--seed", seed, "--out", str(out)]) == 0
        manifest = Path(f"{out}.manifest").read_text().splitlines()
        return out.read_bytes(), [line for line in manifest if "wall_clock_s" not in line]

    reference = simulate("10", "5", "1")
    assert simulate("1e1", "5", "1") == reference
    assert simulate("10.0", "5e0", "1e0") == reference
    assert simulate("10", "5", "2e0") == reference

    def optimize(points):
        out = tmp_path / f"opt_{points}.txt"
        assert main(["optimize", "--config", cfg_file, "--brute-points", points,
                     "--out", str(out)]) == 0
        return out.read_bytes()

    assert optimize("6.0") == optimize("6")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_worker_count_usage_error(cfg_file, capsys, monkeypatch, value):
    monkeypatch.setenv("MUSALINK_WORKERS", value)
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--config", cfg_file, "--trials", "2"])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"musalink: error: MUSALINK_WORKERS must be >= 1, got {value!r}"
    ]
    assert "Traceback" not in err


def test_numerical_failure_exit_code(cfg_file, capsys, monkeypatch):
    def fail(cfgs):
        raise musalink.QuadratureError("non-finite Gauss-Jacobi sum", math.nan, math.nan)

    monkeypatch.setattr(cli, "frame_coverage_probs", fail)
    assert main(["analytic", "--config", cfg_file]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.splitlines() == ["numerical failure: non-finite Gauss-Jacobi sum"]
    assert "Traceback" not in err


def test_numerical_failure_inside_a_sweep_batch_exit_code(cfg_file, capsys, monkeypatch):
    make_kernel = analytic._coverage_kernels

    def poisoned(cfgs, intensities):
        g = make_kernel(cfgs, intensities)

        def kernel(t, point):
            # the second point of the sweep's batch is non-finite everywhere
            values = g(t, point)
            values[point == 1] = math.nan
            return values
        return kernel

    monkeypatch.setattr(analytic, "_coverage_kernels", poisoned)
    argv = ["analytic", "--config", cfg_file, "--sweep", "lambda=2:4:1"]
    assert main(argv) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "numerical failure: conditional coverage rank k=1: non-finite Gauss-Jacobi sum"
    ]


def test_config_error_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.cfg"
    broken.write_text("frame.n_slots = zero\n")
    assert main(["analytic", "--config", str(broken)]) == EXIT_CONFIG
    # keys outside the table are refused by name, never silently ignored
    for line in ("power.mode = fixed", "power.exact_rho_max = true",
                 "reliability.dispersion = 9.0", "traffic.tail_truncation = 40",
                 "power.rho_max_proxy_quantile = 0.9"):
        broken.write_text(line + "\n")
        capsys.readouterr()
        assert main(["analytic", "--config", str(broken)]) == EXIT_CONFIG
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == f"config error: line 1: unknown key {key!r}\n"
    # a file that cannot be read or is not UTF-8 text is a config error too
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("# caf\xe9\nframe.n_slots = 20\n".encode("latin-1"))
    for path in (tmp_path / "missing.cfg", tmp_path, latin1):
        capsys.readouterr()
        assert main(["analytic", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("config error:")] == [
            err.strip()
        ]
        assert "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-1", "-4000 dB"])
def test_nonpositive_pathloss_coeff_config_error(tmp_path, capsys, value):
    # -4000 dB underflows to a linear 0
    broken = tmp_path / "pathloss.cfg"
    broken.write_text(f"channel.pathloss_coeff = {value}\n")
    assert main(["analytic", "--config", str(broken)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "config error: channel: pathloss_coeff must be > 0\n"


def test_unwritable_out_usage_error(tmp_path, cfg_file, capsys):
    out = tmp_path / "no_such_dir" / "out.csv"
    with pytest.raises(SystemExit) as info:
        main(["analytic", "--config", cfg_file, "--out", str(out)])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"musalink: error: cannot write {out}: No such file or directory"
    ]
    assert "Traceback" not in err


def test_longer_outputs_are_rewritten_in_place(tmp_path, cfg_file, monkeypatch):
    # a fixed clock makes the manifest's wall_clock_s line repeat
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    args = ["simulate", "--config", cfg_file, "--trials", "5", "--seed", "7"]
    fresh_out, fresh_manifest = tmp_path / "fresh.csv", tmp_path / "fresh.manifest"
    assert main(args + ["--out", str(fresh_out), "--manifest", str(fresh_manifest)]) == 0
    out, manifest = tmp_path / "old.csv", tmp_path / "old.manifest"
    for path, fresh in ((out, fresh_out), (manifest, fresh_manifest)):
        path.write_bytes(b"x" * (len(fresh.read_bytes()) + 10_000))
    inodes = [os.stat(path).st_ino for path in (out, manifest)]
    assert main(args + ["--out", str(out), "--manifest", str(manifest)]) == 0
    assert out.read_bytes() == fresh_out.read_bytes()
    assert manifest.read_bytes() == fresh_manifest.read_bytes()
    assert [os.stat(path).st_ino for path in (out, manifest)] == inodes


def test_out_through_a_symlink_writes_its_target(tmp_path, cfg_file):
    args = ["analytic", "--config", cfg_file, "--sweep", "lambda=2:4:1"]
    fresh, target, link = tmp_path / "fresh.csv", tmp_path / "target.csv", tmp_path / "link.csv"
    assert main(args + ["--out", str(fresh)]) == 0
    target.write_bytes(b"x" * 10_000)
    link.symlink_to(target)
    assert main(args + ["--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()


def test_out_to_stdout_device_writes_the_file_bytes(tmp_path, cfg_file):
    args = ["analytic", "--config", cfg_file, "--sweep", "lambda=2:4:1"]
    fresh = tmp_path / "fresh.csv"
    assert main(args + ["--out", str(fresh)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "musalink.cli", *args, "--out", "/dev/stdout"],
        env=fresh_interpreter_env(), stdout=subprocess.PIPE, check=True, timeout=120,
    )
    assert proc.stdout == fresh.read_bytes()


def test_no_manifest_implied_beside_a_device(tmp_path, cfg_file):
    sink = tmp_path / "sink"
    sink.symlink_to("/dev/null")
    args = ["simulate", "--config", cfg_file, "--trials", "5", "--seed", "7", "--out", str(sink)]
    assert main(args) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg", "sink"]
    manifest = tmp_path / "run.manifest"
    assert main(args + ["--manifest", str(manifest)]) == 0
    assert "manifest.seed = 7" in manifest.read_text().splitlines()


def test_implied_manifest_sits_beside_the_file_written(tmp_path, cfg_file):
    target_dir = tmp_path / "runs"
    target_dir.mkdir()
    target, link = target_dir / "run.csv", tmp_path / "link.csv"
    target.write_text("")
    link.symlink_to(target)
    args = ["simulate", "--config", cfg_file, "--trials", "5", "--seed", "7", "--out", str(link)]
    assert main(args) == 0
    assert not (tmp_path / "link.csv.manifest").exists()
    assert "manifest.seed = 7" in (target_dir / "run.csv.manifest").read_text().splitlines()


def test_non_finite_config_value_exit_code(tmp_path, capsys):
    broken = tmp_path / "nan.cfg"
    broken.write_text("traffic.lambda = nan\n")
    assert main(["optimize", "--config", str(broken)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: line 1: bad value for traffic.lambda: non-finite value 'nan'\n"
    )


def test_floats_printed_at_17_significant_digits(tmp_path, cfg_file):
    out = tmp_path / "prec.csv"
    main(["analytic", "--config", cfg_file, "--out", str(out)])
    _, rows = read_csv(out)
    # round-trip through the printed representation is exact
    report = frame_coverage_prob(default_config())
    assert float(rows[0][1]) == report.p_succ
