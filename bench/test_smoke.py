"""Smoke test of the benchmark harness (about a minute on 2 cores).

    python3 -m pytest -q bench/test_smoke.py

Runs every workload for one cycle in both modes, checks that each metric
``BENCHMARK.json`` names is reported with its unit, shows that a corrupted
output raises ``failed`` above zero, and that a directory without the
program's sources fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_spec_matches_harness():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: unit for k, (unit, _) in harness.END_TO_END.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in tracer.LAYER_METRICS
    ]


def _assert_metrics(result, spec_key):
    expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float), name


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_workload_reports_every_metric(workload):
    plain = harness.run(workload, seed=1, seconds=0, trace=False, setup_probes=1)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 3
    _assert_metrics(plain, "end_to_end")
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = harness.run(workload, seed=1, seconds=0, trace=True, trace_cycles=1)
    assert traced["correct"] and traced["failed"] == 0
    _assert_metrics(traced, "per_layer")
    assert traced["metrics"]["cli.main.calls"]["value"] >= 1


def test_checker_rejects_corrupted_simulate_csv():
    good = (
        "scheme,trials,seed,p_hat,ci_halfwidth,packets_generated,packets_decoded,"
        "packets_dropped\nbaseline,10,7,0.375,0.03,1600,600,0\n"
    )
    ref = {"mean_p_hat": 0.36, "sd_op": 0.02, "trials": 10, "ops": 300}
    assert checks.check_simulate(good, "baseline", 10, 7, ref) == []
    assert checks.check_simulate(good.replace("0.375", "0.5"), "baseline", 10, 7, ref)
    assert checks.check_simulate(good.replace("600,0", "900,0"), "baseline", 10, 7, ref)
    assert checks.check_simulate(good.replace("p_hat", "p"), "baseline", 10, 7, ref)


def test_corrupted_output_counts_as_failed(monkeypatch):
    harness.import_program()
    import musalink.cli

    real_main = musalink.cli.main

    def corrupting_main(argv):
        rc = real_main(argv)
        out = Path(argv[argv.index("--out") + 1])
        header, row = out.read_text().splitlines()
        cells = row.split(",")
        cells[3] = "1.5"  # p_hat outside [0, 1]
        out.write_text(header + "\n" + ",".join(cells) + "\n")
        return rc

    monkeypatch.setattr(musalink.cli, "main", corrupting_main)
    result = harness.run("sim_dense", seed=2, seconds=0, trace=False, setup_probes=1)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
