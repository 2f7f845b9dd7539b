#!/usr/bin/env python3
"""Regenerate ``bench/reference.json`` from the checkout's ``src/``.

The reference holds, for every analytic op shape, the values the program
printed when the benchmark was defined (drift is measured against them),
and for every Monte Carlo point the mean and op-to-op standard deviation
of ``p_hat`` over many ops of the workload's size with seeds the benchmark
never draws.  Regenerate only when the model itself is meant to change::

    python3 bench/make_reference.py [--ops 300]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

REF_SEED_BASE = 1_000_000_000  # reference ops use seeds from here up


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--ops", type=int, default=300, help="Monte Carlo ops per point")
    args = p.parse_args(argv)

    import harness

    for var in harness.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MUSALINK_WORKERS", None)
    harness.import_program()
    import checks
    import musalink.cli

    main_fn = musalink.cli.main
    workdir = harness.OUT_DIR / f"reference-{os.getpid()}"
    ref: dict = {}
    try:
        configs = harness.write_inputs("analytic_sweep", workdir)
        for op in harness.analytic_ops(configs, workdir):
            if main_fn(op.argv) != 0:
                raise SystemExit(f"op failed: {op.argv}")
            text = op.out.read_text()
            if op.kind == "sweep":
                problems, p_succ = checks.check_sweep(text, harness.SWEEP_LAMBDAS)
                ref[op.ref_key] = {"p_succ": p_succ}
            else:
                problems, curve = checks.check_optimize(text)
                ref[op.ref_key] = {"curve": {str(n): v for n, v in curve.items()}}
            if problems:
                raise SystemExit(f"{op.ref_key}: {problems}")
        for workload, pt in harness.SIM_WORKLOADS.items():
            configs = harness.write_inputs(workload, workdir)
            for lam in pt.lambdas:
                p_hats, generated, decoded = [], 0, 0
                for i in range(args.ops):
                    op = harness.sim_op(workload, configs, workdir, lam, REF_SEED_BASE + i)
                    if main_fn(op.argv) != 0:
                        raise SystemExit(f"op failed: {op.argv}")
                    got = checks.parse_simulate(op.out.read_text())
                    p_hats.append(got["p_hat"])
                    generated += got["generated"]
                    decoded += got["decoded"]
                key = harness.sim_key(workload, lam)
                ref[key] = {
                    "mean_p_hat": statistics.fmean(p_hats),
                    "sd_op": statistics.stdev(p_hats),
                    "pooled_p_hat": decoded / generated,
                    "trials": pt.trials,
                    "ops": args.ops,
                    "seeds": [REF_SEED_BASE, REF_SEED_BASE + args.ops - 1],
                }
                print(key, ref[key], file=sys.stderr, flush=True)
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)
    meta = harness.metadata("reference", REF_SEED_BASE, 0)
    out = {"_meta": {k: meta[k] for k in ("git_revision", "src_sha256", "python",
                                          "numpy", "scipy")}, **ref}
    harness.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
