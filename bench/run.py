#!/usr/bin/env python3
"""musalink benchmark entry point.

Run from the root of a checkout::

    python3 bench/run.py --workload analytic_sweep --seed 1 --seconds 20 --trace 0

Workloads: ``analytic_sweep``, ``sim_sparse``, ``sim_dense`` (see
``harness.py`` for what each exercises and why).  The program is imported
from ``src/`` of the checkout; without it the run fails with exit code 2
and prints no result.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` of whole op
cycles.  Times in the bounded metrics (``norm_*``, ``setup_s``) are scaled
to a reference host speed by a calibration kernel timed next to each op,
because the host's speed drifts by up to 1.8x; the raw figures
(``frames_per_s`` or ``points_per_s``, ``op_p50_ms``, ``op_p90_ms``,
``wall_s``, ``cpu_s``, ``setup_raw_s``) and the host speed are printed too.

``--trace 1`` runs a fixed number of cycles, each op once untraced and at
once again with every layer wrapped, and reports the per-layer metrics,
the tracing overhead and the ROADMAP baselines the workload covers; spans
go to ``.bench_build/musalink-bench/traces/``.

Either way the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name with its unit, the run metadata and any failed
check.  A full record of each run is written under
``.bench_build/musalink-bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time set-up only (child of a measuring run)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread and one simulator worker: the numbers measure the
    # program, not the scheduler.  Must precede the first numpy import.
    import harness

    for var in harness.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MUSALINK_WORKERS", None)
    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {harness.WORKLOADS}",
              file=sys.stderr)
        return 2
    try:
        harness.import_program()
    except harness.ProgramMissing as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return harness.setup_probe(args.workload, args.seed)
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
