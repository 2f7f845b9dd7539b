"""Per-layer tracing of musalink from outside the package.

:class:`Tracer` replaces public functions of the package with timing
wrappers at every module attribute that holds them, so calls made inside
the package (``run_frame`` calling ``sic_decode``, ``frame_coverage_prob``
calling ``adaptive_simpson`` through ``musalink.analytic``) are caught as
well as calls from the command line layer.  Each call becomes a span
(name, start, end, parent span, op id) kept in memory; self time is a
span's duration minus the time its direct child spans cover.  A wrapped
name that no longer exists or sees no call is reported with zero counts,
never as an error, so the harness keeps working after a layer is
restructured.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (defining module, attribute path, span name).  The wrapper is installed
# on every musalink module attribute bound to the same object.
TARGETS = (
    ("musalink.config", "load_config", "config.load_config"),
    ("musalink.config", "SystemConfig.mean_packet_power", "config.mean_packet_power"),
    ("musalink.config", "SystemConfig.rho_max_proxy", "config.rho_max_proxy"),
    ("musalink.quadrature", "adaptive_simpson", "quadrature.adaptive_simpson"),
    ("musalink.analytic", "frame_coverage_prob", "analytic.frame_coverage_prob"),
    ("musalink.analytic", "slot_statistics", "analytic.slot_statistics"),
    ("musalink.analytic", "laplace_singleton", "analytic.laplace_singleton"),
    ("musalink.analytic", "laplace_collided", "analytic.laplace_collided"),
    ("musalink.shortpacket", "error_prob_ln_form", "shortpacket.error_prob_ln_form"),
    ("musalink.optimizer", "solve_n_epsilon", "optimizer.solve_n_epsilon"),
    ("musalink.optimizer", "adaptive_slots", "optimizer.adaptive_slots"),
    ("musalink.optimizer", "brute_force_slots", "optimizer.brute_force_slots"),
    ("musalink.simulator", "estimate_coverage", "simulator.estimate_coverage"),
    ("musalink.simulator", "run_frame", "simulator.run_frame"),
    ("musalink.simulator", "assign_slots_codes", "simulator.assign_slots_codes"),
    ("musalink.simulator", "make_slot", "simulator.make_slot"),
    ("musalink.simulator", "sic_decode", "simulator.sic_decode"),
    ("musalink.simulator", "mmse_weights", "simulator.mmse_weights"),
)

# Per-layer metrics: (name, unit, better, end-to-end metric and workload it
# should move).  BENCHMARK.json lists the same names and units.
LAYER_METRICS = (
    ("config.import_s", "s", "lower", "setup_s on every workload"),
    ("config.mean_packet_power.calls", "count", "lower", "points_per_s on analytic_sweep; nothing on sim_*"),
    ("config.mean_packet_power.total_s", "s", "lower", "points_per_s on analytic_sweep; nothing on sim_*"),
    ("config.rho_max_proxy.calls", "count", "lower", "points_per_s on analytic_sweep; frames_per_s on sim_* (one Poisson quantile per frame)"),
    ("config.rho_max_proxy.total_s", "s", "lower", "points_per_s on analytic_sweep; frames_per_s on sim_*"),
    ("quadrature.adaptive_simpson.calls", "count", "lower", "points_per_s on analytic_sweep"),
    ("quadrature.adaptive_simpson.self_s", "s", "lower", "points_per_s on analytic_sweep"),
    ("quadrature.integrand_evals", "count", "lower", "points_per_s on analytic_sweep"),
    ("quadrature.evals_per_call", "count", "lower", "points_per_s on analytic_sweep"),
    ("analytic.frame_coverage_prob.calls", "count", "lower", "points_per_s on analytic_sweep (base of the per-call figures)"),
    ("analytic.frame_coverage_prob.per_call_ms", "ms", "lower", "points_per_s on analytic_sweep"),
    ("analytic.laplace_singleton.calls", "count", "lower", "points_per_s on analytic_sweep"),
    ("analytic.laplace_collided.calls", "count", "lower", "points_per_s on analytic_sweep"),
    ("analytic.kernel.per_call_us", "us", "lower", "points_per_s on analytic_sweep"),
    ("analytic.slot_statistics.total_s", "s", "lower", "points_per_s on analytic_sweep"),
    ("analytic.quad_err_max", "prob", "lower", "accuracy guard: must not worsen while points_per_s rises"),
    ("analytic.max_abs_drift", "prob", "lower", "accuracy guard: distance from the reference analytic values"),
    ("shortpacket.error_prob_ln_form.calls", "count", "lower", "op_p50_ms on analytic_sweep (optimize ops) and sim_sparse"),
    ("shortpacket.error_prob_ln_form.total_s", "s", "lower", "op_p50_ms on analytic_sweep (optimize ops) and sim_sparse"),
    ("optimizer.adaptive_slots.calls", "count", "lower", "points_per_s on analytic_sweep; op_p50_ms on sim_sparse"),
    ("optimizer.adaptive_slots.total_s", "s", "lower", "points_per_s on analytic_sweep; op_p50_ms on sim_sparse"),
    ("optimizer.solve_n_epsilon.iterations", "count", "lower", "points_per_s on analytic_sweep; op_p50_ms on sim_sparse"),
    ("optimizer.brute_force_slots.self_s", "s", "lower", "points_per_s on analytic_sweep"),
    ("simulator.run_frame.calls", "count", "lower", "frames_per_s on sim_* (frames simulated; base of the per-frame figures)"),
    ("simulator.run_frame.self_s", "s", "lower", "frames_per_s on sim_sparse most of all"),
    ("simulator.assign_slots_codes.total_s", "s", "lower", "frames_per_s on sim_sparse most of all"),
    ("simulator.make_slot.calls", "count", "lower", "frames_per_s on sim_sparse most of all (occupied slots)"),
    ("simulator.make_slot.total_s", "s", "lower", "frames_per_s on sim_sparse most of all"),
    ("simulator.slot_occupancy_mean", "pkt/slot", "higher", "frames_per_s on sim_sparse (workload shape, should not move)"),
    ("simulator.sic_decode.calls", "count", "lower", "frames_per_s on sim_dense most of all"),
    ("simulator.sic_decode.self_s", "s", "lower", "frames_per_s on sim_dense most of all"),
    ("simulator.mmse_weights.calls", "count", "lower", "frames_per_s on sim_dense most of all (linear solves)"),
    ("simulator.mmse_weights.total_s", "s", "lower", "frames_per_s on sim_dense most of all"),
    ("simulator.sic_iterations", "count", "lower", "frames_per_s on sim_dense most of all"),
    ("simulator.sic_iterations_per_slot", "1/slot", "lower", "frames_per_s on sim_dense most of all"),
    ("simulator.packets_transmitted", "count", "higher", "failed_frac context on sim_*"),
    ("simulator.packets_decoded", "count", "higher", "failed_frac context on sim_*"),
    ("simulator.fail.collision", "count", "lower", "failed_frac context on sim_*"),
    ("simulator.fail.below_threshold", "count", "lower", "failed_frac context on sim_*"),
    ("simulator.fail.blocked", "count", "lower", "failed_frac context on sim_*"),
    ("simulator.decoded_per_sic_iteration", "ratio", "higher", "frames_per_s on sim_dense (useful work per SIC iteration)"),
    ("cli.main.calls", "count", "lower", "op_p50_ms on every workload (ops run; base of cli.main.self_s)"),
    ("cli.main.self_s", "s", "lower", "op_p50_ms on every workload"),
    ("trace.overhead_frac", "ratio", "lower", "none: traced wall_s / untraced wall_s - 1 of the same ops"),
)

# ROADMAP open item 1 baselines, with the workload point that covers each.
BASELINE_FCP_POINT = (20, 8.0, 20)  # (n_active, lambda, n_slots)
BASELINE_FCP_MS = 72.0
BASELINE_CAMPBELL_US = 55.0
BASELINE_RUN_FRAME_MS = 6.1
RUN_FRAME_GAP = {
    "sim_dense": "same (n_active=20, lambda=8, n_slots=20) point but at -10 dB instead "
                 "of 0 dB, so SIC runs ~3.4 iterations per slot where the baseline "
                 "stops after ~1; expect a slower frame",
    "sim_sparse": "different point: n_active=10 with 10*lambda slots, ~1.5 packets "
                  "per slot and mostly the lone-device path; only the order of "
                  "magnitude compares",
}


class Tracer:
    """Record spans and counters for the wrapped package functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self.op_id = -1
        self.counters: Counter = Counter()
        self.quad_err_max = 0.0
        self.fcp_baseline_ns: list[int] = []
        self.missing: list[str] = []
        self._plan: list[tuple[object, str, object, object]] | None = None

    # ------------------------------------------------------------------
    #  Recording
    # ------------------------------------------------------------------

    def _index(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name: str, fn, before=None, after=None):
        """Return ``fn`` wrapped in a span; hooks see arguments and result."""
        idx = self._index(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            sid = len(self.span_name)
            self.span_name.append(idx)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op_id)
            self.span_start.append(0)
            self.span_end.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.span_start[sid] = t0
                self.span_end[sid] = t1
            if after is not None:
                after(result, args, t1 - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call of ``fn`` as a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    # hooks ---------------------------------------------------------------

    def _count_integrand(self, args, kwargs):
        counters = self.counters

        def wrap_f(f):
            def counted(x):
                counters["quadrature.integrand_evals"] += 1
                return f(x)
            return counted

        if args:
            args = (wrap_f(args[0]),) + tuple(args[1:])
        elif "f" in kwargs:
            kwargs = dict(kwargs, f=wrap_f(kwargs["f"]))
        return args, kwargs

    def _after_coverage(self, report, args, dur_ns):
        err = getattr(report, "quadrature_error_estimate", None)
        if err is not None:
            self.quad_err_max = max(self.quad_err_max, float(err))
        cfg = args[0] if args else None
        try:
            point = (cfg.traffic.n_active, cfg.traffic.lam, cfg.frame.n_slots)
        except AttributeError:
            return
        if point == BASELINE_FCP_POINT:
            self.fcp_baseline_ns.append(dur_ns)

    def _after_make_slot(self, slot, args, dur_ns):
        self.counters["slot_packets"] += len(getattr(slot, "device_ids", ()))

    def _after_sic(self, outcome, args, dur_ns):
        self.counters["sic_iterations"] += len(getattr(outcome, "sinr_trace", ()))

    def _after_frame(self, stats, args, dur_ns):
        for field, key in (
            ("packets_transmitted", "packets_transmitted"),
            ("packets_decoded", "packets_decoded"),
            ("collision_failures", "fail.collision"),
            ("threshold_failures", "fail.below_threshold"),
            ("blocked_failures", "fail.blocked"),
        ):
            self.counters[key] += int(getattr(stats, field, 0))

    # ------------------------------------------------------------------
    #  Installing the wrappers
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Patch every target; wrappers are built on the first call only."""
        if self._plan is None:
            self._plan = self._build_plan()
        for holder, attr, _, wrapper in self._plan:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _ in reversed(self._plan or []):
            setattr(holder, attr, original)

    def _build_plan(self) -> list[tuple[object, str, object, object]]:
        hooks = {
            "quadrature.adaptive_simpson": (self._count_integrand, None),
            "analytic.frame_coverage_prob": (None, self._after_coverage),
            "simulator.make_slot": (None, self._after_make_slot),
            "simulator.sic_decode": (None, self._after_sic),
            "simulator.run_frame": (None, self._after_frame),
        }
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "musalink" or name.startswith("musalink."))
        ]
        plan = []
        for module_name, path, span in TARGETS:
            holder = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                holder = getattr(holder, part, None)
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                self.missing.append(span)
                continue
            before, after = hooks.get(span, (None, None))
            wrapper = self.wrap(span, original, before, after)
            if owner_path:  # a method: patch the class attribute
                plan.append((holder, attr, original, wrapper))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        plan.append((module, key, original, wrapper))
        return plan

    # ------------------------------------------------------------------
    #  Aggregation and output
    # ------------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - child

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """``{span name: {calls, total_s, self_s}}`` for every known name."""
        name, _, dur, self_ns = self._arrays()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_ns, minlength=k)
        out = {
            n: {"calls": int(calls[i]), "total_s": total[i] / 1e9, "self_s": own[i] / 1e9}
            for i, n in enumerate(self.names)
        }
        for n in self.missing:
            out.setdefault(n, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        return out

    def _child_durations(self, child: str, parents: tuple[str, ...]) -> np.ndarray:
        """Durations (ns) of ``child`` spans whose parent is one of ``parents``."""
        if child not in self._name_index:
            return np.zeros(0)
        name, parent, dur, _ = self._arrays()
        parent_ids = {self._name_index[p] for p in parents if p in self._name_index}
        sel = name == self._name_index[child]
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        return dur[sel & np.isin(parent_name, list(parent_ids))]

    def _campbell_ns(self) -> np.ndarray:
        """Durations of the Campbell exponents: quadratures under a transform."""
        return self._child_durations(
            "quadrature.adaptive_simpson",
            ("analytic.laplace_singleton", "analytic.laplace_collided"),
        )

    def layer_metrics(self, drift: float, import_s: float, overhead: float) -> dict[str, float]:
        """Values of every name in :data:`LAYER_METRICS`."""
        st = self.layer_stats()
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

        def g(span: str, key: str) -> float:
            return st.get(span, zero)[key]

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        c = self.counters
        lap_calls = g("analytic.laplace_singleton", "calls") + g("analytic.laplace_collided", "calls")
        lap_total = g("analytic.laplace_singleton", "total_s") + g("analytic.laplace_collided", "total_s")
        solve_calls = g("optimizer.solve_n_epsilon", "calls")
        bisection_evals = self._child_durations(
            "shortpacket.error_prob_ln_form", ("optimizer.solve_n_epsilon",)
        ).size
        slots = g("simulator.make_slot", "calls")
        sic_calls = g("simulator.sic_decode", "calls")
        values = {
            "config.import_s": import_s,
            "quadrature.integrand_evals": c["quadrature.integrand_evals"],
            "quadrature.evals_per_call": ratio(
                c["quadrature.integrand_evals"], g("quadrature.adaptive_simpson", "calls")
            ),
            "analytic.frame_coverage_prob.per_call_ms": 1e3 * ratio(
                g("analytic.frame_coverage_prob", "total_s"),
                g("analytic.frame_coverage_prob", "calls"),
            ),
            "analytic.kernel.per_call_us": 1e6 * ratio(lap_total, lap_calls),
            "analytic.quad_err_max": self.quad_err_max,
            "analytic.max_abs_drift": drift,
            # the first error evaluation of each solve checks the bracket
            "optimizer.solve_n_epsilon.iterations": max(0, bisection_evals - solve_calls),
            "simulator.slot_occupancy_mean": ratio(c["slot_packets"], slots),
            "simulator.sic_iterations": c["sic_iterations"],
            "simulator.sic_iterations_per_slot": ratio(c["sic_iterations"], sic_calls),
            "simulator.packets_transmitted": c["packets_transmitted"],
            "simulator.packets_decoded": c["packets_decoded"],
            "simulator.fail.collision": c["fail.collision"],
            "simulator.fail.below_threshold": c["fail.below_threshold"],
            "simulator.fail.blocked": c["fail.blocked"],
            "simulator.decoded_per_sic_iteration": ratio(c["packets_decoded"], c["sic_iterations"]),
            "trace.overhead_frac": overhead,
        }
        out = {}
        for metric, _, _, _ in LAYER_METRICS:
            if metric in values:
                out[metric] = float(values[metric])
                continue
            span, _, key = metric.rpartition(".")
            out[metric] = float(g(span, key))
        return out

    def baselines(self, overhead: float, host_speed: float, workload: str) -> list[dict]:
        """Per-layer figures next to the ROADMAP item 1 baselines they cover.

        ``untraced_estimate`` removes the measured tracing overhead;
        ``reference_speed_estimate`` also scales by the host speed the
        calibration kernel saw, for comparison with figures taken on a fast
        host.
        """
        st = self.layer_stats()
        rows = []
        untraced = 1.0 + overhead
        if self.fcp_baseline_ns:
            ms = float(np.median(self.fcp_baseline_ns)) / 1e6
            rows.append({
                "layer": "analytic.frame_coverage_prob at (n_active=20, lambda=8, n_slots=20)",
                "traced_median_ms": ms,
                "untraced_estimate_ms": ms / untraced,
                "reference_speed_estimate_ms": ms / untraced * host_speed,
                "baseline_ms": BASELINE_FCP_MS,
                "samples": len(self.fcp_baseline_ns),
                "gap": "the baseline is an untraced min-of-N on a fast host; this is "
                       "the traced median of the sweep's two visits in raw time, so span "
                       "overhead and the host's speed sit on top (see the estimates)",
            })
        camp = self._campbell_ns()
        if camp.size:
            rows.append({
                "layer": "Campbell exponent (adaptive_simpson under laplace_*)",
                "traced_mean_us": float(camp.mean()) / 1e3,
                "reference_speed_estimate_us": float(camp.mean()) / 1e3 * host_speed,
                "baseline_us": BASELINE_CAMPBELL_US,
                "samples": int(camp.size),
                "gap": "mean over every (q, annulus) the sweep visits, and it includes "
                       "the integrand-counting wrapper; analytic.kernel.per_call_us "
                       "adds the mean_packet_power Poisson quantile on top",
            })
        frames = st.get("simulator.run_frame", {}).get("calls", 0)
        if frames:
            ms = 1e3 * st["simulator.run_frame"]["total_s"] / frames
            rows.append({
                "layer": "simulator.run_frame",
                "traced_mean_ms": ms,
                "untraced_estimate_ms": ms / untraced,
                "reference_speed_estimate_ms": ms / untraced * host_speed,
                "baseline_ms": BASELINE_RUN_FRAME_MS,
                "samples": frames,
                "gap": RUN_FRAME_GAP.get(workload, ""),
            })
        return rows

    def write_spans(self, path: Path) -> None:
        """Write every span as gzip CSV: id, op, parent, name, start_ns, end_ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("span,op,parent,name,start_ns,end_ns\n")
            names = self.names
            for sid, (n, op, parent, t0, t1) in enumerate(zip(
                self.span_name, self.span_op, self.span_parent,
                self.span_start, self.span_end,
            )):
                fh.write(f"{sid},{op},{parent},{names[n]},{t0},{t1}\n")
