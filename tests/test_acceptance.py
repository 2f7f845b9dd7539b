"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or
``-rA``).  Monte Carlo seeds are fixed, so outcomes are reproducible.
Budgeted wall-clock limits are asserted where the criterion states them.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from musalink.analytic import frame_coverage_prob, slot_statistics
from musalink.cli import main
from musalink.config import Scenario, Scheme, TrafficParams, default_config, serialize_config
from musalink.optimizer import adaptive_slots, brute_force_slots, solve_n_epsilon
from musalink.shortpacket import error_prob_ln_form, max_snr_proxy
from musalink.simulator import check_frame_budget, estimate_coverage

from conftest import reference_config
from oracles import (
    BlocklengthPoint,
    laplace_collided,
    laplace_singleton,
    mmse_weights,
    ordered_distance_pdf,
    packet_error_prob,
    sic_decode,
)
from simpson import adaptive_simpson
from test_analytic import (
    collision_config,
    collision_mc,
    interference_laplace_mc,
    occupancy_mc,
    reference_s,
)
from test_simulator import expected_sinr_chain, make_manual_slot

WORKERS = min(2, os.cpu_count() or 1)
TRIALS = 10_000


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


# ----------------------------------------------------------------------------
#  1. Analytic vs simulation agreement at severe traffic
# ----------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_1_analytic_simulation_agreement():
    gaps = {}
    budget_ok = True
    for n_active, lam in [(20, 8.0), (20, 10.0), (10, 2.0)]:
        cfg = reference_config(n_active=n_active, lam=lam, n_slots=20)
        analytic = frame_coverage_prob(cfg).p_succ
        t0 = time.perf_counter()
        sim = estimate_coverage(cfg, Scheme.BASELINE, TRIALS, seed=100, n_workers=WORKERS)
        elapsed = time.perf_counter() - t0
        budget_ok &= elapsed <= 300.0
        gaps[(n_active, lam)] = abs(analytic - sim.p_hat)
    severe_ok = gaps[(20, 8.0)] <= 0.10 and gaps[(20, 10.0)] <= 0.10
    ordering_ok = gaps[(20, 10.0)] < gaps[(10, 2.0)]
    ok = severe_ok and ordering_ok and budget_ok
    _report(
        1, ok,
        f"gaps: (20,8)={gaps[(20, 8.0)]:.4f} (20,10)={gaps[(20, 10.0)]:.4f} "
        f"(10,2)={gaps[(10, 2.0)]:.4f}; budget ok={budget_ok}",
    )
    assert severe_ok, f"severe-traffic gaps exceed 0.10: {gaps}"
    assert ordering_ok, "gap at heavy load not smaller than at light load"
    assert budget_ok, "simulation exceeded 5 minutes per grid point"


# ----------------------------------------------------------------------------
#  2. Coverage monotonicity
# ----------------------------------------------------------------------------

def test_criterion_2_monotonicity_suite():
    t0 = time.perf_counter()
    slack = 1e-6
    by_lambda = [
        frame_coverage_prob(reference_config(n_active=20, lam=l, n_slots=20)).p_succ
        for l in (2, 4, 6, 8, 10)
    ]
    lam_ok = all(b <= a + slack for a, b in zip(by_lambda, by_lambda[1:]))
    by_n_active = [
        frame_coverage_prob(reference_config(n_active=n, lam=4.0, n_slots=20)).p_succ
        for n in (10, 15, 20)
    ]
    na_ok = all(b <= a + slack for a, b in zip(by_n_active, by_n_active[1:]))
    by_slots = [
        frame_coverage_prob(reference_config(n_active=20, lam=4.0, n_slots=n)).p_succ
        for n in range(5, 41, 5)
    ]
    slots_ok = all(b >= a - slack for a, b in zip(by_slots, by_slots[1:]))
    elapsed = time.perf_counter() - t0
    in_budget = elapsed <= 120.0
    ok = lam_ok and na_ok and slots_ok and in_budget
    _report(
        2, ok,
        f"lambda-sweep ok={lam_ok}, n_active-sweep ok={na_ok}, "
        f"slot-sweep ok={slots_ok}, elapsed={elapsed:.1f}s",
    )
    assert lam_ok, f"coverage not nonincreasing in lambda: {by_lambda}"
    assert na_ok, f"coverage not nonincreasing in n_active: {by_n_active}"
    assert slots_ok, f"coverage not nondecreasing in n_slots: {by_slots}"
    assert in_budget


# ----------------------------------------------------------------------------
#  3. Short-packet identity and trends
# ----------------------------------------------------------------------------

def test_criterion_3_short_packet_identity_and_trends():
    b, t_f, d = 5e6, 1e-3, 200
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        gamma = 10.0 ** rng.uniform(-1, 2)
        n = rng.uniform(1.0, 200.0)
        ln_form = error_prob_ln_form(gamma, n, b, t_f, d)
        base2 = packet_error_prob(
            BlocklengthPoint(sinr=gamma, n_slots=n, channel_uses=b * t_f,
                             packet_bits=d)
        )
        worst = max(worst, abs(ln_form - base2))
    identity_ok = worst <= 1e-12

    # strictly increasing in the slot count inside floating range
    eps_n = [
        packet_error_prob(
            BlocklengthPoint(sinr=1.0, n_slots=n, channel_uses=b * t_f,
                             packet_bits=d)
        )
        for n in range(2, 51)
    ]
    n_trend_ok = all(y > x for x, y in zip(eps_n, eps_n[1:]))

    eps_g = [
        packet_error_prob(
            BlocklengthPoint(sinr=g, n_slots=20, channel_uses=b * t_f,
                             packet_bits=d)
        )
        for g in (0.5, 1.0, 2.0, 3.16, 5.0, 10.0)
    ]
    g_trend_ok = all(y < x for x, y in zip(eps_g, eps_g[1:]))
    ok = identity_ok and n_trend_ok and g_trend_ok
    _report(
        3, ok,
        f"base-change worst |delta|={worst:.2e}, slot trend ok={n_trend_ok}, "
        f"sinr trend ok={g_trend_ok}",
    )
    assert identity_ok and n_trend_ok and g_trend_ok


# ----------------------------------------------------------------------------
#  4. Optimizer correctness and boundary optimality
# ----------------------------------------------------------------------------

def test_criterion_4_optimizer_correctness():
    cfg = reference_config(n_active=10, lam=4.0)
    gamma = max_snr_proxy(cfg)
    eps = cfg.reliability.epsilon_max
    b, t_f, d = (cfg.channel.bandwidth, cfg.frame.frame_duration, cfg.frame.packet_bits)
    root = solve_n_epsilon(gamma, eps, b, t_f, d)
    residual = abs(error_prob_ln_form(gamma, root, b, t_f, d) - eps)
    residual_ok = residual <= 1e-10

    # uniqueness: the error is monotone across the bracket, so exactly one
    # sign change exists
    n_up = b * t_f * math.log2(1.0 + gamma) / d
    probe = np.linspace(1.0, n_up, 100)
    vals = [error_prob_ln_form(gamma, n, b, t_f, d) - eps for n in probe]
    signs = np.sign(vals)
    changes = int(np.sum(signs[:-1] != signs[1:]))
    unique_ok = changes == 1 and all(
        y >= x for x, y in zip(vals, vals[1:])
    )

    decomposition_ok = True
    boundary_ok = True
    pairs = [(10, 2.0), (15, 3.0), (10, 4.0), (20, 6.0), (10, 8.0), (15, 10.0)]
    for n_active, lam in pairs:
        cfg_p = reference_config(n_active=n_active, lam=lam)
        out = adaptive_slots(cfg_p)
        decomposition_ok &= out.n_practical == math.floor(
            min(out.n_lambda_bound, out.n_epsilon_bound)
        )
        lo = math.ceil(lam)
        grid = sorted({int(round(x)) for x in np.linspace(lo, out.n_practical, 6)})
        result = brute_force_slots(cfg_p, grid)
        p_at_choice = dict(result.curve)[out.n_practical]
        boundary_ok &= (
            result.best_n == out.n_practical
            or result.best_p - p_at_choice <= 1e-3
        )
        curve_vals = [p for _, p in result.curve]
        boundary_ok &= all(y >= x - 1e-6 for x, y in zip(curve_vals, curve_vals[1:]))
    ok = residual_ok and unique_ok and decomposition_ok and boundary_ok
    _report(
        4, ok,
        f"residual={residual:.2e}, unique root={unique_ok}, "
        f"floor-min decomposition={decomposition_ok}, boundary argmax={boundary_ok}",
    )
    assert residual_ok and unique_ok and decomposition_ok and boundary_ok


# ----------------------------------------------------------------------------
#  5. Sampling-law oracles
# ----------------------------------------------------------------------------

def test_criterion_5_sampling_law_oracles():
    occ = TrafficParams(lam=2.0).slot_occupancy(20)
    occ_mc = occupancy_mc(2.0, 20, 1_000_000, seed=501)
    occ_ok = abs(occ - occ_mc) <= 3e-3

    # p_lambda = 1/10 outside an emergency with 10 slots
    quiet = slot_statistics(collision_config(10, 64, n_slots=10, scenario=Scenario.NON_EMERGENCY))
    cf = quiet.p_cf
    cf_mc = collision_mc(quiet.p_lambda, 10, 64, 1_000_000, seed=502)
    cf_ok = abs(cf - cf_mc) <= 3e-3

    norm, _ = adaptive_simpson(
        lambda x: ordered_distance_pdf(2, 5, 50.0, x), 0.0, 50.0, tol=1e-10
    )
    norm_ok = abs(norm - 1.0) <= 1e-9

    rng = np.random.default_rng(503)
    radii = 50.0 * np.sqrt(rng.random((1_000_000, 5)))
    kth = np.sort(radii, axis=1)[:, 1]
    edges = np.linspace(0.0, 50.0, 51)
    hist, _ = np.histogram(kth, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    pdf = np.array([ordered_distance_pdf(2, 5, 50.0, c) for c in centers])
    sampling_ok = float(np.max(np.abs(hist - pdf))) <= 1e-2

    cfg = default_config()
    stats = slot_statistics(cfg)
    zero_ok = (
        laplace_singleton(0.0, 25.0, cfg, stats.omega_s) == 1.0
        and laplace_collided(0.0, cfg, stats.omega_c) == 1.0
    )
    s = reference_s(cfg, 25.0)
    ls = laplace_singleton(s, 25.0, cfg, stats.omega_s)
    ls_mc = interference_laplace_mc(
        s, 25.0, 50.0, stats.omega_s, cfg, 100_000, seed=504
    )
    cfg8 = reference_config(n_active=10, lam=8.0)
    stats8 = slot_statistics(cfg8)
    s8 = reference_s(cfg8, 25.0)
    lc = laplace_collided(s8, cfg8, stats8.omega_c)
    lc_mc = interference_laplace_mc(
        s8, 0.0, 50.0, stats8.omega_c, cfg8, 100_000, seed=505
    )
    laplace_ok = (
        abs(ls - ls_mc) / ls_mc <= 2e-2 and abs(lc - lc_mc) / lc_mc <= 2e-2
    )
    ok = occ_ok and cf_ok and norm_ok and sampling_ok and zero_ok and laplace_ok
    _report(
        5, ok,
        f"occupancy |d|={abs(occ - occ_mc):.2e}, collision-free |d|={abs(cf - cf_mc):.2e}, "
        f"pdf norm |d|={abs(norm - 1):.1e}, sampling sup={float(np.max(np.abs(hist - pdf))):.3f}, "
        f"laplace rel d=({abs(ls - ls_mc) / ls_mc:.3f}, {abs(lc - lc_mc) / lc_mc:.3f})",
    )
    assert occ_ok and cf_ok and norm_ok and sampling_ok and zero_ok and laplace_ok


# ----------------------------------------------------------------------------
#  6. Scheme comparison
# ----------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_scheme_comparison():
    # benchmarks run at their single-packet design point: one slot per
    # device of the non-emergency load (n_slots = n_active)
    cfg = reference_config(n_active=10, lam=2.0, n_slots=10)
    lambdas = list(range(2, 11))
    results: dict[Scheme, list] = {s: [] for s in (Scheme.PROPOSED, Scheme.TPDS, Scheme.NAS)}
    for lam in lambdas:
        cfg_l = replace(cfg, traffic=replace(cfg.traffic, lam=float(lam)))
        for scheme in results:
            est = estimate_coverage(cfg_l, scheme, TRIALS, seed=600 + lam,
                                    n_workers=WORKERS)
            results[scheme].append(est)
    print("lambda  proposed            tpds                nas")
    for i, lam in enumerate(lambdas):
        cells = "  ".join(
            f"{results[s][i].p_hat:.4f}+-{results[s][i].ci_halfwidth:.4f}"
            for s in (Scheme.PROPOSED, Scheme.TPDS, Scheme.NAS)
        )
        print(f"{lam:>6}  {cells}")
    prop = [e.p_hat for e in results[Scheme.PROPOSED]]
    tpds = [e.p_hat for e in results[Scheme.TPDS]]
    nas = [e.p_hat for e in results[Scheme.NAS]]
    nas_ok = all(p >= n for p, n in zip(prop, nas))
    tpds_ok = all(
        prop[lambdas.index(l)] >= tpds[lambdas.index(l)] for l in (6, 8, 10)
    )
    range_ok = (max(prop) - min(prop)) < (max(tpds) - min(tpds))
    ok = nas_ok and tpds_ok and range_ok
    _report(
        6, ok,
        f"proposed>=nas ok={nas_ok}, proposed>=tpds(6,8,10) ok={tpds_ok}, "
        f"range proposed={max(prop) - min(prop):.4f} < tpds={max(tpds) - min(tpds):.4f}",
    )
    assert nas_ok and tpds_ok and range_ok


# ----------------------------------------------------------------------------
#  7. Determinism
# ----------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(serialize_config(reference_config(n_active=10, lam=4.0)))
    outs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code = main([
            "simulate", "--config", str(cfg_path), "--scheme", "baseline",
            "--trials", "200", "--seed", "77", "--out", str(out),
        ])
        assert code == 0
        outs.append(out.read_bytes())
    bytes_ok = outs[0] == outs[1]

    # more frames than one block holds, so the two workers share the run
    cfg = reference_config(n_active=10, lam=4.0)
    assert check_frame_budget(cfg, Scheme.BASELINE)[1] < 300
    serial = estimate_coverage(cfg, Scheme.BASELINE, 300, seed=42, n_workers=1)
    parallel = estimate_coverage(cfg, Scheme.BASELINE, 300, seed=42, n_workers=2)
    worker_ok = serial == parallel
    ok = bytes_ok and worker_ok
    _report(7, ok, f"csv bytes identical={bytes_ok}, worker-count invariant={worker_ok}")
    assert bytes_ok and worker_ok


# ----------------------------------------------------------------------------
#  8. Receiver micro-oracles
# ----------------------------------------------------------------------------

def test_criterion_8_receiver_micro_oracles():
    rng = np.random.default_rng(808)
    residual_ok = True
    for _ in range(10):
        g = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        p = rng.uniform(0.5, 2.0, 3)
        wh = mmse_weights(g, p, 0.05)
        sqrt_p = np.sqrt(p)
        a = (sqrt_p[:, None] * (g.conj().T @ g)) * sqrt_p[None, :] + 0.05 * np.eye(3)
        residual_ok &= float(np.max(np.abs(a @ wh - sqrt_p[:, None] * g.conj().T))) < 1e-10

    fading = np.array(
        [
            [1.2 + 0.3j, -0.4 + 0.9j],
            [0.8 - 0.6j, 0.3 + 0.4j],
            [0.05 + 0.02j, -0.03 - 0.04j],
        ]
    )
    codes = np.array(
        [[1 + 1j, 1 - 1j], [1 + 1j, -1 + 1j], [-1 - 1j, 1 + 1j]]
    ) / 2.0
    path_gain = np.array([1.0, 0.6, 0.3])
    powers = np.array([1.0, 1.0, 1.0])
    sigma2 = 0.01
    g = ((fading * codes) * np.sqrt(path_gain)[:, None]).T
    expected = expected_sinr_chain(g, powers, sigma2, order=[0, 1, 2])
    slot = make_manual_slot(fading, codes, path_gain, powers, [5.0, 15.0, 30.0])
    outcome = sic_decode(slot, theta=0.5, noise_power=sigma2)
    got = [s for _, s in outcome.sinr_trace]
    trace_err = max(abs(a - b) for a, b in zip(got, expected))
    trace_ok = len(got) == 3 and trace_err <= 1e-9
    ok = residual_ok and trace_ok
    _report(8, ok, f"weight residual<1e-10={residual_ok}, trace |d|={trace_err:.2e}")
    assert residual_ok and trace_ok
