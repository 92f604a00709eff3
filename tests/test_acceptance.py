"""Acceptance criteria, one test per criterion (criterion 4 is split in two).

Each test prints a `criterion N: ...` line with the measured numbers; run
with `pytest tests/test_acceptance.py -v -s` to see them all. Shared
simulation sweeps live in module-scoped fixtures so each expensive run
happens once.
"""
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from edgeq import (
    AggregateProfile,
    CloudSpec,
    DtrpSpec,
    QueueSpec,
    Scenario,
    SeededStream,
    SimConfig,
    SinusoidProfile,
    UnstableQueue,
    VariabilitySpec,
    cloud_capacity_equivalent,
    edge_overprovision_factor,
    fluid_backlog,
    gg1_two_phase_wait,
    ggk_cloud_wait,
    mm1_two_phase_wait,
    overload_window,
    phase_shifted_sites,
    rush_hour_wait,
    service_scv,
    simulate_packing,
)
from edgeq.capacity import Topology, VmTrace
from edgeq.desim import replicate, run_model
from edgeq.harness import load_scenario, run_scenario
from edgeq.specs import PhaseMoments
from edgeq.workload import nhpp_sinusoidal

WORKERS = 4


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared expensive sweeps


@pytest.fixture(scope="module")
def fig4_results(tmp_path_factory):
    t0 = time.time()
    rows, summary, _ = run_scenario(
        load_scenario("fig4.scenario"),
        out_dir=tmp_path_factory.mktemp("fig4"),
        deterministic_names=True,
        workers=WORKERS,
    )
    return rows, summary, time.time() - t0


@pytest.fixture(scope="module")
def table1_results(tmp_path_factory):
    t0 = time.time()
    rows, summary, _ = run_scenario(
        load_scenario("table1.scenario"),
        out_dir=tmp_path_factory.mktemp("table1"),
        deterministic_names=True,
        workers=WORKERS,
    )
    return rows, summary, time.time() - t0


@pytest.fixture(scope="module")
def excess_results(tmp_path_factory):
    scenario = Scenario(
        name="fig6b_excess",
        model="excess_wait",
        grid={"amplitude": [0.1, 0.2, 0.3, 0.4, 0.5]},
        fixed={
            "rho": 0.8, "mu_eff": 100.0, "period_s": 1000.0,
            "horizon_periods": 12, "warmup": 0.1,
        },
        replications=30,
        seed=505,
    )
    t0 = time.time()
    rows, summary, _ = run_scenario(
        scenario, out_dir=tmp_path_factory.mktemp("fig6b"),
        deterministic_names=True, workers=WORKERS,
    )
    return rows, summary, time.time() - t0


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_exact_reductions():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        mu1 = rng.uniform(1.0, 200.0)
        lam = rng.uniform(0.05, 0.95) * mu1
        spec = QueueSpec(lam, mu1, rng.uniform(1.0, 200.0), 0.0)
        want = lam / (mu1 * (mu1 - lam))
        worst = max(worst, abs(mm1_two_phase_wait(spec) - want) / want)

        rho = rng.uniform(0.701, 0.999)
        mu = rng.uniform(0.1, 100.0)
        got = ggk_cloud_wait(CloudSpec(1, mu, rho), VariabilitySpec(1.0, 1.0))
        want = rho / (mu * (1 - rho))
        worst = max(worst, abs(got - want) / want)

        mu2 = rng.uniform(1.0, 200.0)
        r = rng.uniform(0.0, 1.0)
        lam2 = rng.uniform(0.05, 0.9) / (1.0 / mu1 + r / mu2)
        if r * lam2 < 0.9 * mu1:
            spec2 = QueueSpec(lam2, mu1, mu2, r)
            want = mm1_two_phase_wait(spec2)
            got = gg1_two_phase_wait(spec2, VariabilitySpec(1.0, 1.0))
            worst = max(worst, abs(got - want) / want)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report("1", ok, f"worst relative error {worst:.2e} over 1000 draws, {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_two_phase_sim_vs_formula():
    t0 = time.time()
    failures = []
    lines = []
    for r in (0.1, 0.3):
        for lam in (10.0, 20.0, 30.0, 40.0):
            spec = QueueSpec(lam, 50.0, 50.0, r)
            if spec.utilization >= 1.0:
                with pytest.raises(UnstableQueue):
                    mm1_two_phase_wait(spec)
                lines.append(f"(lam={lam:g}, r={r}) unstable, rejected")
                continue
            config = SimConfig(
                model="two_phase_edge", queue=spec, horizon_requests=200_000, warmup=0.1
            )
            agg = replicate(config, 30, SeededStream(2002, int(lam * 10 + r * 1000)))
            want = mm1_two_phase_wait(spec)
            rel = abs(agg.mean.mean_wait - want) / want
            lines.append(f"(lam={lam:g}, r={r}) rel_err={rel:.4f}")
            if rel > 0.05:
                failures.append((lam, r, rel))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 120.0
    report("2", ok, "; ".join(lines) + f"; {elapsed:.0f}s")
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_3_mobility_crossover(fig4_results):
    rows, summary, elapsed = fig4_results
    details = []
    ok = True
    for r in (0.1, 0.3):
        cross = summary["crossovers"][f"r={r:g}"]
        root, sim = cross["analytic_root_lam"], cross["sim_crossover_lam"]
        gap = abs(root - sim)
        details.append(f"r={r}: root={root:.2f} sim={sim:.2f} gap={gap:.2f}")
        ok &= gap <= 2.5
        low = next(
            row for row in rows
            if row.status == "ok"
            and row.parameters["lam"] == 5 and row.parameters["r"] == r
        )
        ok &= low.parameters["edge_response"] < low.parameters["cloud_response"]
    ok &= elapsed < 180.0
    report("3", ok, "; ".join(details) + f"; {elapsed:.0f}s")
    assert ok


def test_criterion_4_simulated_excess_dominates_taylor_term(excess_results):
    rows, _, elapsed = excess_results
    details = []
    ok = True
    for row in rows:
        amp = row.parameters["amplitude"]
        ok &= row.sim_value >= row.analytic_value
        details.append(f"A={amp:g}: sim={row.sim_value:.4f} >= dw={row.analytic_value:.4f}")
    # analytic quadratic law, exact
    base = rows[0].analytic_value  # A = 0.1
    doubled = rows[1].analytic_value  # A = 0.2
    ok &= abs(4 * base - doubled) <= 1e-12 * doubled
    ok &= elapsed < 300.0
    report("4a", ok, "; ".join(details) + f"; quadratic law exact; {elapsed:.0f}s")
    assert ok


def test_criterion_4_taylor_ratio_at_small_amplitudes(excess_results):
    # Accuracy target: the second-order term stays within 2x of the
    # simulated excess for A <= 0.3. At gamma = 2*pi/1000 the queue is
    # quasi-static (relaxation time is seconds against a 1000 s period)
    # and rho_bar*(1+A) reaches 1 at A = 0.25, so beyond that the excess
    # is fluid-dominated and the quadratic term under-reads it by orders
    # of magnitude; the assertion stands as the model's honest validity
    # envelope and currently fails at A = 0.2 and 0.3.
    rows, _, _ = excess_results
    ratios = {
        row.parameters["amplitude"]: row.analytic_value / row.sim_value
        for row in rows
        if row.parameters["amplitude"] <= 0.3
    }
    detail = ", ".join(f"A={a:g}: {v:.3f}" for a, v in ratios.items())
    ok = all(v >= 0.5 for v in ratios.values())
    report("4b", ok, f"analytic/sim ratios {detail} (threshold 0.5)")
    assert ok, f"analytic/sim ratio < 0.5: {detail}"


def test_criterion_5_fluid_rush_hour(table1_results):
    t0 = time.time()
    rng = np.random.default_rng(1005)
    # (a) net fluid input vs adaptive quadrature, 1000 overloaded profiles
    worst_quad = 0.0
    count = 0
    while count < 1000:
        lam_bar = rng.uniform(2.0, 50.0)
        amp = rng.uniform(0.05, 1.0)
        mu_eff = rng.uniform(0.55, 0.999 * (1 + amp)) * lam_bar
        gamma = rng.uniform(0.05, 5.0)
        phase = rng.uniform(0.0, 2 * math.pi)
        profile = SinusoidProfile(lam_bar, amp, gamma, phase)
        win = overload_window(profile, mu_eff)
        if win is None:
            continue
        count += 1
        val, _ = quad(
            lambda t: profile.rate(t) - mu_eff, win.t1, win.t2,
            epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        worst_quad = max(worst_quad, abs(fluid_backlog(profile, mu_eff) - val))
    ok_a = worst_quad <= 1e-9

    # (b) scale invariance at 32x, exact to 1e-12
    worst_scale = 0.0
    for _ in range(200):
        lam_bar = rng.uniform(2.0, 50.0)
        amp = rng.uniform(0.3, 1.0)
        mu_eff = rng.uniform(0.55, 0.95 * (1 + amp)) * lam_bar
        gamma = rng.uniform(0.05, 5.0)
        profile = SinusoidProfile(lam_bar, amp, gamma)
        base = rush_hour_wait(profile, mu_eff)
        scaled = rush_hour_wait(profile.scaled(32.0), 32.0 * mu_eff)
        if base > 0:
            worst_scale = max(worst_scale, abs(scaled - base) / base)
    rows, summary, table_elapsed = table1_results
    ok_b = worst_scale <= 1e-12 and summary["fluid_scale_invariance_drift"] == 0.0

    # (c) zero rush-hour wait below the overload threshold (A <= 0.5 here)
    below = [r for r in rows if r.parameters["amplitude"] <= 0.5]
    ok_c = all(r.analytic_value == 0.0 and r.sim_value == 0.0 for r in below)

    # (d) simulated rush wait >= fluid at the large scale, with the gap
    # shrinking as the scale grows
    gaps = {}
    for amp in (0.7, 0.8, 0.9):
        of_amp = {
            r.parameters["scale"]: r for r in rows if r.parameters["amplitude"] == amp
        }
        g32 = of_amp[1.0].sim_value - of_amp[1.0].analytic_value
        g512 = of_amp[16.0].sim_value - of_amp[16.0].analytic_value
        gaps[amp] = (g32, g512)
    ok_d = all(0.0 <= g512 < g32 for g32, g512 in gaps.values())

    elapsed = table_elapsed + time.time() - t0
    detail = (
        f"quad worst {worst_quad:.1e}; scale drift {worst_scale:.1e}; "
        f"zeros below threshold {ok_c}; gaps " +
        ", ".join(f"A={a}: {g32:.3f}->{g512:.3f}" for a, (g32, g512) in gaps.items()) +
        f"; {elapsed:.0f}s"
    )
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 600.0
    report("5", ok, detail)
    assert ok_a and ok_b and ok_c and ok_d
    assert elapsed < 600.0


def test_criterion_6_capacity_formulas():
    t0 = time.time()
    ok = edge_overprovision_factor(2.0) == 1.5
    ok &= abs(cloud_capacity_equivalent(DtrpSpec(96, 0.5, 0.0, 2.0), 0.5) - 64.0) < 1e-9
    ok &= abs(cloud_capacity_equivalent(DtrpSpec(160, 0.5, 0.0, 4.0), 0.5) - 128.0) < 1e-9
    rng = np.random.default_rng(1006)
    for _ in range(10_000):
        c_edge = rng.uniform(1.0, 1e5)
        rho_e = rng.uniform(0.0, 0.95)
        tau = rng.uniform(0.0, 0.9 * (1 - rho_e)) * c_edge
        q = rng.uniform(0.05, 100.0)
        rho_c = rng.uniform(0.0, rho_e) if rho_e > 0 else 0.0
        ok &= cloud_capacity_equivalent(DtrpSpec(c_edge, rho_e, tau, q), rho_c) < c_edge
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report("6", ok, f"factor(2)=1.5, 96->64, 160->128, 10^4 draws C_cloud<C_edge; {elapsed:.2f}s")
    assert ok


def test_criterion_7_packing(tmp_path_factory):
    t0 = time.time()
    # worked toy example: 0.8/0.8/0.2/0.2 on unit servers (x10 in cores)
    toy = VmTrace([0.0, 1.0, 2.0, 3.0], [100.0] * 4, [8, 8, 2, 2], [0, 0, 1, 1])
    cloud = simulate_packing(toy, Topology("cloud", 1, 4, 10), site_assign="hint")
    edge = simulate_packing(toy, Topology("edge", 2, 4, 10), site_assign="hint")
    ok_toy = cloud.peak_servers_used == 2 and edge.peak_servers_used == 3

    rows, summary, _ = run_scenario(
        load_scenario("fig8.scenario"),
        out_dir=tmp_path_factory.mktemp("fig8"),
        deterministic_names=True,
    )
    grid = [r.parameters["cores_per_site"] for r in rows]
    errs = [r.rel_err for r in rows]
    step = grid[1] - grid[0]
    model = summary["model_cores_per_site"]
    i_model = int(np.argmin([abs(g - model) for g in grid]))
    i_best = int(np.argmin(errs))
    ok_min = abs(grid[i_best] - grid[i_model]) <= step
    drops_before = [errs[i] - errs[i + 1] for i in range(i_model)]
    drops_after = [errs[i] - errs[i + 1] for i in range(i_model, len(errs) - 1)]
    ok_plateau = (
        min(drops_before) > 0.0
        and max(drops_after, default=0.0) < 0.25 * min(drops_before)
    )
    elapsed = time.time() - t0
    ok = ok_toy and ok_min and ok_plateau and elapsed < 300.0
    report(
        "7", ok,
        f"toy 2 vs 3 servers: {ok_toy}; argmin {grid[i_best]} vs model {model:.0f} "
        f"(step {step}); errors {[round(e, 3) for e in errs]}; {elapsed:.0f}s",
    )
    assert ok_toy
    assert ok_min and ok_plateau
    assert elapsed < 300.0


def test_criterion_8_statistical_hygiene():
    t0 = time.time()
    # Little's law on M/M/1 at 1e6 served requests
    config = SimConfig(
        model="two_phase_edge", queue=QueueSpec(20.0, 50.0, 50.0, 0.0),
        horizon_requests=1_000_000, warmup=0.1,
    )
    m = run_model(config, SeededStream(3001))[0]
    lam_hat = m.count_served / m.window_duration
    little_gap = abs(m.little_l - lam_hat * m.mean_sojourn) / m.little_l
    ok_little = little_gap <= 0.02

    # service scv against a 1e7-draw Monte Carlo
    rng = np.random.default_rng(3002)
    n = 10_000_000
    draws = rng.exponential(1.0, n) + (rng.uniform(size=n) < 0.5) * rng.exponential(1.0, n)
    sample_scv = float(draws.var() / draws.mean() ** 2)
    formula = service_scv(PhaseMoments.exponential(1.0, 1.0, 0.5))
    scv_gap = abs(formula - sample_scv) / sample_scv
    ok_scv = scv_gap <= 0.01
    del draws

    # NHPP per-bin rates within 3 sigma on all 100 bins
    profile = SinusoidProfile(80.0, 0.5, 2 * math.pi / 100)
    horizon = 10_000.0
    t = nhpp_sinusoidal(profile, horizon, SeededStream(21).generator())
    n_bins = 100
    width = profile.period / n_bins
    idx = np.minimum((np.mod(t, profile.period) / width).astype(int), n_bins - 1)
    counts = np.bincount(idx, minlength=n_bins)
    edges = np.arange(n_bins + 1) * width
    expected = profile.lambda_bar * (
        width - profile.amplitude / profile.gamma
        * (np.cos(profile.gamma * edges[1:]) - np.cos(profile.gamma * edges[:-1]))
    ) * (horizon / profile.period)
    nhpp_ok = bool(np.all(np.abs(counts - expected) <= 3 * np.sqrt(expected)))

    # migrated fraction within 3 sigma of r
    config_mig = SimConfig(
        model="two_phase_edge", queue=QueueSpec(20.0, 50.0, 50.0, 0.3),
        horizon_requests=1_000_000, warmup=0.1,
    )
    mm = run_model(config_mig, SeededStream(3003))[0]
    frac = mm.count_migrated / mm.count_served
    mig_gap = abs(frac - 0.3)
    ok_mig = mig_gap <= 3 * math.sqrt(0.3 * 0.7 / mm.count_served)

    elapsed = time.time() - t0
    ok = ok_little and ok_scv and nhpp_ok and ok_mig and elapsed < 180.0
    report(
        "8", ok,
        f"little {little_gap:.4f}<=0.02; scv {scv_gap:.4f}<=0.01; "
        f"nhpp bins 3sigma {nhpp_ok}; migration |{frac:.4f}-0.3| in 3sigma; {elapsed:.0f}s",
    )
    assert ok


def test_criterion_9_phase_shift_smoothing():
    t0 = time.time()
    base = SinusoidProfile(10.0, 0.7, 1.0)
    amps64, amps4 = [], []
    smoothed = 0
    for draw in range(100):
        sites64 = phase_shifted_sites(64, base, "uniform", SeededStream(4001, draw).generator())
        amp64 = AggregateProfile(sites64).relative_amplitude()
        amps64.append(amp64)
        smoothed += amp64 < base.amplitude
        sites4 = phase_shifted_sites(4, base, "uniform", SeededStream(4002, draw).generator())
        amps4.append(AggregateProfile(sites4).relative_amplitude())
    med64 = float(np.median(amps64))
    med4 = float(np.median(amps4))
    elapsed = time.time() - t0
    ok = smoothed >= 99 and med64 < med4 and elapsed < 30.0
    report(
        "9", ok,
        f"{smoothed}/100 draws below A; median k=64 {med64:.3f} < median k=4 {med4:.3f}; "
        f"{elapsed:.0f}s",
    )
    assert ok
