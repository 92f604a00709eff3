"""Simulator tests: analytic oracles, conservation, and reproducibility."""
import ast
import csv
import dataclasses
import hashlib
import inspect
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeq import (
    CloudSpec,
    ConfigError,
    InstabilityDetected,
    NetworkSpec,
    QueueSpec,
    RenewalSpec,
    SeededStream,
    SimConfig,
    SinusoidProfile,
    TimeSeriesMetrics,
    UnstableQueue,
    VariabilitySpec,
    erlang_c_wait,
    gg1_two_phase_wait,
    mm1_two_phase_wait,
    nhpp_sinusoidal,
    overload_window,
    renewal_times,
    replicate,
    run_model,
)
from edgeq import desim
from edgeq.desim import SimMetrics, _time_average_in_system, lindley_waits, multiserver_waits
from edgeq.workload import BLOCK, exponential_fill


def two_phase_config(lam, r, n=200_000, **kw):
    return SimConfig(
        model="two_phase_edge",
        queue=QueueSpec(lam, 50.0, 50.0, r),
        horizon_requests=n,
        **kw,
    )


# (inter-arrival gap, service time) pairs; lengths 0 and 1 included
queue_inputs = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), min_size=0, max_size=200
).map(lambda pairs: (
    np.cumsum([gap for gap, _ in pairs]),
    np.array([svc for _, svc in pairs], dtype=float),
))


def _uniform_queue(seed_and_n):
    rng = np.random.default_rng(seed_and_n[0])
    return np.cumsum(rng.random(seed_and_n[1])), rng.random(seed_and_n[1])


seeded_queue_inputs = st.tuples(st.integers(0, 2**32 - 1), st.integers(100, 200)).map(_uniform_queue)


class TestLindleyCore:
    @settings(max_examples=200, deadline=None)
    @given(queue_inputs)
    def test_matches_direct_recursion(self, inputs):
        t, s = inputs
        got = lindley_waits(t, s)
        assert len(got) == len(t)
        w = 0.0
        for i in range(1, len(t)):
            w = max(0.0, w + s[i - 1] - (t[i] - t[i - 1]))
            # 200 steps of size <= 1 in float64 round by well under 1e-9 in either form
            assert got[i] == pytest.approx(w, abs=1e-9)
        if len(t):
            assert got[0] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(queue_inputs)
    def test_in_place_walk_equals_the_concatenated_expression(self, inputs):
        t, s = inputs
        want = np.empty(0)
        if len(t):
            walk = np.concatenate(([0.0], np.cumsum(s[:-1] - np.diff(t))))
            want = walk - np.minimum.accumulate(walk)
        np.testing.assert_array_equal(lindley_waits(t, s), want)

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_services_drawn_in_the_walk_equal_the_drawn_array(self, n):
        t = np.cumsum(np.random.default_rng(n).exponential(1.0, n))
        inside, ahead = SeededStream(n).generator(), SeededStream(n).generator()
        got = lindley_waits(t, exponential_fill(0.9, inside))
        assert got.tobytes() == lindley_waits(t, ahead.exponential(0.9, n)).tobytes()
        assert inside.random(4).tobytes() == ahead.random(4).tobytes()  # the stream is left in the same state

    @pytest.mark.parametrize("load", [0.9, 1.1])
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_blocked_running_minimum_is_bitwise_the_whole_one(self, n, load):
        # below load 1 the walk keeps setting new minima in later blocks; above it the
        # early minimum must be carried through every block
        rng = np.random.default_rng(n)
        t = np.cumsum(rng.exponential(1.0, n))
        s = rng.exponential(load, n)
        want = np.empty(0)
        if n:
            walk = np.concatenate(([0.0], np.cumsum(s[:-1] - np.diff(t))))
            want = walk - np.minimum.accumulate(walk)
        assert lindley_waits(t, s).tobytes() == want.tobytes()

    # on a clock 1000 times faster, arrivals start at small t, far below the departures they
    # wait for, where ``soonest - t`` rounds and only ``t + w + s`` matches the loop; the
    # seeded uniform draws have full mantissas, which Hypothesis's own floats seldom give
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(queue_inputs, seeded_queue_inputs), st.integers(1, 8), st.sampled_from([1.0, 1e-3]))
    def test_multiserver_matches_min_free_server_loop(self, inputs, k, clock):
        t, s = inputs
        t = t * clock
        free = [0.0] * k  # time each server next becomes free
        want = []
        for arrival, service in zip(t, s):
            j = free.index(min(free))
            wait = max(0.0, free[j] - arrival)
            want.append(wait)
            free[j] = arrival + wait + service
        got = multiserver_waits(t, s, k)
        if k == 1:
            # k = 1 runs lindley_waits, whose reflected-walk form rounds differently from the loop
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        else:
            np.testing.assert_array_equal(got, np.array(want, dtype=float))


def sorted_event_time_average(arrivals, departures, t0, t1):
    """Reference: the number in system as a step function over the sorted events."""
    if t1 <= t0:
        return 0.0
    times = np.concatenate([arrivals, departures])
    deltas = np.concatenate([np.ones(len(arrivals)), -np.ones(len(departures))])
    order = np.argsort(times, kind="stable")
    times, deltas = times[order], deltas[order]
    levels = np.cumsum(deltas)
    seg = np.clip(times[1:], t0, t1) - np.clip(times[:-1], t0, t1)
    return float(np.sum(levels[:-1] * seg)) / (t1 - t0)


times = st.floats(0.0, 10.0, allow_subnormal=False)


class TestTimeAverageInSystem:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(times, times), min_size=0, max_size=200),
        st.floats(-5.0, 2100.0, allow_subnormal=False),
        st.floats(-5.0, 2100.0, allow_subnormal=False),
    )
    def test_overlap_sum_matches_sorted_events(self, pairs, t0, t1):
        # sorted arrivals; departures at or after their arrivals, in any order;
        # windows may be empty, inverted or outside the events
        arrivals = np.cumsum([gap for gap, _ in pairs])
        departures = arrivals + np.array([stay for _, stay in pairs], dtype=float)
        got = _time_average_in_system(arrivals, departures, t0, t1)
        assert got == pytest.approx(sorted_event_time_average(arrivals, departures, t0, t1), rel=1e-9)


def mtm1_config(amplitude, **kw):
    defaults = dict(
        model="mtm1_sinusoidal",
        queue=QueueSpec(16.0, 32.0, 32.0, 0.3),
        profile=SinusoidProfile(16.0, amplitude, 2 * math.pi / 200),
        horizon_s=2000.0,
    )
    defaults.update(kw)
    return SimConfig(**defaults)


class TestTwoPhaseSim:
    def test_mm1_oracle_without_migration(self):
        agg = replicate(two_phase_config(10.0, 0.0), 5, SeededStream(100))
        assert agg.mean.mean_wait == pytest.approx(0.005, rel=0.05)

    def test_two_phase_oracle_with_migration(self):
        agg = replicate(two_phase_config(10.0, 0.1), 5, SeededStream(101))
        assert agg.mean.mean_wait == pytest.approx(0.00656201, rel=0.05)

    def test_erlang_service_warns_like_renewal_times(self):
        spec = RenewalSpec(0.3, "erlang")
        with pytest.warns(UserWarning) as direct:
            renewal_times(spec, 0.02, 1, SeededStream(0).generator())
        with pytest.warns(UserWarning) as simulated:
            run_model(two_phase_config(10.0, 0.1, n=1000, service1=spec), SeededStream(102))
        assert [str(w.message) for w in simulated] == [str(w.message) for w in direct]

    @pytest.mark.parametrize("horizon", [{"horizon_requests": -1}, {"horizon_s": -1.0}])
    def test_negative_horizon_rejected(self, horizon):
        (key,) = horizon
        with pytest.raises(ConfigError, match=rf"simulation\.{key} \(SimConfig\.{key}\): must be"):
            SimConfig(model="two_phase_edge", queue=QueueSpec(10.0, 50.0, 50.0, 0.1), **horizon)

    def test_zero_requests_give_zero_metrics(self):
        m = run_model(two_phase_config(10.0, 0.1, n=0), SeededStream(102))[0]
        assert m.count_served == 0 and m.mean_wait == 0.0

    def test_deterministic_for_fixed_stream(self):
        a = run_model(two_phase_config(20.0, 0.3, n=50_000), SeededStream(103, 4))[0]
        b = run_model(two_phase_config(20.0, 0.3, n=50_000), SeededStream(103, 4))[0]
        assert a == b

    def test_migration_fraction_within_three_sigma(self):
        m = run_model(two_phase_config(20.0, 0.3, n=200_000), SeededStream(104))[0]
        n = m.count_served
        assert abs(m.count_migrated / n - 0.3) <= 3 * math.sqrt(0.3 * 0.7 / n)

    def test_observed_utilization_tracks_offered_load(self):
        m = run_model(two_phase_config(20.0, 0.3, n=1_000_000), SeededStream(105))[0]
        assert m.utilization_observed == pytest.approx(20 / 50 + 0.3 * 20 / 50, rel=0.01)

    @pytest.mark.parametrize("model", ["two_phase_edge", "mmk_cloud", "mtm1_sinusoidal"])
    def test_littles_law(self, model):
        # M/M/4 departures leave arrival order; the sinusoid's load changes over the window
        if model == "two_phase_edge":
            m = run_model(two_phase_config(20.0, 0.0, n=1_000_000), SeededStream(106))[0]
        elif model == "mmk_cloud":
            cfg = SimConfig(model="mmk_cloud", cloud=CloudSpec(4, 50.0, 0.8), horizon_requests=400_000)
            m, _ = run_model(cfg, SeededStream(106))
        else:
            m, _ = run_model(mtm1_config(0.5, horizon_s=20_000.0), SeededStream(106))
        lam_hat = m.count_served / m.window_duration
        assert m.little_l == pytest.approx(lam_hat * m.mean_sojourn, rel=0.02)

    def test_rtt_added_to_response(self):
        net = NetworkSpec(t_edge=0.005, t_cloud=0.028)
        base = run_model(two_phase_config(10.0, 0.1, n=20_000), SeededStream(107))[0]
        with_net = run_model(two_phase_config(10.0, 0.1, n=20_000, network=net), SeededStream(107))[0]
        assert with_net.mean_response == pytest.approx(base.mean_response + 0.005, rel=1e-9)
        assert with_net.mean_wait == pytest.approx(base.mean_wait, rel=1e-12)

    def test_unstable_config_rejected(self):
        with pytest.raises(UnstableQueue):
            run_model(two_phase_config(40.0, 0.3), SeededStream(108))

    def test_instability_heuristic_trips(self):
        cfg = SimConfig(
            model="two_phase_edge",
            queue=QueueSpec(80.0, 50.0, 50.0, 0.0),
            horizon_requests=50_000,
            allow_unstable=True,
            max_in_system=500,
        )
        with pytest.raises(InstabilityDetected):
            run_model(cfg, SeededStream(110))

    def test_event_log_schema(self, tmp_path):
        log = tmp_path / "events.csv"
        cfg = two_phase_config(10.0, 0.5, n=200, event_log=str(log))
        run_model(cfg, SeededStream(111))
        with open(log) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["event_time", "event_type", "request_id", "queue_id"]
        times = [float(r[0]) for r in rows[1:]]
        assert times == sorted(times)
        kinds = {r[1] for r in rows[1:]}
        assert kinds == {"arrival", "service_start", "departure"}

    @pytest.mark.parametrize("dest_rate", [40.0, math.inf])
    def test_event_log_matches_tuple_sort_writer(self, tmp_path, monkeypatch, dest_rate):
        # an infinite destination rate makes a migrant's two departures coincide, so the queue id breaks ties
        written, write = [], desim._write_event_log

        def recording(path, *queues):
            written.append(queues)
            return write(path, *queues)

        monkeypatch.setattr(desim, "_write_event_log", recording)
        log = tmp_path / "events.csv"
        cfg = two_phase_config(20.0, 0.5, n=3000, dest_rate=dest_rate, event_log=str(log))
        run_model(cfg, SeededStream(113))

        rows = []  # the tuple-sort writer the vectorised one replaced, as the oracle
        for queue_id, ids, arrivals, starts, departures in written[0]:
            for i, t, s, d in zip(ids, arrivals, starts, departures):
                rows.append((float(t), "arrival", int(i), queue_id))
                rows.append((float(s), "service_start", int(i), queue_id))
                rows.append((float(d), "departure", int(i), queue_id))
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["event_time", "event_type", "request_id", "queue_id"])
            for row in sorted(rows):
                writer.writerow([f"{row[0]:.9g}", row[1], row[2], row[3]])
        migrants = {row[2] for row in rows if row[3] == "dest"}
        assert len(migrants) > 1000
        assert log.read_bytes() == oracle.read_bytes()

    @pytest.mark.parametrize("model", ["two_phase_edge", "mtm1_sinusoidal"])
    def test_phase_two_drawn_only_for_migrants(self, monkeypatch, model):
        # bitwise oracle: a boolean mask, full-length zeros and a plain sum
        services, lindley = [], desim.lindley_waits

        def recording(arrivals, s):
            services.append(s.copy())
            return lindley(arrivals, s)

        monkeypatch.setattr(desim, "lindley_waits", recording)
        stream = SeededStream(170)
        rng = stream.generator()  # the run's draws, in its order
        if model == "two_phase_edge":
            cfg = two_phase_config(20.0, 0.3, n=200_000)
            run_model(cfg, stream)
            n = cfg.horizon_requests
            rng.exponential(1.0 / cfg.queue.lam, n)
        else:
            cfg = mtm1_config(0.5, horizon_s=20_000.0, two_stage_service=True)
            run_model(cfg, stream)
            n = len(nhpp_sinusoidal(cfg.profile, cfg.horizon_s, rng))
        q = cfg.queue
        migrate = rng.random(n) < q.r
        x1 = rng.exponential(1.0 / q.mu1, n)
        x2 = np.zeros(n)
        x2[migrate] = rng.exponential(1.0 / q.mu2, np.count_nonzero(migrate))
        np.testing.assert_array_equal(services[0], x1 + x2)
        # E[s1] = 1/mu1 + r/mu2, within three standard errors
        s1 = services[0]
        assert abs(s1.mean() - (1.0 / q.mu1 + q.r / q.mu2)) <= 3 * s1.std(ddof=1) / math.sqrt(n)

    @pytest.mark.parametrize("mu1, mu2", [(50.0, 20.0), (20.0, 50.0)])
    def test_destination_serves_at_mu1_by_default(self, mu1, mu2):
        # the destination is an ordinary edge site, as in analytic.destination_wait
        spec = QueueSpec(10.0, mu1, mu2, 0.3)
        agg = replicate(SimConfig(model="two_phase_edge", queue=spec, horizon_requests=200_000), 10, SeededStream(114))
        assert agg.mean.mean_wait == pytest.approx(mm1_two_phase_wait(spec), rel=0.05)

    def test_home_load_slows_destination(self):
        quiet = replicate(two_phase_config(10.0, 0.3, n=50_000), 3, SeededStream(112))
        busy = replicate(
            two_phase_config(10.0, 0.3, n=50_000, dest_home_load=30.0), 3, SeededStream(112)
        )
        assert busy.mean.mean_wait > quiet.mean.mean_wait


class TestGg1EdgeSim:
    def test_markovian_renewal_specs_match_mm1(self):
        cfg = SimConfig(
            model="two_phase_edge",
            queue=QueueSpec(10.0, 50.0, 50.0, 0.1),
            arrivals=RenewalSpec(1.0, "exponential"),
            horizon_requests=200_000,
        )
        agg = replicate(cfg, 5, SeededStream(120))
        assert agg.mean.mean_wait == pytest.approx(0.00656201, rel=0.05)

    def test_erlang_service_matches_pollaczek_khinchine(self):
        # exponential arrivals + Erlang-2 service at r=0: the variability
        # formula is the exact M/G/1 answer at cs2 = 0.5
        spec = QueueSpec(20.0, 50.0, 50.0, 0.0)
        cfg = SimConfig(
            model="two_phase_edge",
            queue=spec,
            service1=RenewalSpec(0.5, "erlang"),
            horizon_requests=200_000,
        )
        agg = replicate(cfg, 5, SeededStream(121))
        want = gg1_two_phase_wait(spec, VariabilitySpec(1.0, 0.5))
        assert agg.mean.mean_wait == pytest.approx(want, rel=0.05)

    def test_bursty_arrivals_raise_waits(self):
        spec = QueueSpec(20.0, 50.0, 50.0, 0.0)
        cfg = SimConfig(
            model="two_phase_edge",
            queue=spec,
            arrivals=RenewalSpec(4.0, "hyperexponential2"),
            horizon_requests=200_000,
        )
        agg = replicate(cfg, 5, SeededStream(122))
        assert agg.mean.mean_wait > 1.5 * mm1_two_phase_wait(spec)

    # a law is a shape: the queue spec sets every rate, so exponential laws are the default draws
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([{"horizon_requests": 800}, {"horizon_s": 40.0}]), st.floats(1.0, 20.0),
           st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_explicit_exponential_laws_equal_no_laws(self, horizon, lam, r, seed):
        bare = SimConfig(model="two_phase_edge", queue=QueueSpec(lam, 50.0, 40.0, r), **horizon)
        laws = dataclasses.replace(bare, arrivals=RenewalSpec(), service1=RenewalSpec(), service2=RenewalSpec())
        assert repr(run_model(laws, SeededStream(seed))) == repr(run_model(bare, SeededStream(seed)))


class TestMmkSim:
    def test_k1_matches_mm1_wait(self):
        cfg = SimConfig(model="mmk_cloud", cloud=CloudSpec(1, 50.0, 0.5), horizon_requests=200_000)
        agg = replicate(cfg, 5, SeededStream(130))
        assert agg.mean.mean_wait == pytest.approx(0.5 / (50 * 0.5), rel=0.05)

    def test_k16_matches_erlang_c_and_exact_conditional(self):
        cloud = CloudSpec(16, 50.0, 0.8)
        cfg = SimConfig(model="mmk_cloud", cloud=cloud, horizon_requests=200_000)
        agg = replicate(cfg, 5, SeededStream(131))
        assert agg.mean.mean_wait == pytest.approx(erlang_c_wait(cloud), rel=0.1)
        exact_conditional = 1.0 / (16 * 50.0 * (1 - 0.8))
        assert agg.mean.mean_wait_conditional == pytest.approx(exact_conditional, rel=0.1)

    # each used to run no request and read 0 in every metric, even under horizon_requests
    @pytest.mark.parametrize("horizon", [{"horizon_s": 100.0}, {"horizon_requests": 1000}],
                             ids=["horizon_s", "horizon_requests"])
    @pytest.mark.parametrize("cloud", [CloudSpec(4, 50.0, 0.0), CloudSpec(1, 1e-10, 1e-320)],
                             ids=["rho-0", "rate-underflow"])
    def test_zero_arrival_rate_is_refused(self, horizon, cloud):
        message = (r"^cloud\.rho \(SimConfig\.cloud\): the arrival rate rho\*k\*mu must be > 0, "
                   rf"got 0\.0 at rho {cloud.rho_cloud!r}$")
        with pytest.raises(ConfigError, match=message):
            SimConfig(model="mmk_cloud", cloud=cloud, **horizon)

    def test_unstable_pool_rejected(self):
        cfg = SimConfig(model="mmk_cloud", cloud=CloudSpec(4, 50.0, 1.2), horizon_requests=100)
        with pytest.raises(UnstableQueue):
            run_model(cfg, SeededStream(133))


class TestMtm1Sim:
    def test_flat_profile_reduces_to_stationary_mm1(self):
        agg = replicate(mtm1_config(0.0), 5, SeededStream(140))
        mu_eff = QueueSpec(16.0, 32.0, 32.0, 0.3).mu_eff
        rho = 16.0 / mu_eff
        assert agg.mean.mean_wait == pytest.approx(rho / (mu_eff * (1 - rho)), rel=0.05)

    def test_rush_window_exists_only_under_overload_and_holds_a_peak_wait(self):
        low, high = mtm1_config(0.3), mtm1_config(0.8)
        assert overload_window(low.profile, low.queue.mu_eff) is None
        _, ts_high = run_model(high, SeededStream(141))
        win = overload_window(high.profile, high.queue.mu_eff)
        assert 0 <= win.t1 < win.t2 and ts_high.peak_wait(win.t1, win.t2) > 0

    def test_peak_wait_reads_the_bins_whose_centers_lie_in_the_window_mod_the_period(self):
        # four bins of 50 s centred at 25, 75, 125 and 175 s; the third saw no request
        ts = TimeSeriesMetrics(200.0, np.array([4.0, 9.0, 0.0, 1.0]), np.array([2.0, 3.0, 0.0, 1.0]), np.ones(4))
        assert ts.peak_wait(60.0, 90.0) == 3.0  # 9 / 3
        assert ts.peak_wait(150.0, 230.0) == 2.0  # wraps past the period: the bins at 175 s and 25 s
        assert ts.peak_wait(100.0, 150.0) == 0.0  # no request arrived in the window's only bin
        assert ts.peak_wait(80.0, 120.0) == 0.0  # no bin centre lies in the window

    def test_bins_cover_one_period(self):
        _, ts = run_model(mtm1_config(0.5, bins_per_period=50), SeededStream(142))
        bins = ts.bins
        assert len(bins) == 50
        centers = [b[0] for b in bins]
        assert centers[0] == pytest.approx(2.0) and centers[-1] == pytest.approx(198.0)
        # rates track the sinusoid: peak bin rate well above trough bin rate
        rates = np.array([b[2] for b in bins])
        assert rates.max() > 1.3 * max(rates.min(), 1e-9)

    def test_peak_wait_matches_recomputed_statistic(self):
        cfg = mtm1_config(0.8, horizon_s=1000.0, bins_per_period=40)
        _, ts = run_model(cfg, SeededStream(145))
        # the run's own draws, in its order: arrivals, then service times
        rng = SeededStream(145).generator()
        t = nhpp_sinusoidal(cfg.profile, cfg.horizon_s, rng)
        mu_eff = cfg.queue.mu_eff
        s = rng.exponential(1.0 / mu_eff, len(t))
        w = lindley_waits(t, s)
        cut = int(len(t) * cfg.warmup)
        tc, wc = t[cut:], w[cut:]
        win = overload_window(cfg.profile, mu_eff)
        period, n_bins = cfg.profile.period, cfg.bins_per_period
        idx = np.minimum((np.mod(tc, period) / period * n_bins).astype(int), n_bins - 1)
        sums = np.bincount(idx, weights=wc, minlength=n_bins)
        counts = np.bincount(idx, minlength=n_bins).astype(float)
        centers = (np.arange(n_bins) + 0.5) * (period / n_bins)
        inside = (np.mod(centers - win.t1, period) <= win.t2 - win.t1) & (counts > 0)
        want = float(np.max(sums[inside] / counts[inside]))
        assert ts.peak_wait(win.t1, win.t2) == want

    def test_queue_rate_unequal_to_profile_rate_rejected_naming_both(self):
        with pytest.raises(ConfigError, match=r"^SimConfig\.queue\.lam 20\.0 != SimConfig\.profile\.lambda_bar 16\.0$"):
            mtm1_config(0.5, queue=QueueSpec(20.0, 32.0, 32.0, 0.3))

    def test_two_stage_service_counts_migrants(self):
        m, _ = run_model(mtm1_config(0.2, two_stage_service=True), SeededStream(144))
        frac = m.count_migrated / m.count_served
        assert frac == pytest.approx(0.3, abs=0.02)


def _bincount_bins(tc, wc, period, n_bins):
    """The per-bin wait sums and counts by one bincount over the fmod bin of each arrival."""
    idx = np.minimum((np.fmod(tc, period) / period * n_bins).astype(np.intp), n_bins - 1)
    return np.bincount(idx, weights=wc, minlength=n_bins), np.bincount(idx, minlength=n_bins).astype(float)


def _assert_bins_equal_bincount(tc, wc, period, n_bins):
    ts = TimeSeriesMetrics(period, np.zeros(n_bins), np.zeros(n_bins), np.zeros(n_bins))
    desim._observe_cycle(ts, tc, wc)
    sums, counts = _bincount_bins(tc, wc, period, n_bins)
    assert ts.bin_wait_sum.tobytes() == sums.tobytes()
    assert ts.bin_count.tobytes() == counts.tobytes()
    exposure = desim._bin_exposure(float(tc[0]), float(tc[-1]), period, n_bins)
    assert ts.bin_exposure.tobytes() == exposure.tobytes()


@st.composite
def sorted_arrivals_on_edges(draw):
    """(period, n_bins, counted arrivals, waits): seeded uniform instants over whole cycles, plus
    instants on rounded bin edges and cycle starts and one ulp either side, some repeated, then a
    warm-up cut at any index, so the counted arrivals may start mid-bin."""
    period = draw(st.sampled_from([200.0, 1.0, 0.1, 2 * math.pi / 3]))
    n_bins = draw(st.sampled_from([1, 3, 7, 10, 100]))
    cycles = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = [rng.random(draw(st.integers(1, 3000))) * (cycles * period)]
    placed = st.tuples(st.integers(0, cycles), st.integers(0, n_bins - 1), st.sampled_from([-1, 0, 1]),
                       st.integers(1, 8))
    for c, b, side, copies in draw(st.lists(placed, max_size=30)):
        for edge in (c * period + b * (period / n_bins), (c + b / n_bins) * period):
            t.append(np.full(copies, np.nextafter(edge, side * np.inf) if side else edge))
    t = np.sort(np.concatenate(t))
    t = t[t >= 0.0]
    cut = draw(st.integers(0, len(t) - 1))
    return period, n_bins, t[cut:], rng.random(len(t) - cut) * 7.0


class TestCycleBinning:
    @settings(max_examples=300, deadline=None)
    @given(sorted_arrivals_on_edges())
    def test_blocked_binning_equals_bincount_bit_for_bit(self, case):
        period, n_bins, tc, wc = case
        _assert_bins_equal_bincount(tc, wc, period, n_bins)

    def test_a_seeded_run_bins_as_bincount(self):
        # table1's binning: 100 bins over 10 periods of 200 s, a warm-up cut of 0.1, about 4 blocks
        t = nhpp_sinusoidal(SinusoidProfile(64.0, 1.0, 2 * math.pi / 200), 2000.0, SeededStream(191).generator())
        tc = t[int(len(t) * 0.1):]
        assert desim._phase_runs(tc, 200.0, 100) is not None  # its runs settle
        _assert_bins_equal_bincount(tc, np.random.default_rng(1).random(len(tc)), 200.0, 100)

    @pytest.mark.parametrize("tc", [
        np.array([0.5, 3.5, 7.25]),  # more keys than requests
        np.sort(np.random.default_rng(2).random(2 * BLOCK)) * 400.0,  # more keys than a block
    ], ids=["keys_over_requests", "keys_over_a_block"])
    def test_too_many_keys_fall_back_to_the_bin_of_each_instant(self, tc):
        assert desim._phase_runs(tc, 1.0, 100) is None
        _assert_bins_equal_bincount(tc, np.random.default_rng(3).random(len(tc)), 1.0, 100)

    def test_an_unsettled_run_falls_back_to_the_bin_of_each_instant(self):
        # 9 keys over 30 instants settle; the rounded edge of key 4 is an instant whose bin, by fmod,
        # is still 3's, so adding it unsettles a run
        tc = np.linspace(0.0, 0.29, 30)
        assert desim._phase_runs(tc, 0.1, 3) is not None
        tc = np.sort(np.append(tc, 4 * (0.1 / 3)))
        assert desim._phase_runs(tc, 0.1, 3) is None
        _assert_bins_equal_bincount(tc, np.random.default_rng(4).random(len(tc)), 0.1, 3)

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_block_boundaries_bin_as_bincount(self, n):
        rng = np.random.default_rng(n)
        tc = np.sort(rng.random(n)) * 600.0
        assert desim._phase_runs(tc, 200.0, 100) is not None  # its runs, cut where each block ends, settle
        _assert_bins_equal_bincount(tc, rng.random(n), 200.0, 100)


class TestWorkingSet:
    @pytest.mark.parametrize("period_s", [200.0, 2000.0], ids=["ten_cycles", "one_cycle"])
    def test_sinusoidal_run_holds_two_arrays_of_its_arrivals(self, period_s):
        # table1's scaled run at A = 1: twice as many candidates as arrivals while thinning,
        # then the arrivals and waits, as the services are drawn inside the walk. Everything else
        # is a block buffer or smaller (thinning's draws, gap, float32 sine, mask and compacted
        # block read about 4.2 blocks), whether the run spans ten cycles or one. Drawing n first
        # also makes the run's one-time lazy imports before the trace starts.
        cfg = SimConfig(
            model="mtm1_sinusoidal", queue=QueueSpec(256.0, 512.0, 512.0, 0.3),
            profile=SinusoidProfile(256.0, 1.0, 2 * math.pi / period_s), horizon_s=2000.0,
            metrics=("mean_wait", "count_served"),
        )
        n = len(nhpp_sinusoidal(cfg.profile, cfg.horizon_s, SeededStream(192).generator()))
        tracemalloc.start()
        try:
            run_model(cfg, SeededStream(192))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n + 5 * 8 * BLOCK


@st.composite
def time_series(draw, n_bins, period):
    """Raw accumulators as a run leaves them: integer counts, float sums."""
    sums = st.floats(0.0, 1e3)
    counts = st.integers(0, 10_000)
    return TimeSeriesMetrics(
        period,
        np.array(draw(st.lists(sums, min_size=n_bins, max_size=n_bins))),
        np.array(draw(st.lists(counts, min_size=n_bins, max_size=n_bins)), dtype=float),
        np.array(draw(st.lists(sums, min_size=n_bins, max_size=n_bins))),
    )


class TestPooledWith:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 8), st.sampled_from([1.0, 200.0, 1000.0]))
    def test_associative(self, data, n_bins, period):
        a, b, c = (data.draw(time_series(n_bins, period)) for _ in range(3))
        left = a.pooled_with(b).pooled_with(c)
        right = a.pooled_with(b.pooled_with(c))
        assert np.array_equal(left.bin_count, right.bin_count)
        assert np.array_equal(left.bin_count, a.bin_count + b.bin_count + c.bin_count)
        assert left.bin_wait_sum == pytest.approx(right.bin_wait_sum, rel=1e-12, abs=1e-9)
        assert left.bin_exposure == pytest.approx(right.bin_exposure, rel=1e-12, abs=1e-9)
        assert left.period == right.period

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.integers(1, 8), st.sampled_from([(1, 0.0), (0, 1.0)]))
    def test_different_binning_raises(self, data, n_bins, shift):
        a = data.draw(time_series(n_bins, 200.0))
        b = data.draw(time_series(n_bins + shift[0], 200.0 + shift[1]))
        with pytest.raises(ConfigError, match="binning"):
            a.pooled_with(b)
        with pytest.raises(ConfigError, match="binning"):
            b.pooled_with(a)


def subset_configs():
    """One config per model, each small and reading every array it can."""
    net = NetworkSpec(0.002, 0.03)
    return {
        "two_phase_edge": two_phase_config(20.0, 0.4, n=3000, network=net, dest_home_load=4.0),
        "mtm1_sinusoidal": mtm1_config(0.8, horizon_s=300.0, network=net, two_stage_service=True),
        "mmk_cloud": SimConfig(model="mmk_cloud", cloud=CloudSpec(3, 10.0, 0.8), horizon_requests=3000, network=net),
    }


class TestRequestedMetrics:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(desim.MODELS)), st.sets(st.sampled_from(SimMetrics.FIELDS)),
           st.integers(0, 2**32 - 1))
    def test_subset_equals_full_run_and_nan_elsewhere(self, model, subset, seed):
        cfg = subset_configs()[model]
        full = run_model(cfg, SeededStream(seed))[0]
        part = run_model(dataclasses.replace(cfg, metrics=tuple(subset)), SeededStream(seed))[0]
        for f in SimMetrics.FIELDS:
            got = getattr(part, f)
            if f in subset:
                assert got == getattr(full, f), f
            else:
                assert math.isnan(got), f

    @pytest.mark.parametrize("model", desim.MODELS)
    def test_replicate_aggregates_only_the_named_fields(self, model):
        cfg = subset_configs()[model]
        full = replicate(cfg, 3, SeededStream(160))
        part = replicate(dataclasses.replace(cfg, metrics=("mean_wait", "p95_response")), 3, SeededStream(160))
        assert set(part.stderr) == set(part.ci95) == {"mean_wait", "p95_response"}
        assert (part.mean.mean_wait, part.ci95["mean_wait"]) == (full.mean.mean_wait, full.ci95["mean_wait"])
        assert part.mean.p95_response == full.mean.p95_response
        assert math.isnan(part.mean.little_l) and math.isnan(part.mean.count_served)

    def test_zero_requests_read_zero_in_the_named_fields(self):
        cfg = two_phase_config(10.0, 0.1, n=0, metrics=("mean_wait", "count_served"))
        m = run_model(cfg, SeededStream(161))[0]
        assert (m.mean_wait, m.count_served) == (0.0, 0) and math.isnan(m.p95_response)

    @pytest.mark.parametrize("metrics", [("mean_wait", "p99_response"), ("waits",), "mean_wait"])
    @pytest.mark.parametrize("model", desim.MODELS)
    def test_unknown_field_rejected(self, model, metrics):
        cfg = subset_configs()[model]
        with pytest.raises(ConfigError, match="metrics"):
            run_model(dataclasses.replace(cfg, metrics=metrics), SeededStream(162))


def pinned_configs(event_log):
    """One small config per model, reaching every draw and array its model has."""
    return {
        "two_phase_edge": SimConfig(
            model="two_phase_edge", queue=QueueSpec(10.0, 50.0, 40.0, 0.3), horizon_requests=2000,
            arrivals=RenewalSpec(2.0, "hyperexponential2"), service1=RenewalSpec(0.5, "erlang"),
            service2=RenewalSpec(1.5, "lognormal"), dest_rate=45.0, dest_home_load=4.0,
            network=NetworkSpec(0.002, 0.03), event_log=event_log,
        ),
        "mtm1_sinusoidal": mtm1_config(0.8, horizon_s=400.0, two_stage_service=True),
        "mmk_cloud": SimConfig(model="mmk_cloud", cloud=CloudSpec(3, 10.0, 0.8), horizon_requests=3000),
        # the single-server station with no per-request services read: its services are drawn
        # inside the walk, and its counted arrivals span more than three blocks of binning
        "mtm1_sinusoidal_single_stage": mtm1_config(
            0.8, queue=QueueSpec(64.0, 128.0, 128.0, 0.3), profile=SinusoidProfile(64.0, 0.8, 2 * math.pi / 200),
            metrics=("mean_wait", "count_served"),
        ),
        "mmk_cloud_k1": SimConfig(
            model="mmk_cloud", cloud=CloudSpec(1, 10.0, 0.8), horizon_requests=3 * BLOCK + 7,
            metrics=("mean_wait_conditional", "count_served"),
        ),
        # over horizon_s the tandem draws chunks of exponential renewals, the pool Poisson arrivals
        "two_phase_edge_horizon_s": SimConfig(
            model="two_phase_edge", queue=QueueSpec(10.0, 50.0, 40.0, 0.3), horizon_s=200.0,
            network=NetworkSpec(0.002, 0.03), event_log=event_log,
        ),
        "mmk_cloud_horizon_s": SimConfig(
            model="mmk_cloud", cloud=CloudSpec(3, 10.0, 0.8), horizon_s=100.0, event_log=event_log,
        ),
    }


# sha256 of repr(SimMetrics), the bin arrays and the event-log bytes of one seeded run
PINNED = {
    "two_phase_edge": "8a7baa9bfc98e479ed4d7158cc020a82530a255f1d3ee8abb06dac409d59720b",
    "mtm1_sinusoidal": "c533b963d11b2c8a7ba64beeffeff753557960696b80d4c4edba607e148ea9be",
    "mmk_cloud": "02cf63120993a6d6fddd78ebb3856c1b498f01ea380a3f29817433f631b86ad7",
    "mtm1_sinusoidal_single_stage": "1aebf88e8ed5df459984b4c9ceed3c64269191478f3d852d246beabd0226fe92",
    "mmk_cloud_k1": "a0d5dafc4a453791efea3f0459a5f2f8258b22a98770469c571dc8cf0733241c",
    "two_phase_edge_horizon_s": "77f41c41ce23b72a30b7d6c0fc63f82c92060aff8ff3885509b6699aa0f92b0f",
    "mmk_cloud_horizon_s": "91e5d6444cd3d358449e22f73e8005e2b910f072612c2a64e27f7623af89c6fb",
}


class TestPinnedStreams:
    @pytest.mark.parametrize("model", PINNED)
    def test_seeded_outputs_match_their_pins(self, tmp_path, model):
        log = tmp_path / "events.csv"
        cfg = pinned_configs(str(log))[model]
        m, ts = run_model(cfg, SeededStream(180))
        digest = hashlib.sha256(repr(m).encode())
        if ts is not None:
            for values in (ts.bin_wait_sum, ts.bin_count, ts.bin_exposure):
                digest.update(values.tobytes())
        if cfg.event_log is not None:
            digest.update(log.read_bytes())
        assert digest.hexdigest() == PINNED[model], (
            f"{model}: a seeded output moved. The pins hold for stream format 0.2.0 (recorded on numpy 2.4); "
            "change one only with a stream-format version bump"
        )

    @pytest.mark.parametrize("model", [name for name, cfg in pinned_configs(None).items() if cfg.horizon_s is not None])
    def test_horizon_s_runs_draw_every_arrival_inside_the_horizon(self, monkeypatch, model):
        cfg, drawn = pinned_configs(None)[model], []

        def spy(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        draw = desim._draw_arrivals
        monkeypatch.setattr(desim, "_draw_arrivals", spy)
        run_model(cfg, SeededStream(180))
        (t,) = drawn
        assert len(t) > 0 and np.all(t < cfg.horizon_s)


def test_desim_calls_no_generator_method():
    """Every draw goes through a ``workload`` sampler, which keeps the stream order in one module."""
    methods = {name for name in dir(np.random.Generator) if not name.startswith("_")}
    calls = [node for node in ast.walk(ast.parse(inspect.getsource(desim)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    drawn = [f"line {call.lineno}: .{call.func.attr}(" for call in calls if call.func.attr in methods
             and not (isinstance(call.func.value, ast.Name) and call.func.value.id == "np")]  # np.power is no draw
    assert not drawn


def test_desim_imports_no_closed_form():
    """The simulator checks the closed forms, so it reads none: a comparison sets the two side by side."""
    imported = []
    for node in ast.walk(ast.parse(inspect.getsource(desim))):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported and not [name for name in imported if "analytic" in name.split(".")]


class TestReplicate:
    def test_single_run_equals_child_zero(self):
        cfg = two_phase_config(10.0, 0.1, n=20_000)
        agg = replicate(cfg, 1, SeededStream(150))
        single = run_model(cfg, SeededStream(150).child(0))[0]
        assert agg.mean.mean_wait == single.mean_wait
        assert agg.stderr["mean_wait"] == 0.0 and agg.ci95["mean_wait"] == 0.0

    # 2.5 raised a bare TypeError, and True ran one replication reporting n_runs = True
    @pytest.mark.parametrize("n_runs, message", [
        (0, "must be >= 1, got 0"), (-1, "must be >= 1, got -1"),
        (2.5, "must be an integer, got 2.5"), (True, "must be an integer, got True"),
    ], ids=["0", "-1", "2.5", "True"])
    def test_n_runs_outside_its_domain_rejected(self, n_runs, message):
        with pytest.raises(ConfigError, match=f"^n_runs: {message}$"):
            replicate(two_phase_config(10.0, 0.1, n=1000), n_runs, SeededStream(150))

    @pytest.mark.parametrize("model", PINNED)
    def test_event_log_is_replication_0_and_leaves_the_metrics_unchanged(self, tmp_path, model):
        # each replication used to rewrite the log, which kept the last one's events
        cfg = pinned_configs(None)[model]
        logs = {reps: tmp_path / f"reps{reps}.csv" for reps in (1, 3)}
        logged = {reps: replicate(dataclasses.replace(cfg, event_log=str(log)), reps, SeededStream(181))
                  for reps, log in logs.items()}
        assert logs[3].read_bytes() == logs[1].read_bytes()
        plain = replicate(cfg, 3, SeededStream(181))
        assert repr((logged[3].mean, logged[3].stderr, logged[3].ci95)) == repr((plain.mean, plain.stderr, plain.ci95))

    def test_bit_identical_across_invocations(self):
        cfg = two_phase_config(10.0, 0.1, n=20_000)
        a = replicate(cfg, 8, SeededStream(151))
        b = replicate(cfg, 8, SeededStream(151))
        assert a.mean == b.mean and a.ci95 == b.ci95

    def test_ci_width_shrinks_like_sqrt_n(self):
        # exact: ci95 = 1.96 s / sqrt(n) over the runs on child(0..n-1), so the
        # 30 -> 120 width ratio is sqrt(30/120) times the ratio of the sample sds
        cfg = two_phase_config(10.0, 0.1, n=20_000)
        base = SeededStream(152)
        runs = [run_model(cfg, base.child(i))[0].mean_wait for i in range(120)]
        sd = {n: statistics.stdev(runs[:n]) for n in (30, 120)}
        ci = {n: replicate(cfg, n, base).ci95["mean_wait"] for n in (30, 120)}
        for n in (30, 120):
            assert ci[n] == pytest.approx(1.96 * sd[n] / math.sqrt(n), rel=1e-12)
        assert ci[120] / ci[30] == pytest.approx(math.sqrt(30 / 120) * sd[120] / sd[30], rel=1e-12)

    def test_conservation_all_requests_accounted(self):
        cfg = two_phase_config(10.0, 0.3, n=40_000, warmup=0.0)
        m = run_model(cfg, SeededStream(153))[0]
        assert m.count_served == 40_000
        assert m.count_migrated <= m.count_served
