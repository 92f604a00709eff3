"""Capacity formula and packing simulator tests."""
import hashlib
import heapq
import math
from dataclasses import replace
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from edgeq import (
    DomainError,
    DtrpSpec,
    EdgeqError,
    EmptyTrace,
    OversizedVm,
    ParseError,
    SeededStream,
    Topology,
    UnstableQueue,
    VmTrace,
    cloud_capacity_equivalent,
    dtrp_response_time,
    edge_overprovision_factor,
    load_vm_trace,
    simulate_packing,
    synthetic_vm_trace,
)
import edgeq.capacity
from edgeq.cli import _parse_topology
from edgeq.capacity import (
    POLICIES,
    PackingReport,
    SweepPoint,
    capacity_sweep,
    save_vm_trace,
    trace_summary,
)

# any positive finite float, subnormals included
POSITIVE = st.floats(0.0, 1e308, exclude_min=True)


class Vm(NamedTuple):
    """One VM of a trace, as the row-by-row reference replays read it."""

    id: str
    arrival: float
    lifetime: float
    cores: int
    site_hint: Optional[int] = None


def vm_trace(rows) -> VmTrace:
    """The rows as the columns of a VmTrace, with a hint column only when every row carries a hint."""
    hints = [r.site_hint for r in rows]
    return VmTrace([r.arrival for r in rows], [r.lifetime for r in rows], [r.cores for r in rows],
                   None if None in hints else hints, [r.id for r in rows])


class TestClosedForms:
    def test_overprovision_factor(self):
        assert edge_overprovision_factor(2.0) == 1.5
        assert edge_overprovision_factor(4.0) == 1.25
        assert edge_overprovision_factor(1e9) == pytest.approx(1.0, abs=1e-8)

    def test_equivalent_worked_example(self):
        got = cloud_capacity_equivalent(DtrpSpec(1000, 0.5, 0.0, 2.0), 0.5)
        assert got == pytest.approx(1000 * 0.5 / (1.5 * 0.5), rel=1e-12)

    def test_equivalent_96_to_64_and_160_to_128(self):
        assert cloud_capacity_equivalent(DtrpSpec(96, 0.5, 0.0, 2.0), 0.5) == pytest.approx(64.0, rel=1e-12)
        assert cloud_capacity_equivalent(DtrpSpec(160, 0.5, 0.0, 4.0), 0.5) == pytest.approx(128.0, rel=1e-12)

    def test_lemma_consistency_at_equal_utilization(self):
        rng = np.random.default_rng(40)
        for _ in range(1000):
            c_edge = rng.uniform(1.0, 1e4)
            rho = rng.uniform(0.0, 0.99)
            q = rng.uniform(0.1, 50.0)
            c_cloud = cloud_capacity_equivalent(DtrpSpec(c_edge, rho, 0.0, q), rho)
            assert c_cloud * edge_overprovision_factor(q) == pytest.approx(c_edge, rel=1e-12)

    def test_cloud_always_needs_less(self):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            c_edge = rng.uniform(1.0, 1e4)
            rho = rng.uniform(0.0, 0.95)
            tau = rng.uniform(0.0, 0.9 * (1 - rho)) * c_edge
            q = rng.uniform(0.1, 50.0)
            assert cloud_capacity_equivalent(DtrpSpec(c_edge, rho, tau, q), rho) < c_edge

    def test_equivalent_rejects_saturation(self):
        with pytest.raises(UnstableQueue, match=r"^rho \+ tau/C = 1\.1 >= 1"):
            cloud_capacity_equivalent(DtrpSpec(100, 0.9, 20.0, 2.0), 0.5)
        with pytest.raises(UnstableQueue, match="rho_cloud = 1 must lie in"):
            cloud_capacity_equivalent(DtrpSpec(100, 0.5, 0.0, 2.0), 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        c_edge=st.floats(1.0, 1e4), rho_edge=st.floats(0.0, 0.95), tau_share=st.floats(0.0, 0.9),
        q=st.floats(0.1, 50.0), rho_cloud=st.floats(0.0, 0.95), lam=st.floats(0.1, 1e3),
    )
    @example(c_edge=96.0, rho_edge=0.5, tau_share=0.0, q=2.0, rho_cloud=0.5, lam=10.0)  # C_cloud = 64
    def test_dtrp_edge_equals_cloud_at_equivalent_capacity(self, c_edge, rho_edge, tau_share, q, rho_cloud, lam):
        edge = DtrpSpec(c_edge, rho_edge, tau_share * (1.0 - rho_edge) * c_edge, q)
        c_cloud = cloud_capacity_equivalent(edge, rho_cloud)
        t_edge = dtrp_response_time(edge, lam)
        t_cloud = dtrp_response_time(DtrpSpec(c_cloud, rho_cloud, 0.0, math.inf), lam)  # the pooled cloud
        assert t_edge == pytest.approx(t_cloud, rel=1e-9)

    def test_dtrp_huge_packing_factor_matches_cloud_mode(self):
        spec = DtrpSpec(capacity=64, rho=0.5, tau=0.0, q=1e12)
        assert dtrp_response_time(spec, 10.0) == pytest.approx(
            dtrp_response_time(replace(spec, q=math.inf), 10.0), rel=1e-9
        )

    def test_dtrp_doubling_capacity_quarters_time(self):
        a = DtrpSpec(capacity=100, rho=0.5, tau=0.0, q=2.0)
        b = DtrpSpec(capacity=200, rho=0.5, tau=0.0, q=2.0)
        assert dtrp_response_time(a, 5.0) == pytest.approx(4 * dtrp_response_time(b, 5.0), rel=1e-12)

    def test_dtrp_rejects_no_slack(self):
        with pytest.raises(UnstableQueue):
            DtrpSpec(capacity=10, rho=0.9, tau=2.0, q=2.0)

    @pytest.mark.parametrize("field, value", [("capacity", 1e-200), ("velocity", 1e-200), ("gos", 1e200)])
    def test_dtrp_time_out_of_float_range_raises_domain_error(self, field, value):
        # these used to raise ZeroDivisionError or OverflowError
        spec = DtrpSpec(**{"capacity": 64.0, "rho": 0.5, "tau": 0.0, "q": 2.0, field: value})
        for pooled in (spec, replace(spec, q=math.inf, tau=0.0)):
            with pytest.raises(DomainError, match="response time out of float range"):
                dtrp_response_time(pooled, 10.0)

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=POSITIVE, rho=st.floats(0.0, 1.0, exclude_max=True), tau_share=st.floats(0.0, 1.0), q=POSITIVE,
        area=POSITIVE, velocity=POSITIVE, gos=POSITIVE, lam=POSITIVE, cloud=st.booleans(),
    )
    def test_dtrp_time_is_a_positive_float_or_a_domain_error(
        self, capacity, rho, tau_share, q, area, velocity, gos, lam, cloud
    ):
        try:
            spec = DtrpSpec(capacity, rho, tau_share * (1.0 - rho) * capacity, q, area, velocity, gos)
        except DomainError:  # rounding left no slack, or 1/q overflowed
            assume(False)
        if cloud:  # the pool, where 1/q and tau/C vanish
            spec = replace(spec, q=math.inf, tau=0.0)
        try:
            time = dtrp_response_time(spec, lam)
        except DomainError as exc:
            assert "response time out of float range" in str(exc)
        else:
            assert 0.0 < time < math.inf


class TestTraceIo:
    def test_round_trip(self, tmp_path):
        reqs = vm_trace([
            Vm("a", 0.0, 5.0, 4),
            Vm("b", 1.5, 2.0, 2),
            Vm("c", 2.0, 1.0, 8),
        ])
        path = tmp_path / "trace.csv"
        save_vm_trace(path, reqs)
        back = load_vm_trace(str(path))
        assert back.ids == ["a", "b", "c"]
        assert back.cores[0] == 4 and back.lifetime[1] == 2.0
        assert back.site_hint is None

    def test_hinted_round_trip(self, tmp_path):
        trace = synthetic_vm_trace(8.0, 10.0, 50.0, SeededStream(55), k_sites=4)
        path = tmp_path / "trace.csv"
        save_vm_trace(path, trace)
        assert path.read_text().splitlines()[0] == "vm_id,arrival_s,lifetime_s,cores,site_hint"
        assert load_vm_trace(str(path)).site_hint.tolist() == trace.site_hint.tolist()

    def test_hint_row_with_missing_field_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("vm_id,arrival_s,lifetime_s,cores,site_hint\nok,0,1,2,0\nbad,1,1,2\n")
        with pytest.raises(ParseError, match=":3"):
            load_vm_trace(str(path))

    def test_sorted_by_arrival(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("vm_id,arrival_s,lifetime_s,cores\nx,5,1,2\ny,1,1,2\n")
        assert load_vm_trace(str(path)).ids == ["y", "x"]

    # a NaN lifetime used to pass ``lifetime <= 0`` and end the replay in a failed assert
    @pytest.mark.parametrize("row", ["bad,0,oops,2", "bad,0,nan,2", "bad,0,inf,2", "bad,nan,1,2", "bad,-inf,1,2"])
    def test_malformed_row_names_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        path.write_text(f"vm_id,arrival_s,lifetime_s,cores\nok,0,1,2\n{row}\n")
        with pytest.raises(ParseError, match=":3"):
            load_vm_trace(str(path))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ParseError, match="header"):
            load_vm_trace(str(path))

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("vm_id,arrival_s,lifetime_s,cores\n")
        with pytest.raises(EmptyTrace, match="no VM requests"):
            load_vm_trace(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(EmptyTrace, match="file is empty"):
            load_vm_trace(str(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("vm_id,arrival_s,lifetime_s,cores\nx,0,1,2\n\n   \ny,1,1,4\n")
        back = load_vm_trace(str(path))
        assert (back.ids, back.cores.tolist()) == (["x", "y"], [2, 4])

    def test_synthetic_trace_calibration(self):
        trace = synthetic_vm_trace(50.0, 10.0, 400.0, SeededStream(42), k_sites=8)
        stats = trace_summary(trace)
        assert stats["mean_cores"] == pytest.approx(4.75, abs=0.1)
        assert stats["min_cores"] == 2 and stats["max_cores"] == 20
        assert trace.site_hint.min() >= 0 and trace.site_hint.max() < 8


def toy_trace():
    # unit-size servers scaled by 10: two big (0.8) and two small (0.2) VMs
    return vm_trace([
        Vm("v1", 0.0, 100.0, 8, site_hint=0),
        Vm("v2", 1.0, 100.0, 8, site_hint=0),
        Vm("v3", 2.0, 100.0, 2, site_hint=1),
        Vm("v4", 3.0, 100.0, 2, site_hint=1),
    ])


class TestPackingSimulator:
    def test_toy_cloud_needs_two_servers(self):
        report = simulate_packing(toy_trace(), Topology(1, 4, 10))
        assert report.peak_servers_used == 2

    def test_toy_edge_needs_three_servers(self):
        report = simulate_packing(toy_trace(), Topology(2, 4, 10))
        assert report.peak_servers_used == 3
        assert report.peak_servers_per_site == [2, 1]

    def test_single_vm_single_server(self):
        trace = vm_trace([Vm("v", 0.0, 1.0, 4, site_hint=2)])
        for k in (1, 3):
            report = simulate_packing(trace, Topology(k, 2, 10))
            assert report.peak_servers_used == 1

    def test_empty_trace_rejected(self):
        with pytest.raises(EmptyTrace, match="trace contains no VM requests"):
            simulate_packing(vm_trace([]), Topology(1, 4, 16))

    def test_oversized_vm_rejected(self):
        trace = vm_trace([Vm("big", 0.0, 1.0, 32)])
        with pytest.raises(OversizedVm):
            simulate_packing(trace, Topology(1, 4, 16))

    def test_site_affinity_respected(self):
        trace = vm_trace([Vm(f"v{i}", float(i), 50.0, 4, site_hint=0) for i in range(10)])
        report = simulate_packing(trace, Topology(4, 8, 8))
        assert report.peak_servers_per_site[1:] == [0, 0, 0]

    def test_conservation_counts(self):
        trace = synthetic_vm_trace(20.0, 5.0, 100.0, SeededStream(50), k_sites=4)
        report = simulate_packing(trace, Topology(4, 100, 32))
        assert report.placed == report.completed == len(trace)

    def test_full_site_queues_fifo(self):
        trace = vm_trace([
            Vm("a", 0.0, 10.0, 8, site_hint=0),
            Vm("b", 1.0, 10.0, 8, site_hint=0),   # must wait for a
            Vm("c", 2.0, 10.0, 2, site_hint=0),   # waits behind b (FIFO)
        ])
        report = simulate_packing(trace, Topology(1, 1, 10))
        assert report.rejected_or_queued == 2
        assert report.completed == 3

    def test_peak_servers_monotone_in_server_size(self):
        trace = synthetic_vm_trace(20.0, 5.0, 100.0, SeededStream(51), k_sites=1)
        peaks = []
        for cores in (24, 32, 64, 128):
            rep = simulate_packing(trace, Topology(1, len(trace), cores))
            peaks.append(rep.peak_servers_used)
        assert peaks == sorted(peaks, reverse=True)

    def test_best_fit_beats_first_fit_on_crafted_trace(self):
        # best-fit drops the 3 into the exact residual, keeping room for the 6
        trace = vm_trace([
            Vm("a", 0.0, 10.0, 4, site_hint=0),
            Vm("b", 0.1, 10.0, 7, site_hint=0),
            Vm("c", 0.2, 10.0, 3, site_hint=0),
            Vm("d", 0.3, 10.0, 6, site_hint=0),
        ])
        top = Topology(1, 4, 10)
        ff = simulate_packing(trace, top, policy="first_fit")
        bf = simulate_packing(trace, top, policy="best_fit")
        assert ff.peak_servers_used == 3
        assert bf.peak_servers_used == 2

    def test_decreasing_batch_sorts_simultaneous_arrivals(self):
        trace = vm_trace([
            Vm(f"v{i}", 0.0, 10.0, cores, site_hint=0)
            for i, cores in enumerate([4, 4, 4, 6, 6, 6])
        ])
        top = Topology(1, 6, 10)
        plain = simulate_packing(trace, top, policy="first_fit")
        ffd = simulate_packing(trace, top, policy="first_fit_decreasing_batch")
        assert plain.peak_servers_used == 4   # 4+4 | 4+6 | 6 | 6
        assert ffd.peak_servers_used == 3     # 6+4 on each

    def test_trace_out_of_arrival_order_rejected(self):
        # replayed as given, this trace reported a backlog of 1 (sorted: 0)
        rows = [
            Vm("a", 10.0, 5.0, 4, site_hint=0),
            Vm("b", 0.0, 5.0, 4, site_hint=0),
            Vm("c", 1.0, 5.0, 4, site_hint=0),
        ]
        with pytest.raises(DomainError, match="VM b arrives before"):
            simulate_packing(vm_trace(rows), Topology(1, 1, 8))
        with pytest.raises(DomainError, match="VM b arrives before"):
            capacity_sweep(vm_trace(rows), 1, [8, 4], 2.0)
        in_order = vm_trace(sorted(rows, key=lambda r: r.arrival))
        assert simulate_packing(in_order, Topology(1, 1, 8)).rejected_or_queued == 0

    def test_sites_above_one_need_hints(self):
        trace = vm_trace([Vm("a", 0.0, 10.0, 4), Vm("b", 1.0, 10.0, 4)])
        with pytest.raises(DomainError, match="^2 sites need every VM to carry a site hint"):
            simulate_packing(trace, Topology(2, 2, 10))
        assert simulate_packing(trace, Topology(1, 1, 4)).rejected_or_queued == 1


class TestCapacitySweep:
    def test_relative_error_is_the_distance_from_the_model_target(self):
        trace = vm_trace([
            Vm("a", 0.0, 10.0, 4, site_hint=0),
            Vm("b", 1.0, 10.0, 4, site_hint=0),
            Vm("c", 2.0, 10.0, 4, site_hint=1),
        ])
        # cloud peak 12 cores, so the model's edge needs 12 * (1 + 1/2) = 18
        points, _, _ = capacity_sweep(trace, 3, [8, 4], 2.0)
        assert [p.edge_capacity for p in points] == [12, 8]
        assert [p.relative_error for p in points] == pytest.approx([6 / 18, 10 / 18], rel=1e-12)

    def test_sweep_orders_and_reports(self):
        trace = synthetic_vm_trace(8.0, 10.0, 200.0, SeededStream(53), k_sites=4)
        points, cloud_peak, model_size = capacity_sweep(trace, 4, [32, 64, 96], 2.0)
        assert cloud_peak > 0 and model_size > 0
        assert [p.cores_per_site for p in points] == [32, 64, 96]
        # small sites saturate: measured capacity grows with the site size
        assert points[0].edge_capacity <= points[-1].edge_capacity

    @pytest.mark.parametrize("k_sites", [0, -2])
    def test_fewer_than_one_site_rejected(self, k_sites):
        trace = synthetic_vm_trace(8.0, 10.0, 50.0, SeededStream(54), k_sites=4)
        with pytest.raises(DomainError, match="k_sites"):
            capacity_sweep(trace, k_sites, [32], 2.0)
        with pytest.raises(DomainError, match="k_sites"):
            synthetic_vm_trace(8.0, 10.0, 50.0, SeededStream(54), k_sites=k_sites)


class _RefSite:
    __slots__ = ("cap", "max_servers", "free", "queue", "busy", "used", "peak_busy", "peak_used")

    def __init__(self, cap, max_servers):
        self.cap = cap
        self.max_servers = max_servers
        self.free = []     # residual cores of opened servers
        self.queue = []    # FIFO of (lifetime, cores)
        self.busy = 0
        self.used = 0
        self.peak_busy = 0
        self.peak_used = 0

    def try_place(self, cores, policy):
        """Return the server index the VM lands on, or None when full."""
        if policy == "best_fit":
            best, best_res = None, None
            for i, f in enumerate(self.free):
                if f >= cores and (best_res is None or f < best_res):
                    best, best_res = i, f
            if best is not None:
                self._occupy(best, cores)
                return best
        else:  # first_fit and the batch variant place the same way
            for i, f in enumerate(self.free):
                if f >= cores:
                    self._occupy(i, cores)
                    return i
        if len(self.free) < self.max_servers:
            self.free.append(self.cap - cores)
            self.busy += 1
            self.used += cores
            self._bump()
            return len(self.free) - 1
        return None

    def _occupy(self, idx, cores):
        if self.free[idx] == self.cap:
            self.busy += 1
        self.free[idx] -= cores
        self.used += cores
        self._bump()

    def release(self, idx, cores):
        self.free[idx] += cores
        self.used -= cores
        if self.free[idx] == self.cap:
            self.busy -= 1

    def _bump(self):
        if self.busy > self.peak_busy:
            self.peak_busy = self.busy
        if self.used > self.peak_used:
            self.peak_used = self.used


def reference_packing(trace, topology, policy):
    """simulate_packing as per-site objects and release/drain closures, the replay the event loop must equal."""
    n_sites = topology.k_sites
    site_of = [r.site_hint % n_sites for r in trace]

    sites = [_RefSite(topology.cores_per_server, topology.servers_per_site) for _ in range(n_sites)]
    releases = []  # (time, site, server, cores)
    placed = completed = 0
    queued_now = 0
    peak_queue = 0
    busy_total = 0
    peak_busy_total = 0

    def place(site_idx, cores):
        nonlocal busy_total, peak_busy_total
        site = sites[site_idx]
        before = site.busy
        idx = site.try_place(cores, policy)
        if idx is not None:
            busy_total += site.busy - before
            if busy_total > peak_busy_total:
                peak_busy_total = busy_total
        return idx

    def drain(site_idx, now):
        nonlocal placed, queued_now
        site = sites[site_idx]
        while site.queue:
            lifetime, cores = site.queue[0]
            idx = place(site_idx, cores)
            if idx is None:
                return
            site.queue.pop(0)
            queued_now -= 1
            placed += 1
            heapq.heappush(releases, (now + lifetime, site_idx, idx, cores))

    def release_until(now):
        nonlocal completed, busy_total
        while releases and releases[0][0] <= now:
            rt, s_idx, srv, cores = heapq.heappop(releases)
            site = sites[s_idx]
            before = site.busy
            site.release(srv, cores)
            busy_total += site.busy - before
            completed += 1
            drain(s_idx, rt)

    i = 0
    n = len(trace)
    while i < n:
        # same-timestamp batch; the decreasing variant packs big VMs first
        j = i + 1
        while j < n and trace[j].arrival == trace[i].arrival:
            j += 1
        batch = list(range(i, j))
        if policy == "first_fit_decreasing_batch" and len(batch) > 1:
            batch.sort(key=lambda b: -trace[b].cores)
        release_until(trace[i].arrival)
        for b in batch:
            req = trace[b]
            site = sites[site_of[b]]
            if site.queue:
                idx = None  # preserve FIFO order behind waiting requests
            else:
                idx = place(int(site_of[b]), req.cores)
            if idx is None:
                site.queue.append((req.lifetime, req.cores))
                queued_now += 1
                peak_queue = max(peak_queue, queued_now)
            else:
                placed += 1
                heapq.heappush(releases, (req.arrival + req.lifetime, int(site_of[b]), idx, req.cores))
        i = j
    release_until(math.inf)

    return PackingReport(
        peak_servers_used=peak_busy_total,
        peak_servers_per_site=[s.peak_busy for s in sites],
        site_capacity_cores=sum(s.peak_used for s in sites),
        rejected_or_queued=peak_queue,
        placed=placed,
        completed=completed,
    )


@st.composite
def packing_cases(draw):
    """A sorted trace on a 64 s grid with lifetimes in half steps, so arrivals tie and VMs leave as
    others arrive; at 1e17, 1e17 + 1.0 == 1e17, so a 1 s VM ends at its own arrival."""
    base = draw(st.sampled_from([0.0, 1e17]))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6, 8]),
                  st.integers(0, 7)),
        min_size=8, max_size=60,
    ))
    rows.sort(key=lambda row: row[0])
    trace = [Vm(f"v{i}", base + a * 64.0, life * 32.0 or 1.0, c, site_hint=h)
             for i, (a, life, c, h) in enumerate(rows)]
    topology = Topology(draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(8, 12)))
    return trace, topology


class TestReplayMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(packing_cases(), st.sampled_from(POLICIES))
    def test_equals_reference(self, case, policy):
        trace, topology = case
        got = simulate_packing(vm_trace(trace), topology, policy=policy)
        assert repr(got) == repr(reference_packing(trace, topology, policy))


def replayed_sweep(trace, k_sites, core_grid, q, policy):
    """capacity_sweep by full replays: the cloud on one server per VM, every edge size in full."""
    cloud = simulate_packing(trace, Topology(1, len(trace), int(trace.cores.max())))
    cloud_peak = cloud.site_capacity_cores
    target = cloud_peak * edge_overprovision_factor(q)
    points = []
    for cores in core_grid:
        rep = simulate_packing(trace, Topology(k_sites, 1, cores), policy=policy)
        err = abs(rep.site_capacity_cores - target) / target
        points.append(SweepPoint(cores, rep.site_capacity_cores, err, rep.rejected_or_queued))
    return points, cloud_peak, target / k_sites


def site_peaks(trace, k_sites):
    """Occupied cores per site after each arrival batch, maximised; nothing waits.
    A VM holds its cores through its own arrival batch, even if its end rounds to its arrival."""
    peaks = [0] * k_sites
    for r in trace:
        site = r.site_hint % k_sites
        used = sum(
            v.cores for v in trace
            if v.site_hint % k_sites == site
            and (v.arrival == r.arrival or v.arrival < r.arrival < v.arrival + v.lifetime)
        )
        peaks[site] = max(peaks[site], used)
    return peaks


@st.composite
def hinted_sweeps(draw):
    """A sorted hinted trace on a coarse time grid, so arrivals tie and VMs leave as others arrive;
    at 1e17 every lifetime rounds away, so each VM ends at its own arrival time."""
    base = draw(st.sampled_from([0.0, 1e17]))
    k_sites = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 12), st.sampled_from([1, 2, 4, 6, 8]),
                  st.integers(0, 7)),
        min_size=1, max_size=60,
    ))
    rows.sort(key=lambda row: row[0])
    trace = [Vm(f"v{i}", base + a * 0.5, life * 0.5, c, site_hint=h)
             for i, (a, life, c, h) in enumerate(rows)]
    largest = max(r.cores for r in trace)
    # 0 and largest - 1 cannot hold every VM, so the sweep must raise what the replay raises;
    # every size from largest up to one past the highest site peak saturates some sites or none
    sizes = {0, largest - 1, *range(largest, max(site_peaks(trace, k_sites)) + 2)}
    grid = draw(st.lists(st.sampled_from(sorted(sizes)), min_size=1, max_size=5))
    return trace, k_sites, grid


def outcome(sweep, *args):
    """The repr of what the sweep returns, or the type and message of what it raises."""
    try:
        return repr(sweep(*args))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestSweepMatchesReplay:
    @settings(max_examples=200, deadline=None)
    @given(hinted_sweeps(), st.sampled_from([0.5, 2.0, 4.0]),
           st.sampled_from(["first_fit", "best_fit", "first_fit_decreasing_batch"]))
    def test_equals_full_replay(self, sweep, q, policy):
        trace, k_sites, grid = sweep
        args = vm_trace(trace), k_sites, grid, q, policy
        assert outcome(capacity_sweep, *args) == outcome(replayed_sweep, *args)

    def test_vm_ending_at_its_arrival_time_holds_its_cores_through_the_batch(self):
        # 1e17 + 1.0 == 1e17: the first VM's release time equals its arrival
        trace = vm_trace([
            Vm("a", 1e17, 1.0, 4, site_hint=0),
            Vm("b", 1e17, 1e3, 4, site_hint=0),
            Vm("c", 2e17, 1e3, 2, site_hint=1),
        ])
        got = capacity_sweep(trace, 2, [4, 8], 2.0)
        assert got[1] == 8
        assert repr(got) == repr(replayed_sweep(trace, 2, [4, 8], 2.0, "first_fit"))

    def test_replays_only_saturated_sites(self, monkeypatch):
        calls = []
        replay = edgeq.capacity._site_replay

        def recording(times, *rest):
            calls.append(list(times))
            return replay(times, *rest)

        monkeypatch.setattr(edgeq.capacity, "_site_replay", recording)
        trace = vm_trace([
            Vm("a", 0.0, 10.0, 4, site_hint=0),
            Vm("b", 1.0, 10.0, 4, site_hint=0),
            Vm("c", 2.0, 10.0, 4, site_hint=1),
        ])
        points, cloud_peak, _ = capacity_sweep(trace, 3, [8, 4], 2.0)
        assert calls == [[0.0, 1.0]]  # the arrivals of a and b
        assert cloud_peak == 12
        assert [(p.edge_capacity, p.peak_queue) for p in points] == [(12, 0), (8, 1)]

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("batched", [False, True], ids=["poisson", "whole_seconds"])
    def test_equals_full_replay_at_scale(self, policy, batched):
        # ~4k VMs on 4 sites offering ~95 cores each; whole-second arrivals make batches to sort
        trace = synthetic_vm_trace(8.0, 10.0, 500.0, SeededStream(30, 777), k_sites=4)
        if batched:
            trace = VmTrace(np.floor(trace.arrival), trace.lifetime, trace.cores, trace.site_hint)
        grid = [64, 96, 256]  # overloaded, near critical, unsaturated
        got = capacity_sweep(trace, 4, grid, 2.0, policy)
        assert repr(got) == repr(replayed_sweep(trace, 4, grid, 2.0, policy))
        overloaded, critical, unsaturated = (p.peak_queue for p in got[0])
        assert overloaded > 1000 and 0 < critical < 1000 and unsaturated == 0

    def test_pool_that_filled_stops_with_its_backlog_waiting(self, monkeypatch):
        replays = []
        replay = edgeq.capacity._site_replay

        def recording(*args):
            low, waited, starts, _ = result = replay(*args)
            replays.append((low, list(waited), len(starts)))
            return result

        monkeypatch.setattr(edgeq.capacity, "_site_replay", recording)
        trace = vm_trace([
            Vm("a", 0.0, 2.5, 8, site_hint=0),  # fills site 0 at once
            Vm("b", 1.0, 100.0, 8, site_hint=0),
            Vm("c", 2.0, 10.0, 4, site_hint=0),
            Vm("d", 3.0, 1.0, 8, site_hint=1),
            Vm("e", 3.5, 10.0, 8, site_hint=1),
            Vm("f", 3.5, 10.0, 2, site_hint=1),
        ])
        got = capacity_sweep(trace, 2, [8], 2.0)
        # a leaves at 2.5, after site 0's last arrival, and b starts before d's batch; c still
        # waits at e's, so the backlog peaks at c, e and f
        assert [(p.edge_capacity, p.peak_queue) for p in got[0]] == [(16, 3)]
        assert repr(got) == repr(replayed_sweep(trace, 2, [8], 2.0, "first_fit"))
        # site 0 had no core free before its last arrival, so it stops with c waiting (c would start at 101)
        assert replays[0] == (0, [1, 2], 1)

    def test_pool_with_cores_free_at_the_last_arrival_drains_to_the_end(self):
        trace = vm_trace([Vm("a", 0.0, 10.0, 6, site_hint=0), Vm("b", 1.0, 10.0, 8, site_hint=0)])
        # two cores stay free until a leaves at 10 and b, which waited, takes all 8
        got = capacity_sweep(trace, 1, [8], 2.0)
        assert [(p.edge_capacity, p.peak_queue) for p in got[0]] == [(8, 1)]
        assert repr(got) == repr(replayed_sweep(trace, 1, [8], 2.0, "first_fit"))

    def test_arrival_order_checked_over_the_replayed_vms(self):
        # c arrives before b, but at 4 cores only site 0 saturates, and its VMs a and b are in order
        rows = [
            Vm("a", 1.0, 10.0, 4, site_hint=0),
            Vm("b", 2.0, 10.0, 4, site_hint=0),
            Vm("c", 0.0, 10.0, 4, site_hint=1),
        ]
        points, _, _ = capacity_sweep(vm_trace(rows), 2, [4, 8], 2.0)
        assert [(p.edge_capacity, p.peak_queue) for p in points] == [(8, 1), (12, 0)]
        rows.append(Vm("d", 0.5, 10.0, 4, site_hint=0))
        with pytest.raises(DomainError, match="VM d arrives before"):
            capacity_sweep(vm_trace(rows), 2, [16, 4], 2.0)

    def test_grid_below_largest_vm_names_the_same_vm(self):
        trace = vm_trace([
            Vm("small", 0.0, 5.0, 2, site_hint=0),
            Vm("big", 1.0, 5.0, 8, site_hint=1),
            Vm("bigger", 2.0, 5.0, 16, site_hint=0),
        ])
        with pytest.raises(OversizedVm) as ref:
            replayed_sweep(trace, 2, [32, 4], 2.0, "first_fit")
        with pytest.raises(OversizedVm, match="VM big wants 8") as got:
            capacity_sweep(trace, 2, [32, 4], 2.0)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("size", [64.9, 40.5, True, math.inf, math.nan, "64"])
    def test_size_that_is_not_a_whole_number_rejected(self, size):
        trace = vm_trace([Vm("a", 0.0, 5.0, 2, site_hint=0)])
        with pytest.raises(DomainError, match=f"whole number of cores, got {size!r}"):
            capacity_sweep(trace, 1, [64, size], 2.0)

    def test_whole_float_size_reads_as_int(self):
        trace = vm_trace([Vm("a", 0.0, 5.0, 2, site_hint=0), Vm("b", 1.0, 5.0, 2, site_hint=0)])
        assert repr(capacity_sweep(trace, 1, [2.0, np.int64(4)], 2.0)) == repr(capacity_sweep(trace, 1, [2, 4], 2.0))

    def test_vm_without_hint_rejected(self):
        trace = vm_trace([Vm("a", 0.0, 5.0, 2, site_hint=0), Vm("b", 1.0, 5.0, 2)])
        with pytest.raises(DomainError, match="hint"):
            capacity_sweep(trace, 2, [8], 2.0)

    def test_one_site_reads_no_hint(self):
        rows = [Vm("a", 0.0, 10.0, 4, site_hint=3), Vm("b", 1.0, 10.0, 4, site_hint=6),
                Vm("c", 2.0, 5.0, 2, site_hint=1)]
        hinted = capacity_sweep(vm_trace(rows), 1, [4, 8, 16], 2.0)
        unhinted = vm_trace([r._replace(site_hint=None) for r in rows])
        assert repr(capacity_sweep(unhinted, 1, [4, 8, 16], 2.0)) == repr(hinted)
        assert [(p.edge_capacity, p.peak_queue) for p in hinted[0]] == [(4, 2), (8, 1), (10, 0)]

    def test_empty_trace_rejected(self):
        with pytest.raises(EmptyTrace):
            capacity_sweep(vm_trace([]), 2, [8], 2.0)

    def test_unknown_policy_rejected_where_nothing_saturates(self):
        trace = vm_trace([Vm("a", 0.0, 5.0, 2, site_hint=0)])
        with pytest.raises(DomainError, match="policy"):
            capacity_sweep(trace, 1, [64], 2.0, policy="worst_fit")


# sha256 of the arrival, lifetime, cores and site_hint columns (float64, float64, int64, int64)
# of synthetic_vm_trace(64, 10, 2000, SeededStream(seed, 777), k_sites=16), recorded when the
# trace was still a list of rows
TRACE_PINS = {
    1: "f25cc094b68372ba7d3798bc7d457e99de74f451edaa1393bfb8350d035f2992",
    2: "e2381e64466aea04bc553c3502d644b232c825b455be95ee0c84b0fdcf6ef575",
    3: "cf4d67311d65a8422e2a4b376e0a6e8351cacbc482536d270943465740eed1ab",
}


class TestVmTrace:
    @pytest.mark.parametrize("seed", sorted(TRACE_PINS))
    def test_synthetic_columns_match_their_pins(self, seed):
        trace = synthetic_vm_trace(64, 10, 2000, SeededStream(seed, 777), k_sites=16)
        columns = (trace.arrival, trace.lifetime, trace.cores, trace.site_hint)
        assert [col.dtype for col in columns] == [np.float64, np.float64, np.int64, np.int64]
        digest = hashlib.sha256(b"".join(col.tobytes() for col in columns)).hexdigest()
        assert digest == TRACE_PINS[seed]

    def test_float_cores_become_int64(self):
        trace = VmTrace([0.0, 1.0], [1.0, 1.0], [4.0, 2])
        assert trace.cores.dtype == np.int64 and trace.cores.tolist() == [4, 2]
        assert trace_summary(trace)["max_cores"] == 4 and type(trace_summary(trace)["max_cores"]) is int

    @pytest.mark.parametrize("k_sites", [None, 4])
    def test_csv_survives_save_load_save(self, tmp_path, k_sites):
        trace = synthetic_vm_trace(8.0, 10.0, 50.0, SeededStream(56), k_sites=k_sites)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        save_vm_trace(first, trace)
        save_vm_trace(second, load_vm_trace(str(first)))
        assert second.read_bytes() == first.read_bytes()

    def test_tied_arrivals_keep_file_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("vm_id,arrival_s,lifetime_s,cores\nx,5,1,2\nb,1,1,2\na,1,1,2\nz,-0.0,1,2\ny,0,1,2\n")
        assert load_vm_trace(str(path)).ids == ["z", "y", "b", "a", "x"]

    def test_first_bad_line_in_file_order_is_named(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("vm_id,arrival_s,lifetime_s,cores\nok,9,1,2\nlate,5,nan,2\nearly,0,1,0\n")
        with pytest.raises(ParseError) as err:
            load_vm_trace(str(path))
        assert str(err.value) == f"{path}:3: VM late: lifetime must be finite and positive, got nan"

    @pytest.mark.parametrize("field, value", [
        ("arrival", math.nan), ("arrival", math.inf), ("arrival", -math.inf),
        ("lifetime", 0.0), ("lifetime", -1.0), ("lifetime", math.inf), ("lifetime", math.nan),
        ("cores", 0), ("cores", 2.5),
    ])
    def test_constructor_names_the_first_bad_vm(self, field, value):
        columns = {"arrival": [0.0, 1.0, 2.0, 3.0], "lifetime": [1.0] * 4, "cores": [2] * 4}
        columns[field][1] = columns[field][3] = value
        with pytest.raises(DomainError) as want:
            edgeq.capacity._check_vm("vm1", *(columns[name][1] for name in ("arrival", "lifetime", "cores")))
        with pytest.raises(DomainError) as got:
            VmTrace(columns["arrival"], columns["lifetime"], columns["cores"])
        assert str(got.value) == str(want.value)
        with pytest.raises(DomainError, match="^VM b: "):
            VmTrace(columns["arrival"], columns["lifetime"], columns["cores"], ids=["a", "b", "c", "d"])

    @pytest.mark.parametrize("column, value", [("cores", 2**70), ("site_hint", 2**70), ("site_hint", 1.5)])
    def test_an_int_column_value_outside_int64_names_its_vm(self, column, value):
        values = {"cores": [2, 2], "site_hint": [0, 0]}
        values[column][1] = value
        with pytest.raises(DomainError, match=f"^VM vm1: {column} must be a 64-bit integer"):
            VmTrace([0.0, 1.0], [1.0, 1.0], values["cores"], values["site_hint"])

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(DomainError, match="one length"):
            VmTrace([0.0, 1.0], [1.0], [2, 2])


class TestArgumentDomains:
    @pytest.mark.parametrize("args, name", [
        ((math.nan, 10.0, 50.0), "rate"),
        ((8.0, math.nan, 50.0), "mean_lifetime"),
        ((8.0, 10.0, math.inf), "horizon"),
        ((0.0, 10.0, 50.0), "rate"),
        ((8.0, -1.0, 50.0), "mean_lifetime"),
    ])
    def test_synthetic_trace_names_a_bad_argument(self, args, name):
        with pytest.raises(DomainError, match=f"^{name}: must be finite and > 0"):
            synthetic_vm_trace(*args, SeededStream(1))

    @pytest.mark.parametrize("k_sites", [2.5, True])
    def test_site_count_must_be_whole(self, k_sites):
        trace = synthetic_vm_trace(8.0, 10.0, 50.0, SeededStream(54), k_sites=4)
        with pytest.raises(DomainError, match="^k_sites: must be an integer"):
            synthetic_vm_trace(8.0, 10.0, 50.0, SeededStream(54), k_sites=k_sites)
        with pytest.raises(DomainError, match="^k_sites: must be an integer"):
            capacity_sweep(trace, k_sites, [32], 2.0)

    def test_whole_float_site_count_reads_as_int(self):
        trace = synthetic_vm_trace(8.0, 10.0, 50.0, SeededStream(54), k_sites=4)
        assert repr(capacity_sweep(trace, 4.0, [20, 40], 2.0)) == repr(capacity_sweep(trace, 4, [20, 40], 2.0))
        again = synthetic_vm_trace(8.0, 10.0, 50.0, SeededStream(54), k_sites=4.0)
        assert again.site_hint.tobytes() == trace.site_hint.tobytes()

    @pytest.mark.parametrize("args, field", [
        ((2.5, 1, 8), "k_sites"),
        ((True, 1, 8), "k_sites"),
        ((2, 0, 8), "servers_per_site"),
        ((2, 1, 8.5), "cores_per_server"),
    ])
    def test_topology_names_a_bad_field(self, args, field):
        with pytest.raises(DomainError, match=f"^Topology.{field}: must be"):
            Topology(*args)

    def test_topology_keeps_the_cloud_rule_and_casts_whole_floats(self):
        with pytest.raises(EdgeqError, match="cloud mode pools everything"):
            _parse_topology("cloud:k=2,cores=8")
        assert _parse_topology("cloud:cores=8") == _parse_topology("edge:cores=8") == Topology(1, 1, 8)
        assert Topology(2.0, 1, 8.0) == Topology(2, 1, 8)

    def test_fractional_server_size_refused_before_replay(self):
        trace = vm_trace([Vm("a", 0.0, 1.0, 4, site_hint=0), Vm("b", 0.5, 1.0, 20, site_hint=0)])
        with pytest.raises(DomainError, match="^Topology.cores_per_server"):
            simulate_packing(trace, Topology(1, 1, 20.5))
