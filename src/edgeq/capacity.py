"""Edge-vs-cloud capacity equivalence and trace-driven VM packing.

The closed forms relate the server capacity a distributed edge needs to
match a centralized pool handling the same geographically pinned VM
workload. The packing sweep measures the over-provisioning; peaks where
nothing queues come from a sorted +/-cores sweep. A saturated site is one
server, so the sweep replays it on its own as one FIFO pool of cores, where
first and best fit place alike, and merges the sites' waits into the
system-wide backlog afterwards.

A trace is a `VmTrace` of columns. The
general replay, `simulate_packing`, is one event loop over a trace in
arrival order; it serves `edgeq capacity pack` and is the oracle the sweep
is tested against. Releases due by an arrival time run before that time's
arrival batch and never inside it. Each site keeps a FIFO of the VMs that
fit nowhere, and its head blocks the VMs behind it.
"""
from __future__ import annotations

import csv
import heapq
import math
import numbers
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .config import REQUIRED, Checked, checked, count, finite_nonnegative, finite_positive, ranged, read
from .errors import DomainError, EmptyTrace, OversizedVm, ParseError, UnstableQueue
from .specs import DtrpSpec, packing_factor
from .workload import RenewalSpec, SeededStream, poisson_arrivals, renewal_times

# ---------------------------------------------------------------------------
# Closed forms


def edge_overprovision_factor(q: float) -> float:
    """Capacity factor the edge needs over the cloud at equal utilization: 1 + 1/q."""
    q = read("q", packing_factor, q, DomainError)
    return 1.0 + 1.0 / q


def cloud_capacity_equivalent(edge: DtrpSpec, rho_cloud: float) -> float:
    """Cloud capacity delivering the same packing response time as the edge's C.

    C_cloud = C * (1 - rho - tau/C) / ((1 + 1/q) * (1 - rho_cloud)), with
    C, rho, tau and q the edge's; ``edge`` already refuses rho + tau/C >= 1.
    """
    rho_cloud = read("rho_cloud", finite_nonnegative, rho_cloud, DomainError)
    if rho_cloud >= 1.0:
        raise UnstableQueue(f"rho_cloud = {rho_cloud:.6g} must lie in [0, 1)")
    slack = edge.rho + edge.tau / edge.capacity
    return edge.capacity * (1.0 - slack) / ((1.0 + 1.0 / edge.q) * (1.0 - rho_cloud))


def dtrp_response_time(spec: DtrpSpec, lam: float, cloud: bool = False) -> float:
    """Spatial-queue response time, up to the shared proportionality constant.

    gos^2 * lam * area * (1 + 1/q)^2 / (C^2 * v^2 * (1 - rho - tau/C)^2).
    In cloud mode the pool is large enough that 1/q and tau/C vanish.
    A time outside the positive floats raises DomainError.
    """
    lam = read("lam", finite_positive, lam, DomainError)
    if cloud:
        pack = 1.0
        slack = 1.0 - spec.rho
    else:
        pack = edge_overprovision_factor(spec.q)
        slack = 1.0 - spec.rho - spec.tau / spec.capacity
    try:
        time = spec.gos**2 * lam * spec.area * pack**2 / (spec.capacity**2 * spec.velocity**2 * slack**2)
    except (OverflowError, ZeroDivisionError):  # a power overflowed, or the divisor underflowed to 0
        time = math.inf
    if not 0.0 < time < math.inf:
        raise DomainError(f"response time out of float range, got {time!r}")
    return time


# ---------------------------------------------------------------------------
# Traces


# Each VM field's rule, in field order (arrival, lifetime, cores), as (test, complaint);
# a test reads one number or a numpy column alike, so a file line and a whole trace share it.
_VM_RULES = (
    (lambda a: (a > -math.inf) & (a < math.inf), "arrival must be finite, got {!r}"),
    (lambda x: (x > 0) & (x < math.inf), "lifetime must be finite and positive, got {!r}"),
    (lambda c: (c >= 1) & (c % 1 == 0), "cores must be an integer >= 1"),
)


def _check_vm(vm_id, arrival, lifetime, cores) -> None:
    """Raise DomainError naming the VM at the first of its values that breaks its rule."""
    for (test, complaint), value in zip(_VM_RULES, (arrival, lifetime, cores)):
        if not test(value):
            raise DomainError(f"VM {vm_id}: {complaint.format(value)}")


class VmTrace:
    """A VM trace as columns, in trace order.

    ``arrival`` and ``lifetime`` are float64 and ``cores`` int64;
    ``site_hint`` is int64, or None unless every VM carries a hint. ``ids``
    is a list of names, or None to name VM i ``vm{i}`` (`vm_id`). Every row
    is checked by the `_VM_RULES` on construction, all at once, and the
    first bad row raises the DomainError `_check_vm` gives it, naming the
    VM, as `load_vm_trace` does for each line of a file.
    """

    __slots__ = ("arrival", "lifetime", "cores", "site_hint", "ids")

    def __init__(self, arrival, lifetime, cores, site_hint=None, ids=None):
        self.arrival = np.asarray(arrival, dtype=np.float64)
        self.lifetime = np.asarray(lifetime, dtype=np.float64)
        cores = np.asarray(cores)
        hints = None if site_hint is None else np.asarray(site_hint)
        self.ids = ids
        columns = (self.arrival, self.lifetime, cores)
        shape = self.arrival.shape
        others = (self.lifetime, cores, hints, ids)
        if len(shape) != 1 or any(np.shape(col) != shape for col in others if col is not None):
            raise DomainError("trace columns must be 1-D and of one length")
        ok = np.logical_and.reduce([test(col) for col, (test, _) in zip(columns, _VM_RULES)])
        if not ok.all():
            i = int(ok.argmin())
            _check_vm(self.vm_id(i), *(col.tolist()[i] for col in columns))
        self.cores = self._int64(cores, "cores")
        self.site_hint = None if hints is None else self._int64(hints, "site_hint")

    def _int64(self, column: np.ndarray, field: str) -> np.ndarray:
        """``column`` as int64; the first VM whose value is no int64 raises DomainError."""
        fits = (column % 1 == 0) & (column >= -(2**63)) & (column < 2**63)
        if not fits.all():
            i = int(fits.argmin())
            raise DomainError(f"VM {self.vm_id(i)}: {field} must be a 64-bit integer, got {column.tolist()[i]!r}")
        return column.astype(np.int64)

    def vm_id(self, i) -> str:
        return f"vm{i}" if self.ids is None else self.ids[i]

    def __len__(self) -> int:
        return len(self.arrival)


TRACE_HEADER = ["vm_id", "arrival_s", "lifetime_s", "cores"]
HINT_COLUMN = "site_hint"


def load_vm_trace(path: str) -> VmTrace:
    """Read a `vm_id,arrival_s,lifetime_s,cores[,site_hint]` CSV, sorted by arrival.

    Each line is checked as it is read, so an error names the first bad
    line in file order. The sort is stable: tied arrivals keep file order.
    """
    rows, hints = [], []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise ParseError(f"trace file not found: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyTrace(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        if header not in (TRACE_HEADER, TRACE_HEADER + [HINT_COLUMN]):
            raise ParseError(f"{path}:1: header must be {','.join(TRACE_HEADER)}[,{HINT_COLUMN}]")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                hint = int(row[4]) if len(row) > 4 else None
                vm = (row[0].strip(), float(row[1]), float(row[2]), int(row[3]))
                _check_vm(*vm)
            except (ValueError, DomainError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            rows.append(vm)
            hints.append(hint)
    if not rows:
        raise EmptyTrace(f"{path}: no VM requests")
    ids, arrival, lifetime, cores = zip(*rows)
    order = np.argsort(arrival, kind="stable")
    hinted = len(header) > len(TRACE_HEADER)
    return VmTrace(
        np.array(arrival)[order], np.array(lifetime)[order], np.array(cores)[order],
        np.array(hints)[order] if hinted else None, [ids[i] for i in order.tolist()],
    )


def save_vm_trace(path: str, trace: VmTrace) -> None:
    """Write the trace CSV; the site_hint column is written when every VM carries a hint."""
    columns = [
        map(trace.vm_id, range(len(trace))),
        (f"{a:.9g}" for a in trace.arrival.tolist()),
        (f"{x:.9g}" for x in trace.lifetime.tolist()),
        trace.cores.tolist(),
    ]
    header = TRACE_HEADER
    if trace.site_hint is not None:
        header = TRACE_HEADER + [HINT_COLUMN]
        columns.append(trace.site_hint.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


def trace_summary(trace: VmTrace) -> dict[str, float]:
    return {
        "count": len(trace),
        "mean_cores": float(trace.cores.mean()),
        "min_cores": int(trace.cores.min()),
        "max_cores": int(trace.cores.max()),
        "span_s": float(trace.arrival[-1] - trace.arrival[0]),
    }


# Discrete VM-size mix with mean exactly 4.75 cores, smallest 2, largest 20
# (the headline statistics of Azure's public 2019 VM trace).
VM_SIZES = np.array([2, 4, 6, 8, 12, 16, 20])
VM_SIZE_PROBS = np.array(
    [0.4255555555555556, 0.27, 0.12, 0.09, 0.05, 0.0275, 0.016944444444444444]
)


def synthetic_vm_trace(
    rate: float,
    mean_lifetime: float,
    horizon: float,
    stream: SeededStream,
    k_sites: Optional[int] = None,
) -> VmTrace:
    """Poisson VM arrivals with exponential lifetimes and Azure-like sizes.

    When k_sites is given, each VM carries a uniform site hint so edge and
    cloud runs see the identical assignment.
    """
    rate = read("rate", finite_positive, rate, DomainError)
    mean_lifetime = read("mean_lifetime", finite_positive, mean_lifetime, DomainError)
    horizon = read("horizon", finite_positive, horizon, DomainError)
    if k_sites is not None:
        k_sites = read("k_sites", count, k_sites, DomainError)
    rng = stream.generator()
    arrivals = poisson_arrivals(rate, horizon, rng)
    n = len(arrivals)
    lifetimes = renewal_times(RenewalSpec(), mean_lifetime, n, rng)
    cores = rng.choice(VM_SIZES, size=n, p=VM_SIZE_PROBS)
    hints = None if k_sites is None else rng.integers(0, k_sites, n)
    return VmTrace(arrivals, lifetimes, cores, hints)


# ---------------------------------------------------------------------------
# Packing simulator

POLICIES = ("first_fit", "best_fit", "first_fit_decreasing_batch")
packing_policy = ranged(str, POLICIES.__contains__, f"one of {POLICIES}")  # the cast of every policy argument and key


@dataclass(frozen=True)
class Topology(Checked):
    """Server layout: cloud mode is a single pooled site."""

    mode: str = checked(REQUIRED, ranged(str, lambda m: m in ("edge", "cloud"), "'edge' or 'cloud'"))
    k_sites: int = checked(REQUIRED, count)
    servers_per_site: int = checked(REQUIRED, count)
    cores_per_server: int = checked(REQUIRED, count)

    def __post_init__(self):
        super().__post_init__()
        if self.mode == "cloud" and self.k_sites != 1:
            raise DomainError("cloud mode pools everything into one site")


@dataclass
class PackingReport:
    """Outcome of replaying one trace against one topology."""

    peak_servers_used: int                  # concurrent busy servers, system-wide
    peak_servers_per_site: list[int]        # per-site concurrent busy-server peaks
    site_capacity_cores: int                # sum of per-site occupied-core peaks
    rejected_or_queued: int                 # peak FIFO backlog, system-wide
    placed: int
    completed: int


def simulate_packing(
    trace: VmTrace,
    topology: Topology,
    policy: str = "first_fit",
    site_assign: str = "uniform",
    stream: Optional[SeededStream] = None,
) -> PackingReport:
    """Replay a VM trace, in arrival order, against a topology.

    Each VM is pinned to its site (uniform draw or the trace's hint; edge
    sites never borrow from each other) and lands on the first opened
    server with room (best_fit: the tightest), else on a new server while
    the site has one left. A VM that fits nowhere waits in its site's FIFO,
    and the head blocks the VMs behind it until releases free enough cores.
    Releases due by an arrival time run before that time's arrival batch,
    never inside it, so a VM whose end rounds to its arrival holds its cores
    through its batch; first_fit_decreasing_batch places each batch largest
    first, ties in trace order. Verifies conservation and never
    oversubscribes a server.
    """
    policy = read("policy", packing_policy, policy, DomainError)
    site_assign = read("site_assign", ranged(str, ("uniform", "hint").__contains__, "'uniform' or 'hint'"),
                       site_assign, DomainError)
    n = len(trace)
    if not n:
        raise EmptyTrace("trace contains no VM requests")
    cap = topology.cores_per_server
    _refuse_oversized(trace, cap)
    _arrival_clock(trace)

    n_sites = topology.k_sites if topology.mode == "edge" else 1
    if topology.mode == "cloud":
        site_of = [0] * n
    elif site_assign == "hint":
        if trace.site_hint is None:
            raise DomainError(f"site_assign='hint' requires every VM to carry a hint (trace column {HINT_COLUMN})")
        site_of = (trace.site_hint % n_sites).tolist()
    else:
        if stream is None:
            raise DomainError("site_assign='uniform' requires a SeededStream")
        site_of = stream.generator().integers(0, n_sites, n).tolist()

    times, lifetimes, sizes = trace.arrival.tolist(), trace.lifetime.tolist(), trace.cores.tolist()
    order = range(n)
    if policy == "first_fit_decreasing_batch":
        order = sorted(order, key=lambda i: (times[i], -sizes[i]))  # stable: ties keep trace order
    best_fit = policy == "best_fit"
    max_servers = topology.servers_per_site
    free: list[list[int]] = [[] for _ in range(n_sites)]  # residual cores of each opened server
    queue = [deque() for _ in range(n_sites)]  # FIFO of (lifetime, cores)
    busy, used = [0] * n_sites, [0] * n_sites
    peak_busy, peak_used = [0] * n_sites, [0] * n_sites
    releases: list[tuple[float, int, int, int]] = []  # heap of (time, site, server, cores)
    push, pop = heapq.heappush, heapq.heappop
    placed = completed = queued_now = peak_queue = busy_total = peak_busy_total = 0
    k, batch_time, next_time = 0, -math.inf, times[0]
    while k < n or releases:
        # the backlog the previous event left, so an arrival placed at once never counts as queued
        if queued_now > peak_queue:
            peak_queue = queued_now
        if releases and releases[0][0] <= next_time and next_time != batch_time:
            now, s, idx, cores = pop(releases)
            fr = free[s]
            fr[idx] += cores
            used[s] -= cores
            if fr[idx] == cap:
                busy[s] -= 1
                busy_total -= 1
            completed += 1
            waiting = queue[s]
            # the head fitted nowhere before this release, so it can only fit where it freed cores
            if not waiting or waiting[0][1] > fr[idx]:
                continue
        else:  # an arrival; inside a batch, releases wait for its end
            i = order[k]
            k += 1
            s, now = site_of[i], next_time
            batch_time, next_time = now, times[order[k]] if k < n else math.inf
            waiting = queue[s]
            waiting.append((lifetimes[i], sizes[i]))
            queued_now += 1
            if len(waiting) > 1:  # FIFO: wait behind the site's backlog
                continue
        # place the site's backlog head by head until one does not fit
        fr = free[s]
        while waiting:
            lifetime, cores = waiting[0]
            if best_fit:
                idx, room = -1, cap + 1
                for j, f in enumerate(fr):
                    if cores <= f < room:
                        idx, room = j, f
            else:
                for idx, f in enumerate(fr):
                    if f >= cores:
                        break
                else:
                    idx = -1
            if idx < 0:
                if len(fr) == max_servers:
                    break
                idx = len(fr)
                fr.append(cap)
            if fr[idx] == cap:
                busy[s] += 1
                busy_total += 1
                if busy[s] > peak_busy[s]:
                    peak_busy[s] = busy[s]
                if busy_total > peak_busy_total:
                    peak_busy_total = busy_total
            fr[idx] -= cores
            used[s] += cores
            if used[s] > peak_used[s]:
                peak_used[s] = used[s]
            push(releases, (now + lifetime, s, idx, cores))
            waiting.popleft()
            queued_now -= 1
            placed += 1

    assert placed == n and completed == n, "conservation violated"
    assert all(min(fr, default=cap) >= 0 for fr in free), "server oversubscribed"
    assert queued_now == 0

    return PackingReport(
        peak_servers_used=peak_busy_total,
        peak_servers_per_site=peak_busy,
        site_capacity_cores=sum(peak_used),
        rejected_or_queued=peak_queue,
        placed=placed,
        completed=completed,
    )


@dataclass
class SweepPoint:
    cores_per_site: int
    edge_capacity: int
    relative_error: float
    peak_queue: int


class PackingSweep:
    """Edge sites of one size per call against the pooled-cloud baseline, over one hinted trace.

    The per-trace state is built once: each VM's site, the cloud peak and
    each site's peak of occupied cores were no VM ever to queue (one sorted
    +/-cores sweep, `_unqueued_peaks`, exact where nothing queues), and the
    model's edge cores ``target`` = cloud_peak*(1+1/q) and site size
    ``model_size`` = target/k_sites. Then the trace is split by site
    (`_site_rows`), so ``point`` only reads state that worker threads share.

    Each saturated site is one FIFO pool of `size` cores, where first and
    best fit place alike. Each saturated site is replayed on its own
    (`_site_replay`), and `_pool_replay` merges their waits into the
    system-wide backlog.
    `simulate_packing` stays the general replay and the oracle the tests
    compare this one with. A size that replays raises what that replay
    would: a size below 1, a VM larger than the size, a replayed VM out of
    arrival order.
    """

    def __init__(self, trace: VmTrace, k_sites: int, q: float, policy: str = "first_fit"):
        if not len(trace):
            raise EmptyTrace("trace contains no VM requests")
        self.policy = read("policy", packing_policy, policy, DomainError)
        self.k_sites = read("k_sites", count, k_sites, DomainError)
        if trace.site_hint is None:
            raise DomainError("capacity_sweep requires every VM to carry a site hint")
        self.trace = trace
        self.site_of = site_of = (trace.site_hint % self.k_sites).astype(np.min_scalar_type(self.k_sites - 1))
        self.cloud_peak, self.peaks = _unqueued_peaks(trace.arrival, trace.lifetime, trace.cores, site_of, self.k_sites)
        self.target = self.cloud_peak * edge_overprovision_factor(q)  # the edge's cores the model predicts
        self.model_size = self.target / self.k_sites
        self.sites = _site_rows(trace, site_of, self.k_sites, self.policy)  # each site's rows in replay order

    def point(self, size) -> SweepPoint:
        """The edge capacity and peak backlog at sites of ``size`` cores, a whole number."""
        if isinstance(size, bool) or not isinstance(size, numbers.Real) or not float(size).is_integer():
            raise DomainError(f"site size must be a whole number of cores, got {size!r}")
        size = int(size)
        saturated = [p > size for p in self.peaks]
        capacity = sum(p for p, full in zip(self.peaks, saturated) if not full)
        queue = 0
        if any(saturated):
            Topology("edge", self.k_sites, 1, size)  # refuses a size below 1
            _refuse_oversized(self.trace, size)
            clock = _arrival_clock(self.trace, np.array(saturated)[self.site_of])
            used, queue = _pool_replay([rows for rows, full in zip(self.sites, saturated) if full], clock, size)
            capacity += used
        return SweepPoint(size, capacity, abs(capacity - self.target) / self.target, queue)


def capacity_sweep(
    trace: VmTrace,
    k_sites: int,
    core_grid: Sequence[int],
    q: float,
    policy: str = "first_fit",
) -> tuple[list[SweepPoint], int, float]:
    """`PackingSweep` at each size of ``core_grid``: (the points, the cloud peak used cores, the model size)."""
    sweep = PackingSweep(trace, k_sites, q, policy)
    return [sweep.point(size) for size in core_grid], sweep.cloud_peak, sweep.model_size


def _refuse_oversized(trace: VmTrace, size: int) -> None:
    """Raise OversizedVm (a DomainError) naming the first VM wanting more than ``size`` cores."""
    over = trace.cores > size
    if over.any():
        i = int(over.argmax())
        raise OversizedVm(f"VM {trace.vm_id(i)} wants {trace.cores[i]} cores > server size {size}")


def _arrival_clock(trace: VmTrace, replayed=None) -> np.ndarray:
    """The latest arrival of the ``replayed`` rows (a mask, default all) up to each row of the trace.

    Raises DomainError naming the first of those VMs that arrives before
    the one ahead of it. Over rows in arrival order the clock is sorted, and
    searching it for a time finds the first replayed row at or after it.
    """
    times = trace.arrival if replayed is None else np.where(replayed, trace.arrival, -np.inf)
    clock = np.maximum.accumulate(times)
    early = np.flatnonzero(times[1:] < clock[:-1])
    if replayed is not None:
        early = early[replayed[early + 1]]
    if len(early):
        raise DomainError(f"VM {trace.vm_id(early[0] + 1)} arrives before the VM ahead of it; sort the trace by arrival")
    return clock


def _unqueued_peaks(start, lifetime, size, site_of, k_sites) -> tuple[int, list[int]]:
    """The cloud's and each site's peak occupied cores, were no VM ever to queue.

    The events are the n departures, then the n arrivals. No more than
    three 2n-event temporaries are held at once: each is dropped once read
    and each cumsum runs in place.
    """
    n = len(start)
    times = np.empty(2 * n)
    # a VM that ends at its own arrival time still holds its cores through its arrival batch
    end = np.add(start, lifetime, out=times[:n])
    np.maximum(end, np.nextafter(start, np.inf), out=end)
    times[n:] = start
    # departures come first in the events, so a stable sort by time releases before it places
    order = np.argsort(times, kind="stable")
    del times, end
    sites = np.concatenate([site_of, site_of])[order]
    delta = np.concatenate([-size, size])[order]
    del order
    # then stably by site; each site's events sum to zero, so the running total restarts per site
    by_site = np.argsort(sites, kind="stable")
    site_delta = delta[by_site]
    sites = sites[by_site]
    del by_site
    cloud_peak = int(np.cumsum(delta, out=delta).max())
    del delta
    peaks = np.zeros(k_sites, dtype=np.int64)
    np.maximum.at(peaks, sites, np.cumsum(site_delta, out=site_delta))
    return cloud_peak, peaks.tolist()


def _site_rows(trace: VmTrace, site_of: np.ndarray, k_sites: int, policy: str) -> list[tuple]:
    """Each site's rows in replay order, as (trace positions, arrivals, lifetimes, cores).

    first_fit_decreasing_batch replays each arrival batch largest first, ties
    in trace order. The positions are a numpy array; the times are float
    arrays (`array`), 8 bytes a VM against 32 in a list of floats, and the
    cores, small cached ints, a list.
    """
    if policy == "first_fit_decreasing_batch":
        order = np.lexsort((-trace.cores, trace.arrival, site_of))
    else:
        order = np.argsort(site_of, kind="stable")
    cuts = np.cumsum(np.bincount(site_of, minlength=k_sites))[:-1]
    return [
        (rows, array("d", trace.arrival[rows].tobytes()), array("d", trace.lifetime[rows].tobytes()),
         trace.cores[rows].tolist())
        for rows in np.split(order, cuts)
    ]


def _pool_replay(sites: list[tuple], clock: np.ndarray, size: int) -> tuple[int, int]:
    """`simulate_packing` on one server of `size` cores at each of the ``sites``.

    Returns the sum of the sites' peak occupied cores and the peak
    system-wide backlog. Each site is replayed on its own (`_site_replay`);
    the backlog is merged afterwards. A VM that waits adds 1 at its trace
    position and takes it off at the first replayed row whose release pass
    starts it, which ``clock`` (`_arrival_clock`) locates; the backlog peaks
    where a VM joins it, since only an arrival raises it.
    """
    stop = math.nextafter(clock[-1], math.inf)  # the first time after the last arrival
    used, joined, starts, roots = 0, [], array("d"), array("d")
    for rows, *columns in sites:
        low, waited, started, rooted = _site_replay(*columns, size, stop)
        used += size - low
        joined.append(rows[np.frombuffer(waited, dtype=np.int64)])
        starts += started
        roots += rooted
    joined = np.concatenate(joined)
    if not len(joined):
        return used, 0
    # a release pass runs before the first arrival batch at or after the release time, and
    # after the batch its release chain grew from: a start at that root arrival, where every
    # lifetime of the chain rounded away, leaves the backlog before the batch after the root
    starts = np.frombuffer(starts)
    left = np.searchsorted(clock, starts, "left")
    tied = starts == np.frombuffer(roots)
    left[tied] = np.searchsorted(clock, starts[tied], "right")
    slots = len(clock) + 1
    backlog = np.bincount(joined, minlength=slots)
    backlog -= np.bincount(left, minlength=slots)
    return used, int(np.cumsum(backlog, out=backlog)[joined].max())


def _site_replay(times, lifetimes, sizes, size, stop) -> tuple[int, array, array, array]:
    """One site's rows replayed as a FIFO pool of `size` cores, in the order of `simulate_packing`.

    One server makes first and best fit the same placement, and
    first_fit_decreasing_batch changes only the row order (`_site_rows`).
    Releases due by an arrival time run before that time's arrival batch,
    least (time, cores) first, and each starts the FIFO's head VMs while they
    fit. Under head-of-line blocking, once a VM waits every later one waits
    too until the FIFO empties, so the FIFO is the row range [head, j).
    After the site's last arrival the releases due by ``stop`` still run,
    since they may shorten the backlog that later arrivals at other sites
    see; then a pool that has already had no core free stops, as further
    releases can neither raise the backlog nor lower the least free cores.

    Returns the least free cores the pool had, the rows that waited, and,
    in the order they started, the start time of each of those that started
    and the arrival at the root of the release chain that started it.
    """
    n = len(times)
    free = low = size
    head = 0
    running = []  # heap of (release time, cores, arrival at the root of its release chain)
    waited, starts, roots = array("q"), array("d"), array("d")
    wait, push, pop = waited.append, heapq.heappush, heapq.heappop
    batch = None
    # after the rows, two release passes with every row arrived: by ``stop``, then to the end
    for j, now in zip(chain(range(n), (n, n)), chain(times, (stop, math.inf))):
        if now != batch:
            batch = now
            while running and running[0][0] <= now:
                done, freed, root = pop(running)
                free += freed
                while head < j and sizes[head] <= free:  # start the FIFO head by head
                    cores = sizes[head]
                    free -= cores
                    push(running, (done + lifetimes[head], cores, root))
                    starts.append(done)
                    roots.append(root)
                    head += 1
                if free < low:
                    low = free
            if j == n:  # past the last arrival
                if low and now != math.inf:
                    continue
                break
        cores = sizes[j]
        if head == j and cores <= free:
            free -= cores
            if free < low:
                low = free
            push(running, (now + lifetimes[j], cores, now))
            head += 1
        else:
            wait(j)

    held = sum(cores for _, cores, _ in running)
    # conservation at either exit: every VM started or waits, and each core is free or held;
    # a pool that ran every release has nothing waiting
    assert free + held == size and len(waited) - len(starts) == n - head and (running or head == n), \
        "conservation violated"
    return low, waited, starts, roots
