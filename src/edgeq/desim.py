"""Deterministic discrete-event simulation of the validation queues.

Three models:

* ``two_phase_edge`` -- tandem pair: a source queue whose single server
  performs the mandatory phase and, for migrating requests, the migration
  phase back to back, feeding a destination queue that serves only the
  migrated stream; renewal inter-arrival and service laws are optional.
* ``mtm1_sinusoidal`` -- single server driven by a sinusoidal
  nonhomogeneous Poisson process.
* ``mmk_cloud`` -- one FCFS queue in front of k identical servers.

Single-server waiting times are computed with the vectorized Lindley
recursion (reflected random walk), so one run handles millions of
requests in milliseconds and is bit-reproducible for a fixed stream.

Every runner ends in one metric layer, ``_summarize``. It computes only
the ``SimMetrics`` fields that ``SimConfig.metrics`` names (all of them
by default), and the others read NaN. A run builds its departure and
sojourn arrays only when a named field, the instability check, the event
log or the rush statistic reads them. The first ``int(n * warmup)``
requests are a warm-up and are not counted. The window runs from the first counted arrival to the last departure, and
``little_l`` is the time-average number in system over it: each request,
counted or not, adds its overlap with the window. The tandem model's
``mean_wait`` composes the source-queue wait over all requests with the
destination-queue wait per migrating request, which is the quantity the
closed-form total predicts; ``mean_response`` is RTT + mean_wait + mean
source occupancy (phase 1 plus migration work). Per-request sojourns,
including the destination visit, feed ``p95_response`` and the event log.
"""
from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field, fields
from typing import ClassVar, Optional

import numpy as np

from .analytic import effective_service_rate, overload_window
from .errors import ConfigError, InstabilityDetected
from .specs import CloudSpec, NetworkSpec, QueueSpec, SinusoidProfile
from .workload import RenewalSpec, SeededStream, nhpp_sinusoidal, poisson_arrivals, renewal_times

MODELS = ("two_phase_edge", "mtm1_sinusoidal", "mmk_cloud")
RUSH_STATS = ("peak_bin", "arrivals", "served")


@dataclass
class SimMetrics:
    """Post-warmup summary of one run (or field-wise mean across runs).

    A run fills only the fields its ``SimConfig.metrics`` names; the
    others read NaN. A run with no requests reads 0 in the named fields.
    """

    mean_wait: float = 0.0
    mean_response: float = 0.0
    p95_response: float = 0.0
    utilization_observed: float = 0.0
    count_served: float = 0
    count_migrated: float = 0
    little_l: float = 0.0
    mean_sojourn: float = 0.0
    mean_wait_conditional: float = 0.0   # mmk_cloud: wait averaged over delayed requests
    window_duration: float = 0.0

    FIELDS: ClassVar[tuple[str, ...]]  # field names in declaration order, set below


SimMetrics.FIELDS = tuple(f.name for f in fields(SimMetrics))


@dataclass(frozen=True)
class SimConfig:
    """One simulation run description; see module docstring for models."""

    model: str
    queue: Optional[QueueSpec] = None
    cloud: Optional[CloudSpec] = None
    profile: Optional[SinusoidProfile] = None
    arrivals: Optional[RenewalSpec] = None     # two_phase_edge: inter-arrival law
    service1: Optional[RenewalSpec] = None     # two_phase_edge: phase-1 law
    service2: Optional[RenewalSpec] = None     # two_phase_edge: phase-2 law
    horizon_requests: Optional[int] = None
    horizon_s: Optional[float] = None
    warmup: float = 0.1
    network: Optional[NetworkSpec] = None
    dest_rate: Optional[float] = None          # destination service rate, default mu2
    dest_home_load: float = 0.0                # extra Poisson rate offered to queue 2
    two_stage_service: bool = False            # mtm1: explicit phase-1 + phase-2 stages
    bins_per_period: int = 100
    rush_stat: str = "peak_bin"
    allow_unstable: bool = False
    max_in_system: Optional[int] = None        # instability heuristic cap
    event_log: Optional[str] = None
    metrics: tuple[str, ...] = SimMetrics.FIELDS  # the SimMetrics fields the run computes

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {MODELS}")
        unknown = [name for name in self.metrics if name not in SimMetrics.FIELDS]
        if isinstance(self.metrics, str) or unknown:
            raise ConfigError(f"metrics must name fields of {SimMetrics.FIELDS}, got {self.metrics!r}")
        if not 0.0 <= self.warmup < 1.0:
            raise ConfigError("warmup fraction must lie in [0, 1)")
        if self.rush_stat not in RUSH_STATS:
            raise ConfigError(f"rush_stat must be one of {RUSH_STATS}")
        if self.dest_rate is not None and not self.dest_rate > 0:
            raise ConfigError("dest_rate must be positive")
        if (self.horizon_requests or 0) < 0 or (self.horizon_s or 0) < 0:
            raise ConfigError("horizons must be non-negative")
        laws = [key for key in ("arrivals", "service1", "service2") if getattr(self, key) is not None]
        if laws and self.model != "two_phase_edge":
            raise ConfigError(f"{self.model} takes no renewal laws; drop {laws}")
        if self.model == "two_phase_edge":
            if self.queue is None:
                raise ConfigError(f"{self.model} requires a QueueSpec")
            if self.horizon_requests is None and self.horizon_s is None:
                raise ConfigError("set horizon_requests or horizon_s")
        elif self.model == "mtm1_sinusoidal":
            if self.profile is None or self.queue is None:
                raise ConfigError("mtm1_sinusoidal requires a SinusoidProfile and a QueueSpec")
            if self.horizon_s is None:
                raise ConfigError("mtm1_sinusoidal requires horizon_s")
            if self.bins_per_period < 1:
                raise ConfigError("bins_per_period must be >= 1")
        elif self.model == "mmk_cloud":
            if self.cloud is None:
                raise ConfigError("mmk_cloud requires a CloudSpec")
            if self.horizon_requests is None and self.horizon_s is None:
                raise ConfigError("set horizon_requests or horizon_s")


@dataclass
class TimeSeriesMetrics:
    """Per-cycle binned waits and rates, plus the rush-window statistic.

    Accumulators are kept raw (sums and counts) so replications pool
    exactly; ``bins`` and ``rush_window`` expose the spec-level view.
    ``window`` is the analytic overload window (t1, t2), None without
    overload. ``rush_sum``/``rush_count`` accumulate the waits of the
    requests arriving (``arrivals``) or finishing (``served``) inside it;
    ``peak_bin`` reads only the bins and leaves them at zero.
    """

    period: float
    bin_wait_sum: np.ndarray
    bin_count: np.ndarray
    bin_exposure: np.ndarray
    window: Optional[tuple[float, float]] = None
    rush_stat: str = "peak_bin"
    rush_sum: float = 0.0
    rush_count: int = 0

    @property
    def n_bins(self) -> int:
        return len(self.bin_count)

    @property
    def bin_centers(self) -> np.ndarray:
        w = self.period / self.n_bins
        return (np.arange(self.n_bins) + 0.5) * w

    @property
    def bins(self) -> list[tuple[float, float, float]]:
        """(t_center, mean_wait, mean_rate) per bin."""
        counts = np.maximum(self.bin_count, 1)
        waits = self.bin_wait_sum / counts
        rates = np.divide(
            self.bin_count, self.bin_exposure,
            out=np.zeros_like(self.bin_wait_sum), where=self.bin_exposure > 0,
        )
        return [
            (float(c), float(w), float(r))
            for c, w, r in zip(self.bin_centers, waits, rates)
        ]

    def rush_window(self) -> Optional[tuple[float, float, float]]:
        """(t1, t2, mean_wait_in_window) under the configured statistic.

        ``peak_bin`` reports the worst binned mean wait whose bin center
        falls inside the window -- the congestion peak the fluid drain
        estimate lower-bounds; ``arrivals``/``served`` average over the
        requests arriving (resp. finishing) inside the window.
        """
        if self.window is None:
            return None
        t1, t2 = self.window
        if self.rush_stat != "peak_bin":
            val = self.rush_sum / self.rush_count if self.rush_count else 0.0
        else:
            inside = np.mod(self.bin_centers - t1, self.period) <= t2 - t1
            inside &= self.bin_count > 0
            if not inside.any():
                val = 0.0
            else:
                val = float(np.max(self.bin_wait_sum[inside] / self.bin_count[inside]))
        return (t1, t2, val)

    def pooled_with(self, other: "TimeSeriesMetrics") -> "TimeSeriesMetrics":
        if self.n_bins != other.n_bins or self.period != other.period:
            raise ConfigError("cannot pool time series with different binning")
        if (self.window, self.rush_stat) != (other.window, other.rush_stat):
            raise ConfigError("cannot pool time series with different rush windows")
        return TimeSeriesMetrics(
            self.period,
            self.bin_wait_sum + other.bin_wait_sum,
            self.bin_count + other.bin_count,
            self.bin_exposure + other.bin_exposure,
            self.window,
            self.rush_stat,
            self.rush_sum + other.rush_sum,
            self.rush_count + other.rush_count,
        )


# ---------------------------------------------------------------------------
# Queue cores


def lindley_waits(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """FCFS single-server waits, starting empty.

    W_1 = 0 and W_{n+1} = max(0, W_n + S_n - A_{n+1}), evaluated as the
    reflected random walk so the whole run vectorizes.
    """
    n = len(arrivals)
    walk = np.empty(n)
    if n == 0:
        return walk
    walk[0] = 0.0
    steps = walk[1:]  # S_n - (A_{n+1} - A_n), summed in place into the walk
    np.subtract(arrivals[1:], arrivals[:-1], out=steps)
    np.subtract(services[:-1], steps, out=steps)
    np.cumsum(steps, out=steps)
    walk -= np.minimum.accumulate(walk)
    return walk


def multiserver_waits(arrivals: np.ndarray, services: np.ndarray, k: int) -> np.ndarray:
    """FCFS waits in front of k identical servers (next-free-server discipline)."""
    if k == 1:
        return lindley_waits(arrivals, services)
    free = [0.0] * k  # earliest availability per server
    heapq.heapify(free)
    waits = np.empty(len(arrivals))
    for i, (t, s) in enumerate(zip(arrivals, services)):
        soonest = free[0]
        w = soonest - t if soonest > t else 0.0
        waits[i] = w
        heapq.heapreplace(free, t + w + s)
    return waits


def _time_average_in_system(
    arrivals: np.ndarray, departures: np.ndarray, t0: float, t1: float
) -> float:
    """Exact time average of the number in system over [t0, t1].

    The area under N(t) is the sum of each request's overlap with the
    window, so no event sort is needed.
    """
    if t1 <= t0:
        return 0.0
    overlap = np.clip(departures, t0, t1)
    overlap -= np.clip(arrivals, t0, t1)
    return float(np.sum(overlap)) / (t1 - t0)


def _max_in_system(arrivals: np.ndarray, departures: np.ndarray) -> int:
    times = np.concatenate([arrivals, departures])
    deltas = np.concatenate([np.ones(len(arrivals)), -np.ones(len(departures))])
    order = np.argsort(times, kind="stable")
    return int(np.max(np.cumsum(deltas[order]), initial=0))


def _check_instability(config: SimConfig, arrivals, departures) -> None:
    if config.max_in_system is None:
        return
    peak = _max_in_system(arrivals, departures)
    if peak > config.max_in_system:
        raise InstabilityDetected(
            f"in-system count reached {peak} > cap {config.max_in_system}"
        )


def _bin_exposure(t0: float, t1: float, period: float, n_bins: int) -> np.ndarray:
    """Seconds of [t0, t1] mapped into each of n_bins cycle-phase bins."""
    width = period / n_bins
    exposure = np.full(n_bins, math.floor((t1 - t0) / period) * width)
    # remaining partial period [a, b) in phase coordinates
    a = t0 % period
    b = a + (t1 - t0) % period
    edges = np.arange(n_bins + 1) * width
    lo = np.clip(b - edges[:-1], 0.0, width) - np.clip(a - edges[:-1], 0.0, width)
    hi = np.clip(b - period - edges[:-1], 0.0, width)  # wrap-around part
    return exposure + lo + hi


EVENT_TYPES = ("arrival", "departure", "service_start")  # alphabetical: codes sort as the names do


def _write_event_log(path: str, *queues) -> None:
    """The events of ``(queue_id, ids, arrivals, starts, departures)`` queues as CSV.

    Rows are ordered by time, then event type, request id and queue id,
    which is the order of sorted (time, type, id, queue) tuples.
    """
    names = sorted({queue[0] for queue in queues})
    times, kinds, ids, queue_codes = [], [], [], []
    for queue_id, rid, arrivals, starts, departures in queues:
        for kind, when in enumerate((arrivals, departures, starts)):  # EVENT_TYPES order
            times.append(when)
            kinds.append(np.full(len(when), kind, np.intp))
            ids.append(rid)
            queue_codes.append(np.full(len(when), names.index(queue_id), np.intp))
    times, kinds, ids, queue_codes = (np.concatenate(col) for col in (times, kinds, ids, queue_codes))
    order = np.lexsort((queue_codes, ids, kinds, times))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_time", "event_type", "request_id", "queue_id"])
        writer.writerows(zip(
            [f"{x:.9g}" for x in times[order].tolist()],
            [EVENT_TYPES[k] for k in kinds[order].tolist()],
            ids[order].tolist(),
            [names[q] for q in queue_codes[order].tolist()],
        ))


def _p95(x: np.ndarray) -> float:
    """``np.percentile(x, 95)`` bit for bit, from one partition of ``x`` in place.

    numpy's linear method reads the order statistics at lo and lo + 1
    around the virtual index (n - 1) * 0.95 and blends them with its
    ``_lerp`` formula, which this repeats.
    """
    pos = (len(x) - 1) * 0.95
    lo = math.floor(pos)
    if lo >= len(x) - 1:
        return float(np.max(x))
    x.partition((lo, lo + 1))
    a, b, g = float(x[lo]), float(x[lo + 1]), pos - lo
    return b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g


WINDOWED = frozenset({"utilization_observed", "little_l", "window_duration"})  # read departures
PER_REQUEST = frozenset({"p95_response", "mean_sojourn"})  # read per-request sojourns


def _departures_read(config: SimConfig) -> bool:
    """Whether the instability check or a requested WINDOWED metric reads departures."""
    return config.max_in_system is not None or not WINDOWED.isdisjoint(config.metrics)


def _metrics(config: SimConfig, **values) -> SimMetrics:
    """SimMetrics with the fields ``config.metrics`` names, from ``values`` or 0; NaN elsewhere."""
    return SimMetrics(**{
        f: values.get(f, getattr(SimMetrics, f)) if f in config.metrics else math.nan
        for f in SimMetrics.FIELDS
    })


def _summarize(config, t, cut, rtt, mean_wait, busy, done=None, sojourn=None, servers=1, **extra) -> SimMetrics:
    """The requested metrics of one run from its per-request arrays in arrival order.

    ``busy`` holds server-held time, ``done`` departures and ``sojourn``
    time in system; requests before ``cut`` are the warm-up. ``done`` may
    be None unless a WINDOWED metric is requested, and ``sojourn`` unless
    a PER_REQUEST one is; ``sojourn`` is used up as scratch space.
    ``extra`` passes the model-specific fields.
    """
    want = config.metrics
    values = dict(extra, mean_wait=mean_wait, count_served=len(t) - cut)
    if "mean_response" in want:
        values["mean_response"] = rtt + mean_wait + float(np.mean(busy[cut:]))
    if not WINDOWED.isdisjoint(want):
        t0, t_end = float(t[cut]), float(np.max(done))
        window = t_end - t0
        values["window_duration"] = window
        if "utilization_observed" in want:
            values["utilization_observed"] = float(np.sum(busy[cut:])) / (servers * window) if window > 0 else 0.0
        if "little_l" in want:
            values["little_l"] = _time_average_in_system(t, done, t0, t_end)
    if not PER_REQUEST.isdisjoint(want):
        counted = sojourn[cut:]
        if "mean_sojourn" in want:
            values["mean_sojourn"] = float(np.mean(counted))
        if "p95_response" in want:
            counted += rtt
            values["p95_response"] = _p95(counted)
    return _metrics(config, **values)


# ---------------------------------------------------------------------------
# Model runners


def _draw_arrivals(config: SimConfig, rng) -> np.ndarray:
    spec = config.arrivals or RenewalSpec(1.0 / config.queue.lam)
    if config.horizon_requests is not None:
        n = int(config.horizon_requests)
        return np.cumsum(renewal_times(spec, n, rng))
    # horizon in seconds: draw in chunks until past the horizon
    out = []
    total = 0.0
    chunk = max(1024, int(config.horizon_s / spec.mean * 1.2))
    while total < config.horizon_s:
        t = total + np.cumsum(renewal_times(spec, chunk, rng))
        out.append(t)
        total = float(t[-1])
    t = np.concatenate(out) if out else np.empty(0)
    return t[t < config.horizon_s]


def run_two_phase_sim(config: SimConfig, stream: SeededStream) -> SimMetrics:
    """Tandem edge simulation; see module docstring for the metric contract."""
    config.validate()
    if config.model != "two_phase_edge":
        raise ConfigError(f"run_two_phase_sim cannot run model {config.model!r}")
    q = config.queue
    if not config.allow_unstable:
        q.check_stable()
    rng = stream.generator()

    t = _draw_arrivals(config, rng)
    n = len(t)
    if n == 0:
        return _metrics(config)
    mig = np.flatnonzero(rng.random(n) < q.r)  # migrants in arrival order
    s1 = renewal_times(config.service1 or RenewalSpec(1.0 / q.mu1), n, rng)
    if not math.isinf(q.mu2):
        s1[mig] += renewal_times(config.service2 or RenewalSpec(1.0 / q.mu2), len(mig), rng)

    w1 = lindley_waits(t, s1)
    dep1 = t + w1
    dep1 += s1
    if __debug__:
        # tolerance covers float cancellation in the reflected-walk form
        assert np.all(np.diff(dep1) >= -1e-9), "FCFS departures left order"

    # destination queue: migrated stream, optionally plus a home load
    dest_rate = config.dest_rate if config.dest_rate is not None else q.mu2
    t_mig = dep1[mig]
    if config.dest_home_load > 0 and len(dep1):
        home = poisson_arrivals(config.dest_home_load, float(dep1[-1]), rng)
        q2_t = np.concatenate([t_mig, home])
        from_mig = np.concatenate([np.ones(len(t_mig), bool), np.zeros(len(home), bool)])
        order = np.argsort(q2_t, kind="stable")
        q2_t, from_mig = q2_t[order], from_mig[order]
    else:
        q2_t, from_mig = t_mig, np.ones(len(t_mig), bool)
    if math.isinf(dest_rate):
        s2 = np.zeros(len(q2_t))
    else:
        s2 = rng.exponential(1.0 / dest_rate, len(q2_t))
    w2_all = lindley_waits(q2_t, s2)
    dep2_all = q2_t + w2_all + s2
    w2 = w2_all[from_mig]
    dep2 = dep2_all[from_mig]

    # per-request totals in arrival order, built only for what reads them
    sojourn = done = None
    if not PER_REQUEST.isdisjoint(config.metrics):
        sojourn = w1 + s1
        sojourn[mig] += w2
        sojourn[mig] += s2[from_mig]
    if _departures_read(config):
        done = dep1.copy()
        done[mig] = dep2
    _check_instability(config, t, done)

    if config.event_log:
        _write_event_log(
            config.event_log,
            ("edge", np.arange(n), t, t + w1, dep1),
            ("dest", mig, t_mig, t_mig + w2, dep2),
        )

    cut = int(n * config.warmup)
    w2c = w2[np.searchsorted(mig, cut):]  # destination waits of counted migrants
    mean_w2 = float(np.mean(w2c)) if len(w2c) else 0.0
    rtt = config.network.t_edge if config.network is not None else 0.0
    return _summarize(
        config, t, cut, rtt, float(np.mean(w1[cut:])) + mean_w2, s1, done, sojourn, count_migrated=len(w2c)
    )


def run_mtm1_sim(config: SimConfig, stream: SeededStream) -> tuple[SimMetrics, TimeSeriesMetrics]:
    """Sinusoidally driven single-server run with per-cycle binned waits."""
    config.validate()
    if config.model != "mtm1_sinusoidal":
        raise ConfigError(f"run_mtm1_sim cannot run model {config.model!r}")
    prof, q = config.profile, config.queue
    mu_eff = effective_service_rate(q.mu1, q.mu2, q.r)
    rng = stream.generator()

    t = nhpp_sinusoidal(prof, config.horizon_s, rng)
    n = len(t)
    period = prof.period
    n_bins = config.bins_per_period
    win = overload_window(prof, mu_eff)
    window = (win.t1, win.t2) if win is not None else None
    if n == 0:
        empty = TimeSeriesMetrics(
            period, np.zeros(n_bins), np.zeros(n_bins), np.zeros(n_bins), window, config.rush_stat
        )
        return _metrics(config), empty

    mig = None
    if config.two_stage_service:
        mig = np.flatnonzero(rng.random(n) < q.r)
        s = rng.exponential(1.0 / q.mu1, n)
        if not math.isinf(q.mu2):
            s[mig] += rng.exponential(1.0 / q.mu2, len(mig))
    else:
        s = rng.exponential(1.0 / mu_eff, n)
    w = lindley_waits(t, s)
    rush = window is not None and config.rush_stat != "peak_bin"
    dep = None
    if _departures_read(config) or config.event_log or rush and config.rush_stat == "served":
        dep = t + w
        dep += s
    _check_instability(config, t, dep)

    cut = int(n * config.warmup)
    tc, wc = t[cut:], w[cut:]

    # cycle phase as a bin index; fmod equals mod here because t >= 0
    idx = np.fmod(tc, period)
    idx /= period
    idx *= n_bins
    idx = idx.astype(np.intp)
    np.minimum(idx, n_bins - 1, out=idx)
    rush_sum, rush_count = 0.0, 0
    if rush:
        t1, t2 = window
        # the window may wrap the cycle, so tc - t1 can be negative: keep mod
        inside = np.mod((tc if config.rush_stat == "arrivals" else dep[cut:]) - t1, period) <= t2 - t1
        rush_sum, rush_count = float(np.sum(wc[inside])), int(np.count_nonzero(inside))
    ts = TimeSeriesMetrics(
        period,
        np.bincount(idx, weights=wc, minlength=n_bins),
        np.bincount(idx, minlength=n_bins).astype(float),
        _bin_exposure(float(tc[0]), float(tc[-1]), period, n_bins),
        window,
        config.rush_stat,
        rush_sum,
        rush_count,
    )

    if config.event_log:
        _write_event_log(config.event_log, ("edge", np.arange(n), t, t + w, dep))
    rtt = config.network.t_edge if config.network is not None else 0.0
    extra = {}
    if mig is not None and "count_migrated" in config.metrics:
        extra["count_migrated"] = len(mig) - int(np.searchsorted(mig, cut))
    sojourn = w + s if not PER_REQUEST.isdisjoint(config.metrics) else None
    metrics = _summarize(config, t, cut, rtt, float(np.mean(wc)), s, dep, sojourn, **extra)
    return metrics, ts


def run_mmk_sim(config: SimConfig, stream: SeededStream) -> SimMetrics:
    """M/M/k pool run; also reports the wait conditioned on being delayed."""
    config.validate()
    if config.model != "mmk_cloud":
        raise ConfigError(f"run_mmk_sim cannot run model {config.model!r}")
    cloud = config.cloud
    if not config.allow_unstable:
        cloud.check_stable()
    lam = cloud.arrival_rate
    rng = stream.generator()

    if lam == 0.0:
        return _metrics(config)
    if config.horizon_requests is not None:
        t = np.cumsum(renewal_times(RenewalSpec(1.0 / lam), int(config.horizon_requests), rng))
    else:
        t = poisson_arrivals(lam, config.horizon_s, rng)
    n = len(t)
    if n == 0:
        return _metrics(config)
    s = rng.exponential(1.0 / cloud.mu_cloud, n)
    w = multiserver_waits(t, s, cloud.k)
    dep = None
    if _departures_read(config) or config.event_log:
        dep = t + w
        dep += s
    _check_instability(config, t, dep)
    if config.event_log:
        _write_event_log(config.event_log, ("cloud", np.arange(n), t, t + w, dep))

    cut = int(n * config.warmup)
    wc = w[cut:]
    extra = {}
    if "mean_wait_conditional" in config.metrics:
        delayed = wc[wc > 0.0]
        extra["mean_wait_conditional"] = float(np.mean(delayed)) if len(delayed) else 0.0
    sojourn = w + s if not PER_REQUEST.isdisjoint(config.metrics) else None
    rtt = config.network.t_cloud if config.network is not None else 0.0
    return _summarize(config, t, cut, rtt, float(np.mean(wc)), s, dep, sojourn, servers=cloud.k, **extra)


def run_model(config: SimConfig, stream: SeededStream):
    """Dispatch on config.model; mtm1 returns (SimMetrics, TimeSeriesMetrics)."""
    if config.model == "two_phase_edge":
        return run_two_phase_sim(config, stream)
    if config.model == "mtm1_sinusoidal":
        return run_mtm1_sim(config, stream)
    return run_mmk_sim(config, stream)


# ---------------------------------------------------------------------------
# Replication


@dataclass
class Aggregate:
    """Across-run mean, standard error and normal 95% CI per requested metric."""

    n_runs: int
    mean: SimMetrics
    stderr: dict[str, float] = field(default_factory=dict)
    ci95: dict[str, float] = field(default_factory=dict)
    timeseries: Optional[TimeSeriesMetrics] = None


def replicate(config: SimConfig, n_runs: int, base_stream: SeededStream) -> Aggregate:
    """Run n_runs independent replications on substreams child(0..n-1).

    Aggregation uses compensated summation in run order, so a fixed base
    stream reproduces the aggregate bit for bit. With a single run the
    stderr and CI are reported as 0. Only the fields ``config.metrics``
    names are aggregated; the mean reads NaN in the others, and
    ``stderr``/``ci95`` hold only the named keys.
    """
    if n_runs < 1:
        raise ConfigError("n_runs must be >= 1")
    values: dict[str, list[float]] = {f: [] for f in SimMetrics.FIELDS if f in config.metrics}
    ts_pool: Optional[TimeSeriesMetrics] = None
    for i in range(n_runs):
        result = run_model(config, base_stream.child(i))
        if isinstance(result, tuple):
            metrics, ts = result
            ts_pool = ts if ts_pool is None else ts_pool.pooled_with(ts)
        else:
            metrics = result
        for f, vals in values.items():
            vals.append(float(getattr(metrics, f)))

    means, stderr, ci95 = {}, {}, {}
    for f, vals in values.items():
        m = math.fsum(vals) / n_runs
        means[f] = m
        if n_runs > 1:
            var = math.fsum((v - m) ** 2 for v in vals) / (n_runs - 1)
            stderr[f] = math.sqrt(var / n_runs)
        else:
            stderr[f] = 0.0
        ci95[f] = 1.96 * stderr[f]
    return Aggregate(n_runs, _metrics(config, **means), stderr, ci95, ts_pool)
