"""Deterministic discrete-event simulation of the validation queues.

Three models, each one FCFS station pass of the one runner, ``run_model``:

* ``two_phase_edge`` -- tandem pair: the edge's single server performs
  the mandatory phase and, for migrating requests, the migration phase
  back to back; the migrants then queue at a destination site, an edge
  server at ``mu1`` unless ``dest_rate`` is set; renewal inter-arrival
  and service laws are optional and set only a shape (scv and family):
  their means are 1/lam, 1/mu1 and 1/mu2 of ``queue``.
* ``mtm1_sinusoidal`` -- the edge's single server, at ``queue.mu_eff``,
  under a sinusoidal nonhomogeneous Poisson process, with per-cycle bins
  of the waits; ``TimeSeriesMetrics.peak_wait`` reads the worst bin in a
  window the caller picks. The profile's ``lambda_bar`` is the arrival
  rate, and ``queue.lam`` must equal it; a config file states it once,
  as ``edge.lambda``.
* ``mmk_cloud`` -- the cloud's k identical servers, with the wait of the
  delayed requests.

``load_sim_config`` reads an ``edgeq simulate`` file into a ``SimConfig``.
A field declared ``checked`` carries its domain: the loader casts the
field's key with it, and building a ``SimConfig`` casts every such field
again, naming the key, so a config built in Python is checked the same
way and no invalid config exists. The ``edge``, ``cloud``, ``network``
and ``workload`` sections are cast the same way by the fields of the
spec records they build, whose rate fields refuse a rate with no finite
reciprocal. ``MODEL_FIELDS`` names the ``SimConfig`` fields each model
requires and reads; a config refuses any other field set off its
default, a horizon other than exactly one, and, naming its key, a pool
whose arrival rate rho*k*mu is 0 (it would run no request) or too small
for a finite reciprocal. The simulator reads no closed form.

Single-server waits come from the vectorized Lindley recursion
(reflected random walk), which ``multiserver_waits`` runs at k = 1, so
one run handles millions of requests in milliseconds and is
bit-reproducible for a fixed stream. The walk streams through its run
one ``BLOCK`` at a time, and a single exponential server whose services
nothing else reads (the sinusoidal edge in one stage, the pool at k = 1)
has them drawn block by block inside the walk, with the bits and stream
use of one draw of them all.

The runner ends in one metric layer, ``_summarize``. It computes only
the ``SimMetrics`` fields that ``SimConfig.metrics`` names (all of them
by default), and the others read NaN. A run builds its service,
departure and sojourn arrays only when a named field, the instability
check, the event log or the destination reads them. The first
``int(n * warmup)`` requests are a warm-up and are not counted. The
window runs from the first counted arrival to the last departure, and
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
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Optional

import numpy as np

from .config import (
    REQUIRED, check, checked, count, finite_nonnegative, finite_positive, flag, fraction, listed, ranged, rate,
    read, table_of, take, text, whole,
)
from .errors import ConfigError, InstabilityDetected
from .specs import CloudSpec, NetworkSpec, QueueSpec, SinusoidProfile
from .workload import (
    BLOCK, RenewalSpec, SeededStream, coin_flips, exponential_fill, nhpp_sinusoidal, poisson_arrivals,
    renewal_arrivals, renewal_times,
)

# model -> (the SimConfig fields it requires, the others it reads besides
# READ_BY_ALL). Any other field must keep its default: no setting is dropped unread.
READ_BY_ALL = ("model", "warmup", "network", "max_in_system", "event_log", "metrics")
MODEL_FIELDS = {
    "two_phase_edge": (("queue",), ("arrivals", "service1", "service2", "horizon_requests", "horizon_s",
                                    "dest_rate", "dest_home_load", "allow_unstable")),
    "mtm1_sinusoidal": (("queue", "profile", "horizon_s"), ("two_stage_service", "bins_per_period")),
    "mmk_cloud": (("cloud",), ("horizon_requests", "horizon_s", "allow_unstable")),
}
MODELS = tuple(MODEL_FIELDS)
# the ``edgeq simulate`` config key of each field outside its ``simulation`` section
CONFIG_KEYS = {
    "model": "model", "queue": "edge", "cloud": "cloud", "network": "network", "profile": "workload.profile",
    "arrivals": "workload.arrivals", "service1": "workload.service1", "service2": "workload.service2",
}


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


def _key(name: str) -> str:
    """How an error names the SimConfig field ``name``: its ``simulate`` config key, then the field."""
    if name == "metrics":  # set from Python only: no config file has the key
        return "SimConfig.metrics"
    return f"{CONFIG_KEYS.get(name, 'simulation.' + name)} (SimConfig.{name})"


@dataclass(frozen=True)
class SimConfig:
    """One simulation run description; see module docstring for models and ``checked`` fields."""

    model: str = checked(REQUIRED, ranged(str, MODELS.__contains__, f"one of {MODELS}"))
    queue: Optional[QueueSpec] = None
    cloud: Optional[CloudSpec] = None
    profile: Optional[SinusoidProfile] = None
    arrivals: Optional[RenewalSpec] = None     # inter-arrival law
    service1: Optional[RenewalSpec] = None     # phase-1 law
    service2: Optional[RenewalSpec] = None     # phase-2 law
    horizon_requests: Optional[int] = checked(None, whole)
    horizon_s: Optional[float] = checked(None, finite_nonnegative)
    warmup: float = checked(0.1, fraction)
    network: Optional[NetworkSpec] = None
    dest_rate: Optional[float] = checked(None, rate)  # destination service rate, default mu1
    dest_home_load: float = checked(0.0, finite_nonnegative)  # extra Poisson rate offered to queue 2
    two_stage_service: bool = checked(False, flag)  # explicit phase-1 + phase-2 stages
    bins_per_period: int = checked(100, count)
    allow_unstable: bool = checked(False, flag)
    max_in_system: Optional[int] = checked(None, whole)  # instability heuristic cap
    event_log: Optional[str] = checked(None, text)
    metrics: tuple[str, ...] = checked(SimMetrics.FIELDS, ranged(  # the SimMetrics fields the run computes
        listed, lambda names: set(names) <= set(SimMetrics.FIELDS), f"fields of {SimMetrics.FIELDS}"
    ))

    def __post_init__(self):
        check(self, _key, ConfigError)
        required, reads = MODEL_FIELDS[self.model]
        for f in fields(self):
            value = getattr(self, f.name)
            missing = value is None and f.name in required
            if missing or value != f.default and f.name not in required + reads + READ_BY_ALL:
                key = _key(f.name)
                raise ConfigError(f"{self.model} requires {key}" if missing else f"{self.model} does not read {key}")
        if self.profile is not None and self.queue.lam != self.profile.lambda_bar:
            raise ConfigError(f"SimConfig.queue.lam {self.queue.lam!r} != SimConfig.profile.lambda_bar {self.profile.lambda_bar!r}")
        if (self.horizon_requests is None) == (self.horizon_s is None):
            raise ConfigError("set exactly one of simulation.horizon_requests, simulation.horizon_s")
        pool = self.cloud  # CloudSpec keeps rho 0 for Erlang C, but a pool whose rho*k*mu is 0 would run no request
        if pool is not None and not (pool.arrival_rate > 0.0 and 1.0 / pool.arrival_rate < math.inf):
            need = "> 0" if pool.arrival_rate == 0.0 else "large enough for a finite reciprocal"
            raise ConfigError(f"cloud.rho (SimConfig.cloud): the arrival rate rho*k*mu must be {need}, "
                              f"got {pool.arrival_rate!r} at rho {pool.rho_cloud!r}")


# ---------------------------------------------------------------------------
# ``edgeq simulate`` config files

# a sinusoid's frequency: ``gamma_rad_s`` or ``period_s``, from which ``config.take`` derives it
FREQUENCY = {
    **table_of(SinusoidProfile, ("gamma_rad_s", "gamma"), gamma_rad_s=None), "period_s": (finite_positive, None),
}
_PROFILE = {**table_of(SinusoidProfile, "amplitude", "phase"), **FREQUENCY}  # its mean rate is edge.lambda
_RENEWAL = table_of(RenewalSpec, "scv", "family")


_CONFIG = {
    **table_of(SimConfig, "model"),
    "edge": (table_of(QueueSpec, ("lambda", "lam"), "mu1", "mu2", "r"), None),
    "cloud": (table_of(CloudSpec, "k", ("mu", "mu_cloud"), ("rho", "rho_cloud")), None),
    "network": (table_of(NetworkSpec, ("t_edge_s", "t_edge"), ("t_cloud_s", "t_cloud")), None),
    "workload": ({"profile": (_PROFILE, None), "arrivals": (_RENEWAL, None),
                  "service1": (_RENEWAL, None), "service2": (_RENEWAL, None)}, {}),
    "simulation": ({
        **table_of(
            SimConfig, "horizon_requests", "horizon_s", "warmup", "bins_per_period", "two_stage_service",
            "dest_rate", "dest_home_load", "allow_unstable", "max_in_system", "event_log",
        ),
        "seed": (whole, None),
        "reps": (count, 1),
    }, {}),
    "output": ({"dir": (text, "."), "deterministic_names": (flag, False), "name": (text, None)}, {}),
}


def load_sim_config(raw) -> tuple[SimConfig, dict]:
    """Check a ``simulate`` config; returns (SimConfig, resolved config).

    The resolved config lists every value the run uses, defaults
    included; loading it again gives the same pair. A key outside its
    spec field's domain raises ConfigError naming the key, and a renewal
    law whose family cannot reach its scv names the law. The profile's
    mean rate is ``edge.lambda``, so a profile needs the ``edge`` section.
    """
    cfg = take(raw, _CONFIG, "config")
    edge, cloud, net, wl = cfg["edge"], cfg["cloud"], cfg["network"], cfg["workload"]
    profile = wl["profile"]
    if profile and not edge:
        raise ConfigError("config.workload.profile: its mean rate is edge.lambda, and edge is not set")
    config = SimConfig(
        model=cfg["model"],
        queue=edge and read("config.edge", lambda e: QueueSpec(e["lambda"], e["mu1"], e["mu2"], e["r"]), edge),
        cloud=cloud and CloudSpec(cloud["k"], cloud["mu"], cloud["rho"]),
        network=net and NetworkSpec(net["t_edge_s"], net["t_cloud_s"]),
        profile=profile and SinusoidProfile(
            edge["lambda"], profile["amplitude"], profile["gamma_rad_s"], profile["phase"]
        ),
        **{key: wl[key] and read(f"config.workload.{key}", lambda law: RenewalSpec(**law), wl[key])
           for key in ("arrivals", "service1", "service2")},
        **{key: value for key, value in cfg["simulation"].items() if key not in ("seed", "reps")},
    )
    return config, cfg


@dataclass
class TimeSeriesMetrics:
    """Per-cycle binned waits and rates.

    Accumulators are kept raw (sums and counts) so replications pool
    exactly; ``bins`` and ``peak_wait`` expose the spec-level view.
    """

    period: float
    bin_wait_sum: np.ndarray
    bin_count: np.ndarray
    bin_exposure: np.ndarray

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

    def peak_wait(self, t1: float, t2: float) -> float:
        """The worst binned mean wait whose bin center lies in the window [t1, t2], taken mod the period.

        Over a rush window, that peak bin is the congestion peak the fluid
        drain estimate lower-bounds; it reads 0 when no request arrived in
        a bin of the window.
        """
        inside = np.mod(self.bin_centers - t1, self.period) <= t2 - t1
        inside &= self.bin_count > 0
        return float(np.max(self.bin_wait_sum[inside] / self.bin_count[inside])) if inside.any() else 0.0

    def pooled_with(self, other: "TimeSeriesMetrics") -> "TimeSeriesMetrics":
        if self.n_bins != other.n_bins or self.period != other.period:
            raise ConfigError("cannot pool time series with different binning")
        return TimeSeriesMetrics(
            self.period,
            self.bin_wait_sum + other.bin_wait_sum,
            self.bin_count + other.bin_count,
            self.bin_exposure + other.bin_exposure,
        )


# ---------------------------------------------------------------------------
# Queue cores


def lindley_waits(arrivals: np.ndarray, services) -> np.ndarray:
    """FCFS single-server waits, starting empty.

    W_1 = 0 and W_{n+1} = max(0, W_n + S_n - A_{n+1}), evaluated as the
    reflected random walk so the whole run vectorizes. ``services`` is the
    array of service times in arrival order, or a function that fills a
    float64 buffer with the next ones (``workload.exponential_fill``).

    The walk is built one ``BLOCK`` of requests at a time: each block's
    steps are summed by ``cumsum`` in place after the previous block's
    last walk value is added to its first step, and reflected by the
    running minimum carried from block to block. Both equal one pass over
    the run bit for bit, so a block stays in L2 from its steps to its
    waits, and a drawn run holds no services array as long as itself.
    """
    n = len(arrivals)
    walk = np.empty(n)
    if n == 0:
        return walk
    walk[0] = 0.0
    least = np.empty(min(n, BLOCK))  # one block's running minimum
    drawn = np.empty_like(least) if callable(services) else None
    low = total = 0.0  # the walk's minimum so far (walk[0] included) and its last unreflected value
    for lo in range(0, n, BLOCK):
        hi = min(lo + BLOCK, n)
        if drawn is None:
            block = services[lo:hi]
        else:
            block = drawn[:hi - lo]
            services(block)  # the last request's service is drawn too, as one draw of all n would
        steps = walk[lo + 1:hi + 1]  # S_j - (A_{j+1} - A_j) for the block's requests j, summed in place
        m = len(steps)
        if m == 0:
            break
        np.subtract(arrivals[lo + 1:lo + 1 + m], arrivals[lo:lo + m], out=steps)
        np.subtract(block[:m], steps, out=steps)
        if lo:
            steps[0] += total
        np.cumsum(steps, out=steps)
        total = steps[-1]
        running = least[:m]
        np.minimum.accumulate(steps, out=running)
        np.minimum(running, low, out=running)
        low = running[-1]
        steps -= running
    return walk


def multiserver_waits(arrivals: np.ndarray, services: np.ndarray, k: int) -> np.ndarray:
    """FCFS waits in front of k identical servers (next-free-server discipline)."""
    if k == 1:
        return lindley_waits(arrivals, services)
    free = [0.0] * k  # earliest availability per server, a heap
    waits = []
    append, replace = waits.append, heapq.heapreplace
    for t, s in zip(arrivals.tolist(), services.tolist()):  # Python floats: no numpy scalar per step
        soonest = free[0]
        w = soonest - t if soonest > t else 0.0
        append(w)
        replace(free, t + w + s)
    return np.array(waits)


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


WINDOWED = frozenset({"utilization_observed", "little_l", "window_duration"})  # read departures
PER_REQUEST = frozenset({"p95_response", "mean_sojourn"})  # read per-request sojourns


def _departures_read(config: SimConfig) -> bool:
    """Whether the instability check or a requested WINDOWED metric reads departures."""
    return config.max_in_system is not None or not WINDOWED.isdisjoint(config.metrics)


def _services_read(config: SimConfig) -> bool:
    """Whether anything past the walk reads the per-request services: departures, the event log or a metric."""
    read_by = PER_REQUEST | {"mean_response"}
    return _departures_read(config) or bool(config.event_log) or not read_by.isdisjoint(config.metrics)


def _metrics(config: SimConfig, **values) -> SimMetrics:
    """SimMetrics with the fields ``config.metrics`` names, from ``values`` or 0; NaN elsewhere."""
    return SimMetrics(**{
        f: values.get(f, getattr(SimMetrics, f)) if f in config.metrics else math.nan
        for f in SimMetrics.FIELDS
    })


def _summarize(config, t, cut, rtt, mean_wait, busy, done=None, sojourn=None, servers=1, **extra) -> SimMetrics:
    """The requested metrics of one run from its per-request arrays in arrival order.

    ``busy`` holds server-held time, ``done`` departures and ``sojourn``
    time in system; requests before ``cut`` are the warm-up. ``busy`` may
    be None unless ``mean_response`` or a WINDOWED metric is requested,
    ``done`` unless a WINDOWED one is, and ``sojourn`` unless a
    PER_REQUEST one is; ``sojourn`` is used up as scratch space.
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
            values["p95_response"] = float(np.percentile(counted, 95))
    return _metrics(config, **values)


# ---------------------------------------------------------------------------
# The runner


def _draw_arrivals(config: SimConfig, rng, rate: float, law: Optional[RenewalSpec] = None) -> np.ndarray:
    """Arrival instants, in order, over the horizon that is set.

    The NHPP of ``config.profile`` if set; else renewals of ``law`` at
    ``rate`` or, without one, Poisson arrivals at ``rate``.
    """
    if config.profile is not None:
        return nhpp_sinusoidal(config.profile, config.horizon_s, rng)
    mean = 1.0 / rate
    if config.horizon_requests is not None:
        return np.cumsum(renewal_times(law or RenewalSpec(), mean, int(config.horizon_requests), rng))
    if law is None:
        return poisson_arrivals(rate, config.horizon_s, rng)
    return renewal_arrivals(law, mean, config.horizon_s, rng)


def _phase_services(config: SimConfig, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """(migrants in arrival order, service times): phase 1 for all, plus phase 2 for migrants."""
    q = config.queue
    mig = np.flatnonzero(coin_flips(q.r, n, rng))
    s = renewal_times(config.service1 or RenewalSpec(), 1.0 / q.mu1, n, rng)
    if not math.isinf(q.mu2):
        s[mig] += renewal_times(config.service2 or RenewalSpec(), 1.0 / q.mu2, len(mig), rng)
    return mig, s


def _destination(config: SimConfig, rng, t_mig: np.ndarray, horizon: float):
    """The migrants' (waits, services, departures) at the destination site.

    One FCFS server at ``dest_rate`` takes the migrants, arriving in order
    at ``t_mig``, and a Poisson home load of ``dest_home_load`` over
    [0, horizon). Unset, ``dest_rate`` is ``mu1``: the destination is an
    ordinary edge site, as in ``analytic.destination_wait``.
    """
    if __debug__:
        # tolerance covers float cancellation in the reflected-walk form
        assert np.all(np.diff(t_mig) >= -1e-9), "FCFS departures left order"
    t, mine = t_mig, slice(None)
    if config.dest_home_load > 0:
        t = np.concatenate([t_mig, poisson_arrivals(config.dest_home_load, horizon, rng)])
        order = np.argsort(t, kind="stable")
        t, mine = t[order], order < len(t_mig)
    rate = config.queue.mu1 if config.dest_rate is None else config.dest_rate
    s = np.zeros(len(t)) if math.isinf(rate) else renewal_times(RenewalSpec(), 1.0 / rate, len(t), rng)
    w = lindley_waits(t, s)
    return w[mine], s[mine], (t + w + s)[mine]


def run_model(config: SimConfig, stream: SeededStream) -> tuple[SimMetrics, Optional[TimeSeriesMetrics]]:
    """One run of ``config.model``: (metrics, time series or None).

    One FCFS station pass: the edge's single server or the cloud's k-server
    pool. The tandem then sends its migrants through ``_destination``. A
    profile returns the per-cycle bins; the pool also reports the wait
    conditioned on being delayed.
    """
    q, pool, prof, net = config.queue, config.cloud, config.profile, config.network
    tandem = config.model == "two_phase_edge"
    if prof is None and not config.allow_unstable:  # a sinusoid may overload the edge for part of each cycle
        (q if pool is None else pool).check_stable()
    if pool is not None:
        k, mu, rate, queue_id = pool.k, pool.mu_cloud, pool.arrival_rate, "cloud"
    else:
        k, mu, rate, queue_id = 1, q.mu_eff, q.lam, "edge"
    rtt = 0.0 if net is None else net.t_cloud if pool is not None else net.t_edge
    ts = None
    if prof is not None:
        n_bins = config.bins_per_period
        ts = TimeSeriesMetrics(prof.period, np.zeros(n_bins), np.zeros(n_bins), np.zeros(n_bins))
    rng = stream.generator()

    # The tandem always passes a renewal law, so over horizon_s it draws exponential
    # renewals, not poisson_arrivals: that draw order is fixed by stream format 0.2.0.
    t = _draw_arrivals(config, rng, rate, (config.arrivals or RenewalSpec()) if tandem else None)
    n = len(t)
    if n == 0:
        return _metrics(config), ts
    mig = None
    if tandem or config.two_stage_service:
        mig, s = _phase_services(config, n, rng)
    elif k == 1 and not _services_read(config):
        s = None  # drawn one block at a time inside the walk
    else:
        s = renewal_times(RenewalSpec(), 1.0 / mu, n, rng)
    w = lindley_waits(t, exponential_fill(1.0 / mu, rng)) if s is None else multiserver_waits(t, s, k)
    dep = None
    if tandem or _departures_read(config) or config.event_log:
        dep = t + w
        dep += s
    done = dep
    if tandem:
        t_mig = dep[mig]
        w2, s2, dep2 = _destination(config, rng, t_mig, float(dep[-1]))
        if _departures_read(config):
            done = dep.copy()
            done[mig] = dep2
    _check_instability(config, t, done)
    if config.event_log:
        dest = [("dest", mig, t_mig, t_mig + w2, dep2)] if tandem else []
        _write_event_log(config.event_log, (queue_id, np.arange(n), t, t + w, dep), *dest)

    cut = int(n * config.warmup)
    wc = w[cut:]
    mean_wait = float(np.mean(wc))
    extra = {}
    if mig is not None:
        first = int(np.searchsorted(mig, cut))  # the first counted migrant
        extra["count_migrated"] = len(mig) - first
        if tandem and first < len(mig):
            mean_wait += float(np.mean(w2[first:]))  # the destination wait per counted migrant
    if ts is not None:
        _observe_cycle(ts, t[cut:], wc)
    if pool is not None and "mean_wait_conditional" in config.metrics:
        delayed = np.compress(wc > 0.0, wc)
        extra["mean_wait_conditional"] = float(np.mean(delayed)) if len(delayed) else 0.0
    sojourn = None
    if not PER_REQUEST.isdisjoint(config.metrics):
        sojourn = w + s
        if tandem:
            sojourn[mig] += w2
            sojourn[mig] += s2
    return _summarize(config, t, cut, rtt, mean_wait, s, done, sojourn, servers=k, **extra), ts


def _observe_cycle(ts: TimeSeriesMetrics, tc: np.ndarray, wc: np.ndarray) -> None:
    """Bin the counted waits, in arrival order, by cycle phase into ``ts``.

    The bins are taken one ``BLOCK`` of requests at a time, so no bin
    index is as long as the run. A block's index repeats the bin of each
    of its runs (``_phase_runs``), whose lengths also give the counts;
    where the runs do not settle, it is ``_phase_bin`` of each request.
    ``np.add.at`` adds each block's waits in request order, which is the
    order ``np.bincount`` adds them in, so the sums equal one
    ``bincount`` over the run bit for bit.
    """
    period, n_bins = ts.period, ts.n_bins
    ts.bin_wait_sum = np.zeros(n_bins)
    runs = _phase_runs(tc, period, n_bins)
    counts = np.zeros(n_bins)
    for block, lo in enumerate(range(0, len(tc), BLOCK)):
        if runs is None:
            idx = _phase_bin(tc[lo:lo + BLOCK], period, n_bins)
            counts += np.bincount(idx, minlength=n_bins)
        else:
            bins, sizes, first = runs
            mine = slice(first[block], first[block + 1])
            idx = np.repeat(bins[mine], sizes[mine])
        np.add.at(ts.bin_wait_sum, idx, wc[lo:lo + BLOCK])
    ts.bin_count = counts if runs is None else np.bincount(runs[0], weights=runs[1], minlength=n_bins)
    ts.bin_exposure = _bin_exposure(float(tc[0]), float(tc[-1]), period, n_bins)


def _phase_bin(t: np.ndarray, period: float, n_bins: int) -> np.ndarray:
    """The cycle-phase bin of each instant ``t >= 0``; fmod equals mod there."""
    idx = np.fmod(t, period)
    idx /= period
    idx *= n_bins
    idx = idx.astype(np.intp)
    return np.minimum(idx, n_bins - 1, out=idx)


def _cycle_key(t: np.ndarray, period: float, n_bins: int) -> np.ndarray:
    """cycle * n_bins + ``_phase_bin`` of each instant, as floats: the cycle ``t // period`` goes with the bin's fmod."""
    key = np.floor_divide(t, period)
    key *= n_bins
    key += _phase_bin(t, period, n_bins)
    return key


def _phase_runs(tc: np.ndarray, period: float, n_bins: int):
    """The sorted instants ``tc`` as runs of one bin, each cut where a ``BLOCK`` ends, or None.

    Returns (the bin of each run, its length, the index of each block's
    first run and one past the last). ``_cycle_key`` never falls as t
    grows, so each key holds one run of ``tc``, which starts where a
    search puts the rounded edge of its key. A run whose first and last
    instants have its key holds only that key. Where one does not settle
    so, where the keys outnumber the instants or a block, or where the
    cycle is too large for an exact float quotient, the result is None
    and the caller bins each instant. Counting the keys against a block
    keeps every array here a block long, plus one entry per block.
    """
    first, last = _cycle_key(tc[[0, -1]], period, n_bins)
    if not (last - first < min(len(tc), BLOCK) and last < 2.0**50):  # also false for an infinite quotient
        return None
    keys = np.arange(int(first), int(last) + 1)
    starts = np.searchsorted(tc, keys * (period / n_bins))
    starts[0] = 0
    cuts = np.arange(BLOCK, len(tc), BLOCK)
    keys = np.concatenate([keys, keys[np.searchsorted(starts, cuts, "right") - 1]])  # the run each cut splits
    starts = np.concatenate([starts, cuts])
    order = np.argsort(starts, kind="stable")
    keys, starts = keys[order], starts[order]
    sizes = np.diff(starts, append=len(tc))
    held = np.flatnonzero(sizes)
    for at in (starts[held], starts[held] + sizes[held] - 1):  # each run's first and last instant
        if not np.array_equal(_cycle_key(tc[at], period, n_bins), keys[held]):
            return None
    return keys % n_bins, sizes, np.concatenate([[0], np.searchsorted(starts, cuts), [len(keys)]])


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
    ``stderr``/``ci95`` hold only the named keys. Only replication 0
    writes the event log, the log of a one-run replicate on that stream.
    """
    n_runs = read("n_runs", count, n_runs)
    values: dict[str, list[float]] = {f: [] for f in SimMetrics.FIELDS if f in config.metrics}
    ts_pool: Optional[TimeSeriesMetrics] = None
    unlogged = replace(config, event_log=None)
    for i in range(n_runs):
        metrics, ts = run_model(unlogged if i else config, base_stream.child(i))
        if ts is not None:
            ts_pool = ts if ts_pool is None else ts_pool.pooled_with(ts)
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
