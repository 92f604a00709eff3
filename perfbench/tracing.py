"""Span tracing of edgeq's layers from outside the package.

The tracer wraps the functions at each layer boundary of edgeq (every
public function of ``analytic``, and the entry points of ``workload``,
``specs``, ``desim``, ``capacity``, ``harness`` and ``cli`` listed in
``TARGETS``, including the two sampling copies in ``desim``) and records
one span per call: name, start, end, parent span id, run id, a work count
and a result value. Spans are kept in memory; ``write_spans`` writes them
once, at the end of the run.

Each wrapper is installed wherever the name is looked up: every edgeq
module attribute that holds the original function is replaced, so
``edgeq.harness.replicate`` is wrapped as well as ``edgeq.desim.replicate``,
and the analytic names ``desim`` imports directly are wrapped too. A name
that no longer exists is skipped, so its metrics read zero instead of the
run failing. ``installed`` restores every original on exit.

Draws are counted through a proxy over the generator that
``SeededStream.generator`` returns; the proxy forwards every call
unchanged, so traced runs produce the same numbers as untraced ones.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, RUN, N, VALUE = range(7)

RUNNERS = ("desim.run_two_phase_sim", "desim.run_mmk_sim", "desim.run_mtm1_sim")
WAITS = ("desim.lindley_waits", "desim.multiserver_waits")


class Tracer:
    """In-memory span store; parent links follow the calling thread's open spans.

    A span opened on a worker thread with nothing open on that thread takes
    the innermost span open on the main thread as its parent: the harness's
    pool threads run while the main thread waits inside ``run_scenario``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else -1)
        with self._lock:
            sid = len(self.spans)
            self.spans.append([name, perf_counter(), 0.0, parent, self.run_id, 0, 0])
        stack.append(sid)
        return sid

    def close(self, sid: int, end: float, n=0, value=0) -> None:
        span = self.spans[sid]
        span[END], span[N], span[VALUE] = end, n, value
        self._stack().pop()


def _traced(tracer: Tracer, name: str, fn, measure=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid, perf_counter())
            raise
        end = perf_counter()
        n = value = 0
        if measure is not None:
            try:
                n, value = measure(args, kwargs, result)
            except (AttributeError, IndexError, TypeError):
                pass  # a changed signature loses the count, not the run
        tracer.close(sid, end, n, value)
        return result

    return wrapper


class _DrawCounter:
    """Forwards to a numpy Generator; every method call is a ``workload.draw`` span.

    The span's count is the number of variates returned. A scalar Poisson
    draw also stores its value, which is the candidate count of a thinning
    pass.
    """

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, attr):
        target = getattr(self._rng, attr)
        if not callable(target):
            return target
        scalar_poisson = attr == "poisson"

        def drawn(args, kwargs, out):
            return int(np.size(out)), int(out) if scalar_poisson and np.ndim(out) == 0 else 0

        return _traced(self._tracer, "workload.draw", target, drawn)


def _elements(args, kwargs, result):
    return len(args[0]), 0


def _counted(args, kwargs, result):
    metrics = result[0] if isinstance(result, tuple) else result
    return 0, float(metrics.count_served)


def _kept(args, kwargs, result):
    return 0, len(result)


def _packing(args, kwargs, result):
    return len(args[0]), result.rejected_or_queued


def _file_bytes(args, kwargs, result):
    return len(result), sum(Path(p).stat().st_size for p in result if Path(p).is_file())


# (module, attribute, span name, measure); a dotted attribute is a class attribute
TARGETS = [
    ("edgeq.desim", "run_two_phase_sim", "desim.run_two_phase_sim", _counted),
    ("edgeq.desim", "run_mmk_sim", "desim.run_mmk_sim", _counted),
    ("edgeq.desim", "run_mtm1_sim", "desim.run_mtm1_sim", _counted),
    ("edgeq.desim", "lindley_waits", "desim.lindley_waits", _elements),
    ("edgeq.desim", "multiserver_waits", "desim.multiserver_waits", _elements),
    ("edgeq.desim", "replicate", "desim.replicate", None),
    ("edgeq.desim", "_renewal_draws", "workload.renewal", None),
    ("edgeq.desim", "_nhpp_with_rng", "workload.nhpp", _kept),
    ("edgeq.workload", "renewal_times", "workload.renewal", None),
    ("edgeq.workload", "nhpp_sinusoidal", "workload.nhpp", _kept),
    ("edgeq.specs", "SinusoidProfile.rate", "specs.rate", None),
    ("edgeq.capacity", "synthetic_vm_trace", "capacity.synthetic_vm_trace", None),
    ("edgeq.capacity", "simulate_packing", "capacity.simulate_packing", _packing),
    ("edgeq.capacity", "capacity_sweep", "capacity.capacity_sweep", None),
    ("edgeq.harness", "run_scenario", "harness.run_scenario", None),
    ("edgeq.harness", "write_outputs", "harness.write_outputs", _file_bytes),
    ("edgeq.cli", "main", "cli.main", None),
]


def _targets():
    yield from TARGETS
    analytic = sys.modules.get("edgeq.analytic")
    if analytic is not None:
        for name, fn in vars(analytic).items():
            if inspect.isfunction(fn) and fn.__module__ == analytic.__name__ and not name.startswith("_"):
                yield "edgeq.analytic", name, f"analytic.{name}", None


def _edgeq_modules():
    return [m for name, m in list(sys.modules.items()) if name == "edgeq" or name.startswith("edgeq.")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block, then restore the originals."""
    patches = []  # (owner, attribute, original)

    def patch(owner, attr, new):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        for modname, path, span, measure in list(_targets()):
            try:
                owner = importlib.import_module(modname)
                *classes, attr = path.split(".")
                for cls in classes:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue  # deleted or renamed: zero calls
            wrapper = _traced(tracer, span, original, measure)
            if classes:
                patch(owner, attr, wrapper)
            else:
                for module in _edgeq_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patch(module, key, wrapper)
        stream_cls = getattr(sys.modules.get("edgeq.workload"), "SeededStream", None)
        make = vars(stream_cls).get("generator") if stream_cls is not None else None
        if make is not None:
            counted = _traced(tracer, "workload.generator", lambda self: _DrawCounter(make(self), tracer))
            patch(stream_cls, "generator", counted)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["span_id", "name", "start_s", "end_s", "parent_id", "run_id", "n", "value"])
        for sid, s in enumerate(spans):
            out.writerow([sid, s[NAME], repr(s[START]), repr(s[END]), s[PARENT], s[RUN], s[N], s[VALUE]])


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def _p50_tail(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0.0
    pct = next((p for p in (99.9, 99.0, 95.0, 90.0, 75.0) if n * (1.0 - p / 100.0) >= 10), 50.0)
    return statistics.median(values), float(np.percentile(values, pct)), pct


def layer_metrics(spans, jobs: int, workers: int, cli_bytes: float, overhead_frac: float) -> dict:
    """Per-layer metrics from the spans of ``jobs`` traced jobs; times and counts are per job.

    ``cli_bytes`` is what the jobs' ``edgeq`` commands wrote, which the
    spans do not see.
    """
    dur = [s[END] - s[START] for s in spans]
    children: dict[int, list[int]] = {}
    for sid, s in enumerate(spans):
        children.setdefault(s[PARENT], []).append(sid)

    def self_time(sid):
        s = spans[sid]
        inner = [(max(spans[c][START], s[START]), min(spans[c][END], s[END])) for c in children.get(sid, [])]
        return dur[sid] - _covered([iv for iv in inner if iv[1] > iv[0]])

    by_name: dict[str, list[int]] = {}
    for sid, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(sid)

    def ids(*names):
        return [sid for name in names for sid in by_name.get(name, [])]

    def ms(*names):
        return 1e3 * sum(dur[i] for i in ids(*names)) / jobs

    def self_ms(name):
        return 1e3 * sum(self_time(i) for i in ids(name)) / jobs

    def count(name, field=N):
        return sum(spans[i][field] for i in ids(name))

    def has_ancestor(sid, name):
        parent = spans[sid][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == name:
                return True
            parent = spans[parent][PARENT]
        return False

    def per(num, den):
        return num / den if den else 0.0

    m = {}
    for name in RUNNERS:
        m[f"{name}.self_ms"] = self_ms(name)
    run_p50, run_tail, run_pct = _p50_tail([1e3 * dur[i] for i in ids(*RUNNERS)])
    m["desim.run.p50_ms"] = run_p50
    m["desim.run.tail_ms"] = run_tail
    m["desim.run.tail_pct"] = run_pct
    m["desim.run.count"] = len(ids(*RUNNERS)) / jobs

    # arrivals of a run: the length of the first queue it solves
    counted = arrivals = 0.0
    for sid in ids(*RUNNERS):
        first = next((c for c in children.get(sid, []) if spans[c][NAME] in WAITS), None)
        if first is not None:
            counted += spans[sid][VALUE]
            arrivals += spans[first][N]
    m["desim.counted_ratio"] = per(counted, arrivals)

    for name in WAITS:
        elems = count(name)
        m[f"{name}.ms"] = ms(name)
        m[f"{name}.ns_per_elem"] = per(1e6 * ms(name) * jobs, elems)
    # computed traffic: two float64 inputs read and one float64 output written
    m["desim.lindley_waits.bytes_computed"] = 24.0 * count("desim.lindley_waits") / jobs

    draws = count("workload.draw")
    m["workload.draws.count"] = draws / jobs
    m["workload.draws.ms"] = ms("workload.draw")
    m["workload.draws.ns_per_draw"] = per(1e6 * ms("workload.draw") * jobs, draws)
    m["workload.generator.calls"] = len(ids("workload.generator")) / jobs
    m["workload.generator.ms"] = ms("workload.generator")
    kept = candidates = 0
    for sid in ids("workload.nhpp"):
        kept += spans[sid][VALUE]
        candidates += sum(spans[c][VALUE] for c in children.get(sid, []) if spans[c][NAME] == "workload.draw")
    m["workload.nhpp.accept_ratio"] = per(kept, candidates)
    m["specs.rate.ms"] = ms("specs.rate")

    scenario_s = sum(dur[i] for i in ids("harness.run_scenario"))
    points = [dur[i] for i in ids("desim.replicate") if has_ancestor(i, "harness.run_scenario")]
    m["harness.pool.busy_frac"] = per(sum(points), workers * scenario_s)
    p50, tail, pct = _p50_tail([1e3 * d for d in points])
    m["harness.point.p50_ms"] = p50
    m["harness.point.tail_ms"] = tail
    m["harness.point.tail_pct"] = pct
    m["harness.point.count"] = len(points) / jobs
    m["harness.run_scenario.self_ms"] = self_ms("harness.run_scenario")

    vms = count("capacity.simulate_packing")
    m["capacity.simulate_packing.ms"] = ms("capacity.simulate_packing")
    m["capacity.simulate_packing.ns_per_vm"] = per(1e6 * ms("capacity.simulate_packing") * jobs, vms)
    m["capacity.queue_peak_sum"] = count("capacity.simulate_packing", VALUE) / jobs
    m["capacity.capacity_sweep.self_ms"] = self_ms("capacity.capacity_sweep")
    m["capacity.synthetic_vm_trace.ms"] = ms("capacity.synthetic_vm_trace")

    # calls into the analytic layer from outside it
    outer = [
        sid for name, sids in by_name.items() if name.startswith("analytic.") for sid in sids
        if spans[sid][PARENT] < 0 or not spans[spans[sid][PARENT]][NAME].startswith("analytic.")
    ]
    m["analytic.calls"] = len(outer) / jobs
    m["analytic.ms"] = 1e3 * sum(dur[i] for i in outer) / jobs

    m["harness.write_outputs.ms"] = ms("harness.write_outputs")
    m["harness.write_outputs.bytes"] = count("harness.write_outputs", VALUE) / jobs
    m["cli.main.self_ms"] = self_ms("cli.main")
    m["cli.bytes_written"] = cli_bytes / jobs
    m["trace.overhead_frac"] = overhead_frac
    return m
