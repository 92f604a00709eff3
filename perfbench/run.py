"""edgeq benchmark: time to a validated result for four sweep workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload crossover --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``crossover`` (fig4 sweep through
``edgeq validate``, one worker), ``rush_hour`` (table1 sweep, two pool
threads) and ``packing`` (fig8-style capacity sweep).

edgeq is a batch calculator, so each workload is one closed job of fixed
size. A run sets up (import, inputs, one small warm-up call), then repeats
the job, each time with a fresh seed derived from ``--seed``, for as many
jobs as end within ``--seconds`` (at least three), checks every job's
output rows, and reports medians over the jobs:

* ``setup_s``: median wall time of five fresh processes that each import
  edgeq, build the first job's inputs and make the warm-up call;
* ``sweep_s``: wall time of one job, including the files it writes;
* ``sim_req_per_s``: simulated requests (VM placements for ``packing``)
  per second of ``sweep_s``;
* ``cpu_s``: user + system CPU of the process over one job;
* ``peak_rss_mb``: the process's peak resident set, in MiB.

``fail_frac`` (failed over attempted output rows) is printed with the
attempted and failed counts; it is 0 on correct code, so it is carried by
the ``attempted``/``failed`` keys of the result rather than as a metric.

With ``--trace 1`` the run alternates an untraced job and a traced job on
the same seed, requires their outputs to be identical, and reports the
per-layer metrics of ``tracing.py`` plus the tracing overhead. Spans are
written to ``.perfbench_out/<workload>/spans-seed<n>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``. A fuller record with the run manifest
(seed, versions, cores, cache sizes, source hash) goes to
``.perfbench_out/<workload>/result-seed<n>-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_JOBS = 3
MIN_TRACED_PAIRS = 2
SETUP_PROBES = 5


def job_seed(seed: int, index: int) -> int:
    """Seed of the index-th job of a run: independent of every other job's."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_job(wl, seed: int, traced: bool = False) -> dict:
    """Build one job's inputs, run the job timed, then check its output.

    The inputs are dropped once the job is checked, so a run's memory does
    not grow with its job count. An exception fails the job's rows instead
    of ending the run.
    """
    inputs = wl.inputs(seed)
    gc.collect()
    cpu0, t0 = _cpu_s(), perf_counter()
    try:
        output, error = wl.run(inputs), None
    except Exception:
        output, error = None, traceback.format_exc()
    sweep_s, cpu_s = perf_counter() - t0, _cpu_s() - cpu0
    return {
        "seed": seed, "traced": traced, "sweep_s": sweep_s, "cpu_s": cpu_s, "output": output,
        "check": wl.review(inputs, output, error),
        "requests": wl.requests(inputs, output) if output is not None else 0,
        "fingerprint": wl.fingerprint(output) if output is not None else None,
        "cli_bytes": wl.cli_bytes(output) if output is not None else 0,
    }


def tally(wl, jobs) -> tuple[int, int, list]:
    """Adds the run-level criteria to the jobs' own checks; returns (attempted, failed, problems)."""
    pooled = wl.check_pooled([j["output"] for j in jobs])
    attempted = sum(j["check"].attempted for j in jobs)
    failed = sum(
        min(j["check"].attempted, len(j["check"].failed | extra.failed)) for j, extra in zip(jobs, pooled)
    )
    problems = [
        f"job seed {j['seed']}: {p}" for j, extra in zip(jobs, pooled) for p in j["check"].problems + extra.problems
    ]
    return attempted, failed, problems


def _cache_sizes() -> dict:
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        if key in ("LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE") and value.strip().isdigit():
            sizes[key.lower() + "_bytes"] = int(value)
    return sizes


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def manifest(args, edgeq) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "edgeq").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "edgeq": edgeq.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        # getconf reports the per-core L2 and the shared L3
        **_cache_sizes(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def setup_probe_s(args) -> float:
    """Wall time of a fresh process that sets the workload up and exits."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed ({done.returncode}):\n{done.stderr}")
    return elapsed


def _more(count: int, least: int, start: float, last: float, seconds: float) -> bool:
    """Whether another job fits: at least ``least``, then only while it ends within ``seconds``."""
    return count < least or perf_counter() - start + last <= seconds


def measure(wl, seed: int, seconds: float) -> list:
    jobs = []
    start = last = perf_counter()
    while _more(len(jobs), MIN_JOBS, start, perf_counter() - last, seconds):
        last = perf_counter()
        jobs.append(run_job(wl, job_seed(seed, len(jobs))))
    return jobs


def measure_traced(wl, seed: int, seconds: float, tracer) -> list:
    """Untraced and traced jobs on the same seeds, alternating which runs first."""
    jobs = []
    start = last = perf_counter()
    while _more(len(jobs) // 2, MIN_TRACED_PAIRS, start, perf_counter() - last, seconds):
        last = perf_counter()
        pair = len(jobs) // 2
        tracer.run_id = pair
        for traced in (False, True) if pair % 2 == 0 else (True, False):
            with tracing.installed(tracer) if traced else contextlib.nullcontext():
                jobs.append(run_job(wl, job_seed(seed, pair), traced=traced))
    return jobs


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def collect(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Run and check the jobs; returns every metric value but ``setup_s``."""
    tracer = tracing.Tracer()
    jobs = measure_traced(wl, seed, seconds, tracer) if trace else measure(wl, seed, seconds)
    attempted, failed, problems = tally(wl, jobs)
    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    rates = [j["requests"] / j["sweep_s"] for j in plain]
    values = {
        "sweep_s": _median([j["sweep_s"] for j in plain]),
        "sim_req_per_s": _median(rates),
        "cpu_s": _median([j["cpu_s"] for j in plain]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    untraced_prints = {j["seed"]: j["fingerprint"] for j in plain}
    mismatched = [j["seed"] for j in traced if j["fingerprint"] != untraced_prints[j["seed"]]]
    problems += [f"job seed {s}: traced output differs from untraced output" for s in mismatched]
    if trace:
        untraced_s = values["sweep_s"]
        overhead = (_median([j["sweep_s"] for j in traced]) - untraced_s) / untraced_s
        cli_bytes = sum(j["cli_bytes"] for j in traced)
        values.update(tracing.layer_metrics(tracer.spans, len(traced), wl.workers, cli_bytes, overhead))
    return {
        "values": values, "attempted": attempted, "failed": failed, "problems": problems,
        "jobs": jobs, "mismatched": mismatched, "spans": tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "edgeq" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no edgeq source at {SRC / 'edgeq'} (or no BENCHMARK.json); "
              "run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    sys.path.insert(0, str(SRC))
    import edgeq

    if Path(edgeq.__file__).resolve().parent != (SRC / "edgeq").resolve():
        print(f"perfbench: imported edgeq from {edgeq.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = OUT / args.workload
    wl_cls = workloads.WORKLOADS[args.workload]
    wl = wl_cls(out_dir / "job")
    warm = wl_cls.tiny(out_dir / "warmup")

    wl.inputs(job_seed(args.seed, 0))
    warm.run(warm.inputs(args.seed))
    if args.setup_probe:
        return 0

    setup = [setup_probe_s(args) for _ in range(SETUP_PROBES)]
    info = manifest(args, edgeq)
    result = collect(wl, args.seed, args.seconds, bool(args.trace))
    values = {"setup_s": _median(setup), **result["values"]}
    attempted, failed, problems = result["attempted"], result["failed"], result["problems"]
    jobs = result["jobs"]
    if args.trace:
        tracing.write_spans(result["spans"], out_dir / f"spans-seed{args.seed}.csv")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and not result["mismatched"]
    fail_frac = failed / attempted if attempted else 1.0
    n_plain = sum(1 for j in jobs if not j["traced"])

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} jobs={n_plain} untraced"
          + (f", {len(jobs) - n_plain} traced" if args.trace else ""))
    for problem in problems:
        print(f"FAIL {problem}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':40s} {fail_frac:.6g} ratio ({failed} of {attempted} rows failed)")
    if args.trace:
        print(f"  tracing overhead {values['trace.overhead_frac']:+.2%} of untraced sweep_s; traced rows "
              f"{'DIFFER from' if result['mismatched'] else 'identical to'} untraced rows")
    record = {
        "manifest": info,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": fail_frac,
        "metrics": metrics,
        "jobs": [{k: j[k] for k in ("seed", "traced", "sweep_s", "cpu_s")} for j in jobs],
        "setup_probes_s": setup,
        "problems": problems,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"result-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"manifest {json.dumps(info, sort_keys=True)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
