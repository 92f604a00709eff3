"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
It checks that every metric named in BENCHMARK.json is emitted for each
workload, that a row forced to NaN or out of band counts as failed, that a
job which raises or returns unreadable output fails all its rows, that
traced rows equal untraced rows, that a wrapped name which no longer
exists is skipped, and that the benchmark refuses to run without the
edgeq source.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import edgeq.desim  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCRATCH = ROOT / ".perfbench_out" / "selftest"


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def tiny(request):
    return workloads.WORKLOADS[request.param].tiny(SCRATCH / request.param)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_every_metric_is_emitted(tiny):
    plain = run.collect(tiny, seed=3, seconds=0.0, trace=False)
    assert {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"} <= set(plain["values"])
    traced = run.collect(tiny, seed=3, seconds=0.0, trace=True)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(traced["values"])
    assert all(math.isfinite(v) for v in traced["values"].values())


def test_traced_rows_equal_untraced_rows(tiny):
    result = run.collect(tiny, seed=4, seconds=0.0, trace=True)
    traced = [j for j in result["jobs"] if j["traced"]]
    assert traced and all(j["output"] is not None for j in result["jobs"])
    assert result["mismatched"] == []


def _edit_rows(output, edit):
    """Rewrite the JSON rows a crossover job wrote."""
    path = next(p for p in output[1] if p.suffix == ".json")
    payload = json.loads(path.read_text())
    edit(payload["rows"])
    path.write_text(json.dumps(payload))


def _tamper_nan(wl, output):
    if isinstance(wl, workloads.Crossover):
        _edit_rows(output, lambda rows: rows[0].update(sim_value=math.nan))
    elif isinstance(wl, workloads.RushHour):
        i = next(i for i, row in enumerate(output[0]) if row.status == "ok")
        output[0][i].sim_value = math.nan
    else:
        output[0][0].edge_capacity = math.nan


def _tamper_band(wl, output):
    if isinstance(wl, workloads.Crossover):
        def swap(rows):
            low = min(rows, key=lambda row: (row["parameters"]["r"], row["parameters"]["lam"]))
            low["parameters"]["edge_response"] = low["parameters"]["cloud_response"] + 1.0
        _edit_rows(output, swap)
    elif isinstance(wl, workloads.RushHour):
        below = next(row for row in output[0] if row.parameters["amplitude"] <= 0.5)
        below.sim_value = 0.5
    else:
        output[0][0].edge_capacity = 10 * output[0][0].cores_per_site * wl.k_sites


@pytest.mark.parametrize("tamper", [_tamper_nan, _tamper_band])
def test_forced_bad_row_raises_fail_frac(tiny, tamper):
    job = run.run_job(tiny, 5)
    _, failed_before, _ = run.tally(tiny, [job])
    tamper(tiny, job["output"])
    inputs = tiny.inputs(5)
    job["check"] = tiny.review(inputs, job["output"], None)
    attempted, failed_after, problems = run.tally(tiny, [job])
    assert failed_after > failed_before and problems
    assert attempted == tiny.ops(inputs)


def _raises(inputs):
    raise RuntimeError("injected")


def _unreadable(inputs):
    return ([], {}, None)


@pytest.mark.parametrize("broken", [_raises, _unreadable])
def test_broken_job_fails_every_row(tiny, monkeypatch, broken):
    monkeypatch.setattr(tiny, "run", broken)
    monkeypatch.setattr(tiny, "requests", lambda inputs, output: 0)
    monkeypatch.setattr(tiny, "fingerprint", lambda output: "")
    job = run.run_job(tiny, 5)
    attempted, failed, problems = run.tally(tiny, [job])
    assert attempted == failed == tiny.ops(tiny.inputs(5)) and problems


def test_pooled_rush_criterion_counts_failures():
    wl = workloads.RushHour.tiny(SCRATCH / "rush_pooled")
    result = run.collect(wl, seed=6, seconds=0.0, trace=False)
    for job in result["jobs"]:
        for row in job["output"][0]:
            if row.parameters["amplitude"] == 0.8 and row.parameters["scale"] == 16.0:
                row.sim_value = row.analytic_value - 1.0
    pooled = wl.check_pooled([j["output"] for j in result["jobs"]])
    assert all(len(chk.failed) == 2 for chk in pooled)


def test_missing_wrapped_name_reads_zero(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("edgeq.desim", "_no_such_function", "desim.gone", None),
        ("edgeq.no_such_module", "anything", "gone.module", None),
    ])
    original = edgeq.desim.replicate
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert edgeq.desim.replicate is not original
    assert edgeq.desim.replicate is original
    metrics = tracing.layer_metrics(tracer.spans, 1, 1, 0, 0.0)
    assert metrics["desim.run.count"] == 0 and metrics["workload.nhpp.accept_ratio"] == 0


def test_refuses_to_run_without_edgeq_source():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crossover", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and done.stdout == ""
