"""The benchmark workloads and the checks on their outputs.

Each workload is one closed job of fixed size, called through edgeq's
public entry points: a sweep with no arrival schedule. A workload object

* builds the job's inputs from a seed (``inputs``),
* runs the job (``run``), which is the only part that is timed,
* counts the requests the job simulated (``requests``),
* checks the job's output rows (``check``, and ``check_pooled`` for the
  statistical criteria that are judged on all jobs of a run together),
* reduces the output to a string for the traced-equals-untraced test
  (``fingerprint``).

An operation is one output row: a ComparisonRow or a sweep point. A row
fails when it is non-finite, is skipped without being expected to be, or
fails its workload's check; when the job raises, every row it would have
produced fails. The checks are statistical, never bit-exact, so a change
that reorders random draws still passes.

Entry points are looked up on the edgeq modules at call time, so the
tracer's wrappers (see ``tracing.py``) take effect without touching the
workload code.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import traceback
from pathlib import Path

import edgeq
import edgeq.capacity
import edgeq.cli
import edgeq.harness
import edgeq.workload


@dataclasses.dataclass
class Check:
    """Outcome of checking one job: rows attempted, indices of failed rows, reasons."""

    attempted: int
    failed: set
    problems: list

    def fail(self, rows, reason: str) -> None:
        self.failed.update(rows)
        self.problems.append(reason)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _row_dicts(rows) -> list:
    return [
        {
            "parameters": r.parameters,
            "analytic": r.analytic_value,
            "sim": r.sim_value,
            "ci": r.sim_ci,
            "status": r.status,
        }
        for r in rows
    ]


def _dumps(payload) -> str:
    # repr-exact floats; NaN stays NaN so equal outputs compare equal
    return json.dumps(payload, sort_keys=True, default=str)


def _scenario_fingerprint(output) -> str:
    rows, summary, written = output
    return _dumps({"rows": _row_dicts(rows), "summary": summary, "files": [p.name for p in written]})


def _missing_files(written) -> list:
    return [str(p) for p in written if not Path(p).is_file() or Path(p).stat().st_size == 0]


class Workload:
    """Defaults shared by the workloads: no pooled criterion, no CLI output."""

    workers = 1

    def review(self, inputs, output, error) -> Check:
        """The job's check; every row fails when the job raised or its output cannot be read."""
        if output is None:
            n = self.ops(inputs)
            return Check(n, set(range(n)), [f"raised:\n{error}"])
        try:
            return self.check(inputs, output)
        except Exception:
            n = self.ops(inputs)
            return Check(n, set(range(n)), [f"output not checkable:\n{traceback.format_exc()}"])

    def check_pooled(self, outputs) -> list:
        """Run-level criteria over all jobs' outputs (None for a job that raised)."""
        return [Check(0, set(), []) for _ in outputs]

    def cli_bytes(self, output) -> int:
        return 0


class Crossover(Workload):
    """fig4 through `edgeq validate`, in process: 34 points x R reps x (edge + k=1 cloud)."""

    name = "crossover"

    def __init__(self, out_dir, replications=1, horizon_requests=100_000, lams=None):
        self.out_dir = Path(out_dir)
        self.replications = replications
        self.horizon_requests = horizon_requests
        self.lams = lams

    @classmethod
    def tiny(cls, out_dir):
        return cls(out_dir, replications=1, horizon_requests=20_000, lams=[5, 20, 25, 30, 35, 40])

    def inputs(self, seed: int):
        sc = edgeq.harness.load_scenario("fig4.scenario")
        grid = dict(sc.grid)
        if self.lams is not None:
            grid["lam"] = list(self.lams)
        fixed = {**sc.fixed, "horizon_requests": self.horizon_requests}
        sc = dataclasses.replace(sc, grid=grid, fixed=fixed, replications=self.replications, seed=seed)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "crossover.scenario.json"
        path.write_text(json.dumps(dataclasses.asdict(sc), indent=2) + "\n")
        return sc, path

    def run(self, inputs):
        sc, path = inputs
        argv = [
            "validate", str(path), "--out", str(self.out_dir), "--workers", str(self.workers),
            "--seed", str(sc.seed), "--deterministic-names",
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = edgeq.cli.main(argv)
        return code, [self.out_dir / f"{sc.name}.{fmt}" for fmt in sc.outputs]

    def ops(self, inputs) -> int:
        return math.prod(len(v) for v in inputs[0].grid.values())

    @staticmethod
    def _read(output):
        """(rows, summary) from the JSON the command wrote."""
        code, written = output
        if code != 0:
            raise RuntimeError(f"edgeq validate exited {code}")
        payload = json.loads(next(p for p in written if p.suffix == ".json").read_text())
        rows = [
            edgeq.harness.ComparisonRow(r["parameters"], r["analytic_value"], r["sim_value"], r["sim_ci"], r["status"])
            for r in payload["rows"]
        ]
        return rows, payload["summary"]

    @staticmethod
    def _unstable(sc, lam: float, r: float) -> bool:
        # the harness skips a point exactly when the edge source queue is
        # unstable; recomputed here from the scenario, not from edgeq
        mu1, mu2 = float(sc.fixed["mu1"]), float(sc.fixed["mu2"])
        return lam / mu1 + r * lam / mu2 >= 1.0 - 1e-9 or r * lam >= mu1 * (1.0 - 1e-9)

    def requests(self, inputs, output) -> int:
        if output[0] != 0:
            return 0
        rows, _ = self._read(output)
        simulated = sum(1 for row in rows if row.status == "ok")
        return simulated * inputs[0].replications * 2 * self.horizon_requests

    def check(self, inputs, output) -> Check:
        sc = inputs[0]
        rows, summary = self._read(output)
        chk = Check(self.ops(inputs), set(), [])
        if len(rows) != self.ops(inputs):
            chk.fail(range(self.ops(inputs)), f"{len(rows)} rows for {self.ops(inputs)} grid points")
        if _missing_files(output[1]):
            chk.fail(range(len(rows)), f"output files missing or empty: {_missing_files(output[1])}")
        for i, row in enumerate(rows):
            lam, r = float(row.parameters["lam"]), float(row.parameters["r"])
            skipped = row.status != "ok"
            if skipped != self._unstable(sc, lam, r):
                chk.fail([i], f"lam={lam:g} r={r:g}: status {row.status!r} not expected")
            elif not skipped and not _finite(
                row.analytic_value, row.sim_value, row.sim_ci,
                row.parameters.get("edge_response"), row.parameters.get("cloud_response"),
            ):
                chk.fail([i], f"lam={lam:g} r={r:g}: non-finite value")
        # acceptance criterion 3: analytic root and simulated crossover
        # within 2.5, and the edge beats the cloud at the lowest rate
        for r in sorted({float(row.parameters["r"]) for row in rows}):
            of_r = [i for i, row in enumerate(rows) if float(row.parameters["r"]) == r]
            cross = summary.get("crossovers", {}).get(f"r={r:g}", {})
            root, sim = cross.get("analytic_root_lam"), cross.get("sim_crossover_lam")
            if not _finite(root, sim) or abs(root - sim) > 2.5:
                chk.fail(of_r, f"r={r:g}: analytic root {root} vs simulated crossover {sim}")
            low = min(of_r, key=lambda i: float(rows[i].parameters["lam"]))
            p = rows[low].parameters
            if rows[low].status != "ok" or not p["edge_response"] < p["cloud_response"]:
                chk.fail([low], f"r={r:g}: edge does not beat cloud at lam={p['lam']}")
        return chk

    def cli_bytes(self, output) -> int:
        # read right after the job: the next job overwrites these files
        return sum(p.stat().st_size for p in output[1] if p.is_file())

    @staticmethod
    def fingerprint(output) -> str:
        code, written = output
        return f"{code}\n" + "\n".join(p.read_text() for p in written if p.is_file())


class RushHour(Workload):
    """table1: sinusoidal M(t)/M/1 rush hour, 10 amplitudes x 2 scales x R reps."""

    name = "rush_hour"
    # the harness maps grid points over a pool of this many threads
    workers = 2

    def __init__(self, out_dir, replications=2, horizon_periods=None, amplitudes=None):
        self.out_dir = Path(out_dir)
        self.replications = replications
        self.horizon_periods = horizon_periods
        self.amplitudes = amplitudes

    @classmethod
    def tiny(cls, out_dir):
        return cls(out_dir, replications=1, horizon_periods=1, amplitudes=[0.3, 0.8])

    def inputs(self, seed: int):
        sc = edgeq.harness.load_scenario("table1.scenario")
        grid = dict(sc.grid)
        if self.amplitudes is not None:
            grid["amplitude"] = list(self.amplitudes)
        fixed = dict(sc.fixed)
        if self.horizon_periods is not None:
            fixed["horizon_periods"] = self.horizon_periods
        return dataclasses.replace(sc, grid=grid, fixed=fixed, replications=self.replications, seed=seed)

    def run(self, sc):
        return edgeq.harness.run_scenario(
            sc, out_dir=self.out_dir, deterministic_names=True, workers=self.workers
        )

    def ops(self, sc) -> int:
        return 2 * len(sc.grid["amplitude"])

    def requests(self, sc, output) -> int:
        # expected arrivals: a whole number of periods integrates the
        # sinusoid to lambda_bar * horizon
        fx = sc.fixed
        horizon = float(fx["horizon_periods"]) * float(fx["period_s"])
        per_scale = len(sc.grid["amplitude"]) * sc.replications * float(fx["lambda_bar"]) * horizon
        return round(per_scale * (1.0 + float(fx["scale"])))

    def _overloaded(self, sc, amplitude: float) -> bool:
        fx = sc.fixed
        mu_eff = 1.0 / (1.0 / float(fx["mu1"]) + float(fx.get("r", 0.0)) / float(fx["mu2"]))
        return float(fx["lambda_bar"]) * (1.0 + amplitude) > mu_eff

    def check(self, sc, output) -> Check:
        rows, summary, written = output
        chk = Check(self.ops(sc), set(), [])
        if len(rows) != self.ops(sc):
            chk.fail(range(self.ops(sc)), f"{len(rows)} rows for {self.ops(sc)} expected")
        if _missing_files(written):
            chk.fail(range(len(rows)), f"output files missing or empty: {_missing_files(written)}")
        if summary.get("fluid_scale_invariance_drift") != 0.0:
            chk.fail(range(len(rows)), f"fluid drift {summary.get('fluid_scale_invariance_drift')}")
        for i, row in enumerate(rows):
            amp = float(row.parameters["amplitude"])
            if row.status != "ok" or not _finite(row.analytic_value, row.sim_value, row.sim_ci):
                chk.fail([i], f"A={amp:g} scale={row.parameters['scale']}: {row.status}, non-finite or skipped")
            elif not self._overloaded(sc, amp) and (row.analytic_value != 0.0 or row.sim_value != 0.0):
                # acceptance criterion 5(c): no overload window, no rush wait
                chk.fail([i], f"A={amp:g}: rush wait {row.sim_value} / fluid {row.analytic_value} below threshold")
        return chk

    def check_pooled(self, outputs) -> list:
        """Acceptance criterion 5(d), on the mean over the run's jobs.

        For A = 0.7, 0.8, 0.9 the simulated rush wait is at least the
        fluid value at the large scale, and the gap shrinks as the scale
        grows. One job at a few replications is too noisy for a strict
        inequality; the run's jobs use distinct seeds, so their mean has
        R x jobs replications behind it.
        """
        checks = [Check(0, set(), []) for _ in outputs]
        complete = [(k, out[0]) for k, out in enumerate(outputs) if out is not None]
        scales = sorted({float(row.parameters["scale"]) for _, rows in complete for row in rows})
        if len(scales) < 2:
            return checks  # no complete rows: the jobs' own checks already failed them
        small_scale, large_scale = scales[0], scales[-1]
        for amp in (0.7, 0.8, 0.9):
            gaps = {small_scale: [], large_scale: []}
            where = []
            for k, rows in complete:
                idx = [i for i, row in enumerate(rows) if float(row.parameters["amplitude"]) == amp]
                for i in idx:
                    gaps[float(rows[i].parameters["scale"])].append(rows[i].sim_value - rows[i].analytic_value)
                where.append((k, idx))
            if not gaps[large_scale] or len(gaps[small_scale]) != len(gaps[large_scale]):
                continue
            small = math.fsum(gaps[small_scale]) / len(gaps[small_scale])
            large = math.fsum(gaps[large_scale]) / len(gaps[large_scale])
            if not (0.0 <= large < small):
                for k, idx in where:
                    checks[k].fail(idx, f"A={amp:g}: mean gap {small:.4g} at scale {small_scale:g} -> "
                                        f"{large:.4g} at scale {large_scale:g}")
        return checks

    fingerprint = staticmethod(_scenario_fingerprint)


class Packing(Workload):
    """fig8 scaled: first-fit packing sweep over six edge-site sizes plus the pooled cloud."""

    name = "packing"

    def __init__(self, out_dir, rate=64.0, mean_lifetime=10.0, horizon=2000.0, k_sites=16,
                 grid=(128, 256, 384, 512, 640, 768), q=2.0):
        # out_dir is unused: the sweep writes no files
        self.rate, self.mean_lifetime, self.horizon = rate, mean_lifetime, horizon
        self.k_sites, self.grid, self.q = k_sites, list(grid), q

    @classmethod
    def tiny(cls, out_dir):
        return cls(out_dir, rate=8.0, horizon=50.0, k_sites=4, grid=(24, 48, 72))

    def inputs(self, seed: int):
        return edgeq.capacity.synthetic_vm_trace(
            self.rate, self.mean_lifetime, self.horizon,
            edgeq.workload.SeededStream(seed, 777), k_sites=self.k_sites,
        )

    def run(self, trace):
        return edgeq.capacity.capacity_sweep(trace, self.k_sites, self.grid, self.q)

    def ops(self, trace) -> int:
        return len(self.grid)

    def requests(self, trace, output) -> int:
        # VM placements replayed: the pooled cloud plus each edge size
        return len(trace) * (1 + len(self.grid))

    def check(self, trace, output) -> Check:
        points, cloud_peak, model_size = output
        chk = Check(len(self.grid), set(), [])
        every = range(len(self.grid))
        if [p.cores_per_site for p in points] != self.grid:
            chk.fail(every, f"sweep sizes {[p.cores_per_site for p in points]} != {self.grid}")
            return chk
        if not (_finite(cloud_peak, model_size) and cloud_peak > 0):
            chk.fail(every, f"cloud peak {cloud_peak}, model size {model_size}")
            return chk
        target = cloud_peak * (1.0 + 1.0 / self.q)
        for i, p in enumerate(points):
            if not (
                _finite(p.edge_capacity, p.relative_error, p.peak_queue)
                and 0 < p.edge_capacity <= p.cores_per_site * self.k_sites
                and p.peak_queue >= 0
                and abs(p.relative_error - abs(p.edge_capacity - target) / target) <= 1e-9
            ):
                chk.fail([i], f"size {p.cores_per_site}: capacity {p.edge_capacity}, "
                              f"error {p.relative_error}, queue {p.peak_queue}")
        # acceptance criterion 7: the error-minimising size is within one
        # grid step of the grid size nearest the model
        step = min(b - a for a, b in zip(self.grid, self.grid[1:]))
        best = min(points, key=lambda p: p.relative_error).cores_per_site
        nearest = min(self.grid, key=lambda g: abs(g - model_size))
        if not abs(best - nearest) <= step:
            chk.fail(every, f"argmin size {best} vs {nearest}, nearest to model {model_size:.4g}")
        return chk

    @staticmethod
    def fingerprint(output) -> str:
        points, cloud_peak, model_size = output
        return _dumps({"points": [dataclasses.asdict(p) for p in points],
                       "cloud_peak": cloud_peak, "model_size": model_size})


WORKLOADS = {cls.name: cls for cls in (Crossover, RushHour, Packing)}
