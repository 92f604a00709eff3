"""Scenario runner pairing closed-form predictions with simulation estimates.

A scenario names a comparison model, a parameter grid, and replication
count; running it yields one ComparisonRow per grid point plus optional
CSV/JSON artifacts. ``_MODELS`` names each model's keys and runner. A
sweepable key is checked per point, so a point the model rejects keeps its
row, marked ``skipped: <reason>``, even if the key is set in ``fixed``; the
cast of every other key checks its domain, naming the key, when the
``Scenario`` is built.
Each runner asks its simulations for the ``SimMetrics`` fields its rows
read, plus ``count_served``, which costs nothing and tells a profiler how
many requests each run counted.
Rows are pure functions of (scenario, seed): re-running writes
byte-identical files when deterministic names are requested.
"""
from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import analytic, capacity
from .config import (
    REQUIRED, check, checked, count, finite_positive, integral, listed, ranged, real, table_of, take, text, whole,
)
from .desim import FREQUENCY, SimConfig, replicate
from .errors import ConfigError, DomainError
from .specs import CloudSpec, DtrpSpec, NetworkSpec, QueueSpec, SinusoidProfile
from .workload import SeededStream


@dataclass
class ComparisonRow:
    parameters: dict[str, object]
    analytic_value: float
    sim_value: float
    sim_ci: float
    status: str = "ok"

    @property
    def abs_err(self) -> float:
        return abs(self.analytic_value - self.sim_value)

    @property
    def rel_err(self) -> float:
        if self.analytic_value != 0.0:
            return self.abs_err / abs(self.analytic_value)
        return 0.0 if self.abs_err == 0.0 else math.inf


# ---------------------------------------------------------------------------
# Comparison runners


def _grid_points(grid: dict[str, list]) -> list[dict]:
    points = [{}]
    for name, values in grid.items():
        points = [{**p, name: v} for p in points for v in values]
    return points


def _jobs(seed: int, points: list[tuple[dict, dict]], *model: int) -> list[tuple]:
    """``(stream, params, values)`` per grid point, the stream keyed ``(point index, *model)``.

    Every run's key is (point, model, rep): ``model`` tells apart the runs
    made at one point (the edge and cloud sides of mobility_crossover,
    rush_hour's scale-1 and scaled rows), and ``replicate`` appends rep.
    """
    return [(SeededStream(seed, (idx, *model)), p, v) for idx, (p, v) in enumerate(points)]


def _map_points(one: Callable, jobs: list[tuple], workers: int) -> list[ComparisonRow]:
    """``one(stream, params, values)`` per job, in order; a DomainError gives the job a skipped row."""
    def guarded(job):
        try:
            return one(*job)
        except DomainError as exc:
            return ComparisonRow(job[1], math.nan, math.nan, math.nan, f"skipped: {exc}")

    if workers <= 1 or len(jobs) <= 1:
        return [guarded(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(guarded, jobs))


def _run_two_phase_wait(sc: Scenario, workers: int):
    def one(stream, params, v):
        spec = QueueSpec(v["lam"], v["mu1"], v["mu2"], v["r"])
        want = analytic.mm1_two_phase_wait(spec)
        config = SimConfig(
            model="two_phase_edge", queue=spec, horizon_requests=v["horizon_requests"], warmup=v["warmup"],
            metrics=("mean_wait", "count_served"),
        )
        agg = replicate(config, sc.replications, stream)
        return ComparisonRow(params, want, agg.mean.mean_wait, agg.ci95["mean_wait"])

    return _map_points(one, _jobs(sc.seed, sc.points(), 0), workers), {}


def _run_mobility_crossover(sc: Scenario, workers: int):
    points = sc.points()
    fx = points[0][1]  # keys that cannot be swept read the same at every point
    mu1, mu2, k = fx["mu1"], fx["mu2"], fx["cloud_k"]
    mu_cloud = mu1 if fx["mu_cloud"] is None else fx["mu_cloud"]
    net = NetworkSpec(fx["t_edge_s"], fx["t_cloud_s"])
    horizon, warmup = fx["horizon_requests"], fx["warmup"]

    def one(stream, params, v):
        lam, r = v["lam"], v["r"]
        edge_spec = QueueSpec(lam, mu1, mu2, r)
        # one cloud server per edge site at the same per-server load
        cloud_spec = CloudSpec(k, mu_cloud, lam / mu_cloud)
        bound = analytic.delta_t_bound_mmk(edge_spec, cloud_spec)
        edge_cfg = SimConfig(
            model="two_phase_edge", queue=edge_spec, horizon_requests=horizon,
            warmup=warmup, network=net, metrics=("mean_wait", "mean_response", "count_served"),
        )
        cloud_cfg = SimConfig(
            model="mmk_cloud", cloud=cloud_spec, horizon_requests=horizon,
            warmup=warmup, network=net, metrics=("mean_wait_conditional", "count_served"),
        )
        edge = replicate(edge_cfg, sc.replications, stream.child(0))  # models: 0 edge, 1 cloud
        cloud = replicate(cloud_cfg, sc.replications, stream.child(1))
        # cloud response uses the wait conditioned on queueing, mirroring the
        # conservative multiserver form inside the analytic bound
        edge_resp = edge.mean.mean_response
        cloud_resp = net.t_cloud + cloud.mean.mean_wait_conditional + 1.0 / mu_cloud
        sim_bound = (edge_resp - net.t_edge) - (cloud_resp - net.t_cloud)
        params = dict(
            params,
            edge_response=edge_resp,
            cloud_response=cloud_resp,
            edge_wait=edge.mean.mean_wait,
            cloud_wait_conditional=cloud.mean.mean_wait_conditional,
        )
        # the edge and cloud runs draw from independent streams, so their CIs add in quadrature
        sim_ci = math.hypot(edge.ci95["mean_response"], cloud.ci95["mean_wait_conditional"])
        return ComparisonRow(params, bound, sim_bound, sim_ci)

    rows = _map_points(one, _jobs(sc.seed, points), workers)
    summary = {"delta_t": net.delta_t, "crossovers": {}}
    for r in sorted({v["r"] for _, v in points}):
        ok = sorted((v["lam"], i) for i, (_, v) in enumerate(points) if rows[i].status == "ok" and v["r"] == r)
        lams = [lam for lam, _ in ok]
        if not lams:
            continue
        root = _bound_root(mu1, mu2, r, k, mu_cloud, net.delta_t, min(lams), max(lams))
        sim_cross = _sign_change(
            lams, [rows[i].parameters["edge_response"] - rows[i].parameters["cloud_response"] for _, i in ok]
        )
        summary["crossovers"][f"r={r:g}"] = {
            "analytic_root_lam": root,
            "sim_crossover_lam": sim_cross,
        }
    return rows, summary


def _bound_root(mu1, mu2, r, k, mu_cloud, delta_t, lo, hi) -> Optional[float]:
    """The rate where the bound meets ``delta_t``, by bisection on [lo, hi], or None if it does not cross there.

    lo and hi are rates of ok rows, and each stability rule is monotone in the rate: the bound is finite between.
    """
    def f(lam: float) -> float:
        cloud = CloudSpec(k, mu_cloud, lam / mu_cloud)
        return analytic.delta_t_bound_mmk(QueueSpec(lam, mu1, mu2, r), cloud) - delta_t

    a, b = lo, hi
    if f(a) > 0 or f(b) < 0:
        return None
    for _ in range(200):
        mid = 0.5 * (a + b)
        if f(mid) > 0:
            b = mid
        else:
            a = mid
    return 0.5 * (a + b)


def _sign_change(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """First upward zero crossing (y goes from negative to non-negative), linearly interpolated.

    Only that first crossing is reported: a later one, or a downward
    crossing (non-negative to negative), is ignored.
    """
    for (x1, y1), (x2, y2) in zip(zip(xs, ys), list(zip(xs, ys))[1:]):
        if y1 < 0 <= y2:
            return x1 + (x2 - x1) * (-y1) / (y2 - y1)
    return None


def _run_rush_hour(sc: Scenario, workers: int):
    """Per amplitude, fluid drain estimate vs simulated rush wait, at scale 1 then at ``scale``.

    Columns mirror the published layout: overall mean wait, rush-window
    wait, fluid estimate, and their gap. ``scale`` multiplies lambda_bar,
    mu1 and mu2 together, under which the fluid column is invariant.
    """
    points = sc.points()
    scale = points[0][1]["scale"]
    jobs = []
    for si, s in enumerate((1.0, scale)):  # the scale index is the model part of the key
        jobs += _jobs(sc.seed, [({"amplitude": v["amplitude"], "scale": s}, v) for _, v in points], si)

    def one(stream, params, v):
        s = params["scale"]
        lam_bar, mu1, mu2 = v["lambda_bar"] * s, v["mu1"] * s, v["mu2"] * s
        profile = SinusoidProfile(lam_bar, v["amplitude"], v["gamma_rad_s"])  # the swept amplitude fails first
        queue = QueueSpec(lam_bar, mu1, mu2, v["r"])
        fluid = analytic.rush_hour_wait(profile, analytic.effective_service_rate(queue))
        config = SimConfig(
            model="mtm1_sinusoidal",
            queue=queue,
            profile=profile,
            horizon_s=v["horizon_periods"] * profile.period,
            warmup=v["warmup"],
            bins_per_period=v["bins_per_period"],
            metrics=("mean_wait", "count_served"),
        )
        agg = replicate(config, sc.replications, stream)
        rush = agg.timeseries.rush_window()
        sim_rush = rush[2] if rush is not None else 0.0
        params = {
            **params, "mean_wait": agg.mean.mean_wait,
            "err_rush": sim_rush - fluid,
            "rush_t1": rush[0] if rush else math.nan,
            "rush_t2": rush[1] if rush else math.nan,
        }
        return ComparisonRow(params, fluid, sim_rush, agg.ci95["mean_wait"])

    rows = _map_points(one, jobs, workers)
    base, scaled = rows[:len(points)], rows[len(points):]
    ok = [(b, s) for b, s in zip(base, scaled) if b.status == s.status == "ok"]
    fluid_drift = max((abs(b.analytic_value - s.analytic_value) for b, s in ok), default=0.0)
    return rows, {"scale": scale, "fluid_scale_invariance_drift": fluid_drift}


def _run_excess_wait(sc: Scenario, workers: int):
    points = sc.points()
    fx = points[0][1]  # keys that cannot be swept read the same at every point
    mu_eff, rho, gamma = fx["mu_eff"], fx["rho"], fx["gamma_rad_s"]
    lam_bar = rho * mu_eff
    stationary = rho / (mu_eff * (1.0 - rho))

    def one(stream, params, v):
        amp = v["amplitude"]
        want = analytic.excess_wait_sinusoidal(rho, amp, gamma, mu_eff)
        profile = SinusoidProfile(lam_bar, amp, gamma)
        config = SimConfig(
            model="mtm1_sinusoidal",
            queue=QueueSpec(lam_bar, mu_eff, math.inf, 0.0),
            profile=profile,
            horizon_s=v["horizon_periods"] * profile.period,
            warmup=v["warmup"],
            metrics=("mean_wait", "count_served"),
        )
        agg = replicate(config, sc.replications, stream)
        excess = agg.mean.mean_wait - stationary
        params = dict(params, mean_wait=agg.mean.mean_wait, stationary_wait=stationary)
        return ComparisonRow(params, want, excess, agg.ci95["mean_wait"])

    rows = _map_points(one, _jobs(sc.seed, points, 0), workers)
    return rows, {"stationary_wait": stationary}


def _run_packing_sweep(sc: Scenario, workers: int):
    points = sc.points()
    fx = points[0][1]  # keys that cannot be swept read the same at every point
    trace = capacity.synthetic_vm_trace(
        rate=fx["vm_rate"],
        mean_lifetime=fx["mean_lifetime_s"],
        horizon=fx["horizon_s"],
        stream=SeededStream(sc.seed, 777),
        k_sites=fx["k_sites"],
    )
    sweep = capacity.PackingSweep(trace, fx["k_sites"], fx["q"], fx["policy"])

    def one(stream, params, v):
        pt = sweep.point(v["cores_per_site"])
        params = {"cores_per_site": pt.cores_per_site, "peak_queue": pt.peak_queue}
        return ComparisonRow(params, sweep.target, float(pt.edge_capacity), 0.0)

    rows = _map_points(one, _jobs(sc.seed, points), workers)
    # rel_err is the point's relative_error: |target - capacity| / target
    best = min((r for r in rows if r.status == "ok"), key=lambda r: r.rel_err, default=None)
    summary = {
        "cloud_peak_cores": sweep.cloud_peak,
        "target_edge_cores": sweep.target,
        "model_cores_per_site": sweep.model_size,
        "argmin_cores_per_site": None if best is None else best.parameters["cores_per_site"],
        "n_vms": len(trace),
    }
    return rows, summary


_WARMUP = table_of(SimConfig, "warmup")
_RATES = table_of(QueueSpec, "mu1", "mu2", mu1=50.0, mu2=50.0)

# comparison model -> (keys its grid may sweep, {key: (cast, default)} for
# every key it reads, runner). A key is set in the grid or in the fixed block, not both.
# A key that sets a spec field takes the field's cast; a sweepable one is a plain
# number (`real`), so a point outside the spec's domain keeps its skipped row.
_MODELS: dict[str, tuple[tuple[str, ...], dict, Callable]] = {
    "two_phase_wait": (("lam", "r"), {
        "lam": (real, REQUIRED), "r": (real, 0.0), **_RATES,
        "horizon_requests": (count, 200_000), **_WARMUP,
    }, _run_two_phase_wait),
    "mobility_crossover": (("lam", "r"), {
        "lam": (real, REQUIRED), "r": (real, REQUIRED), **_RATES,
        **table_of(CloudSpec, ("cloud_k", "k"), "mu_cloud", cloud_k=1, mu_cloud=None),  # None: mu1
        **table_of(NetworkSpec, ("t_edge_s", "t_edge"), ("t_cloud_s", "t_cloud"), t_edge_s=0.001, t_cloud_s=0.028),
        "horizon_requests": (count, 100_000), **_WARMUP,
    }, _run_mobility_crossover),
    "rush_hour": (("amplitude",), {
        "amplitude": (real, REQUIRED), **table_of(SinusoidProfile, "lambda_bar"),
        **table_of(QueueSpec, "mu1", "mu2", "r"), **FREQUENCY,
        "horizon_periods": (finite_positive, 10), "scale": (finite_positive, 16.0),
        **table_of(SimConfig, "warmup", "bins_per_period"),
    }, _run_rush_hour),
    "excess_wait": (("amplitude",), {
        "amplitude": (real, REQUIRED), "rho": (ranged(real, lambda x: 0 < x < 1, "in (0, 1)"), REQUIRED),
        "mu_eff": (finite_positive, REQUIRED), **FREQUENCY, "horizon_periods": (finite_positive, 12), **_WARMUP,
    }, _run_excess_wait),
    "packing_sweep": (("cores_per_site",), {
        "cores_per_site": (integral, REQUIRED), "k_sites": (count, 16), **table_of(DtrpSpec, "q", q=2.0),
        "vm_rate": (finite_positive, 16.0), "mean_lifetime_s": (finite_positive, 10.0), "horizon_s": (finite_positive, 400.0),
        "policy": (capacity.packing_policy, "first_fit"),
    }, _run_packing_sweep),
}
COMPARISON_MODELS = tuple(_MODELS)


@dataclass(frozen=True)
class Scenario:
    """A comparison sweep, checked when built: each ``checked`` field's domain, then the grid's points."""

    name: str = checked(REQUIRED, text)
    model: str = checked(REQUIRED, ranged(str, COMPARISON_MODELS.__contains__, f"one of {COMPARISON_MODELS}"))
    grid: dict[str, list] = checked(REQUIRED, ranged(dict, bool, "a non-empty object"))
    fixed: dict[str, object] = checked({}, dict)
    replications: int = checked(30, count)
    seed: int = checked(0, whole)
    outputs: tuple[str, ...] = checked(
        ("csv", "json"), ranged(listed, lambda names: set(names) <= {"csv", "json"}, "a list of 'csv' and 'json'")
    )

    def __post_init__(self):
        where = f"scenario {self.name!r}"
        check(self, lambda key: f"{where}.{key}", ConfigError)
        for key, values in self.grid.items():
            if not isinstance(values, list) or not values:
                raise ConfigError(f"{where}: grid.{key} must be a non-empty list")
        unsweepable = set(self.grid) - set(_MODELS[self.model][0])
        if unsweepable:
            raise ConfigError(f"{where}: {self.model} cannot sweep {sorted(unsweepable)}")
        both = set(self.grid) & set(self.fixed)
        if both:
            raise ConfigError(f"{where}: keys both swept and fixed {sorted(both)}")
        self.points()
        if self.model == "packing_sweep" and self.replications != 1:  # one trace, one sweep: nothing to replicate
            raise ConfigError(f"{where}: packing_sweep needs replications 1, got {self.replications}")

    def points(self) -> list[tuple[dict, dict]]:
        """(grid point, resolved values of the point over the fixed block) per grid point."""
        table, where = _MODELS[self.model][1], f"scenario {self.name!r}"
        return [(p, take({**self.fixed, **p}, table, where)) for p in _grid_points(self.grid)]


_SCENARIO = table_of(Scenario, "name", "model", "grid", "fixed", "replications", "seed", "outputs")


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario JSON file; bare names resolve to bundled scenarios."""
    path = Path(source)
    if not path.exists():
        path = resources.files("edgeq.scenarios").joinpath(str(source))
        if not path.is_file():
            raise ConfigError(f"scenario file not found: {source}")
    return Scenario(**take(json.loads(path.read_text()), _SCENARIO, str(source)))


# ---------------------------------------------------------------------------
# Entry point and artifact writing


def run_scenario(
    scenario: Scenario,
    out_dir: str | Path = ".",
    deterministic_names: bool = False,
    workers: int = 1,
) -> tuple[list[ComparisonRow], dict, list[Path]]:
    """Run every grid point; returns (rows, summary, written files)."""
    rows, summary = _MODELS[scenario.model][2](scenario, workers)
    written = write_outputs(scenario, rows, summary, out_dir, deterministic_names)
    return rows, summary, written


def output_stem(name: str, deterministic: bool) -> str:
    """The file stem of a run's outputs: ``name``, plus a UTC timestamp unless names are deterministic."""
    return name if deterministic else f"{name}_{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}"


def write_outputs(
    scenario: Scenario,
    rows: list[ComparisonRow],
    summary: dict,
    out_dir: str | Path,
    deterministic_names: bool,
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = output_stem(scenario.name, deterministic_names)
    written = []
    if "csv" in scenario.outputs:
        path = out / f"{stem}.csv"
        _write_csv(path, rows)
        written.append(path)
    if "json" in scenario.outputs:
        path = out / f"{stem}.json"
        payload = {
            "scenario": scenario.name,
            "model": scenario.model,
            "seed": scenario.seed,
            "replications": scenario.replications,
            "summary": summary,
            "rows": [_row_dict(r) for r in rows],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def _row_dict(row: ComparisonRow) -> dict:
    return {
        "parameters": row.parameters,
        "analytic_value": row.analytic_value,
        "sim_value": row.sim_value,
        "sim_ci": row.sim_ci,
        "abs_err": row.abs_err,
        "rel_err": row.rel_err,
        "status": row.status,
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _write_csv(path: Path, rows: list[ComparisonRow]) -> None:
    param_cols: list[str] = []
    for row in rows:
        for key in row.parameters:
            if key not in param_cols:
                param_cols.append(key)
    header = param_cols + ["analytic_value", "sim_value", "sim_ci", "abs_err", "rel_err", "status"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            record = [_fmt(row.parameters.get(c, "")) for c in param_cols]
            record += [
                _fmt(row.analytic_value), _fmt(row.sim_value), _fmt(row.sim_ci),
                _fmt(row.abs_err), _fmt(row.rel_err), row.status,
            ]
            writer.writerow(record)
