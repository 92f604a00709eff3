"""Scenario runner pairing closed-form predictions with simulation estimates.

A scenario names a comparison model, a parameter grid, and replication
count; running it yields one ComparisonRow per grid point (skipped points
keep their row, flagged in ``status``) plus optional CSV/JSON artifacts.
Rows are pure functions of (scenario, seed): re-running writes
byte-identical files when deterministic names are requested.
"""
from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Sequence

from . import analytic, capacity
from .desim import SimConfig, replicate
from .errors import ConfigError, DomainError
from .specs import CloudSpec, NetworkSpec, QueueSpec, SinusoidProfile
from .workload import SeededStream

COMPARISON_MODELS = (
    "two_phase_wait",
    "mobility_crossover",
    "rush_hour",
    "excess_wait",
    "packing_sweep",
)


@dataclass(frozen=True)
class Scenario:
    name: str
    model: str
    grid: dict[str, list]
    fixed: dict[str, object] = field(default_factory=dict)
    replications: int = 30
    seed: int = 0
    outputs: tuple[str, ...] = ("csv", "json")

    def validate(self) -> None:
        if self.model not in COMPARISON_MODELS:
            raise ConfigError(f"unknown comparison model {self.model!r}")
        if not self.grid or any(len(v) == 0 for v in self.grid.values()):
            raise ConfigError("parameter grid must be non-empty")
        if self.replications < 1:
            raise ConfigError("replication count must be >= 1")
        bad = set(self.outputs) - {"csv", "json"}
        if bad:
            raise ConfigError(f"unknown output formats {sorted(bad)}")


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


def _skip(params: dict, reason: str) -> ComparisonRow:
    return ComparisonRow(dict(params), math.nan, math.nan, math.nan, f"skipped: {reason}")


def load_scenario(source: str | Path) -> Scenario:
    """Load a scenario JSON file; bare names resolve to bundled scenarios."""
    path = Path(source)
    if not path.exists():
        bundled = resources.files("edgeq.scenarios").joinpath(str(source))
        if bundled.is_file():
            raw = json.loads(bundled.read_text())
            return _scenario_from_dict(raw, str(source))
        raise ConfigError(f"scenario file not found: {source}")
    return _scenario_from_dict(json.loads(path.read_text()), str(source))


def _scenario_from_dict(raw: dict, origin: str) -> Scenario:
    allowed = {"name", "model", "grid", "fixed", "replications", "seed", "outputs"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{origin}: unknown scenario keys {sorted(unknown)}")
    try:
        sc = Scenario(
            name=raw["name"],
            model=raw["model"],
            grid={k: list(v) for k, v in raw["grid"].items()},
            fixed=dict(raw.get("fixed", {})),
            replications=int(raw.get("replications", 30)),
            seed=int(raw.get("seed", 0)),
            outputs=tuple(raw.get("outputs", ("csv", "json"))),
        )
    except KeyError as exc:
        raise ConfigError(f"{origin}: missing scenario key {exc}") from None
    sc.validate()
    return sc


# ---------------------------------------------------------------------------
# Comparison runners


def _grid_points(grid: dict[str, list]) -> list[dict]:
    points = [{}]
    for name, values in grid.items():
        points = [{**p, name: v} for p in points for v in values]
    return points


def _point_stream(seed: int, index: int) -> SeededStream:
    # wide spacing leaves room for replicate() to take child streams
    return SeededStream(seed, (index + 1) * 1_000_000)


def _run_two_phase_wait(sc: Scenario, workers: int):
    fx = sc.fixed
    points = _grid_points(sc.grid)

    def one(item):
        idx, p = item
        params = {**p}
        try:
            spec = QueueSpec(p["lam"], fx.get("mu1", 50.0), fx.get("mu2", 50.0), p.get("r", fx.get("r", 0.0)))
            want = analytic.mm1_two_phase_wait(spec)
        except DomainError as exc:
            return _skip(params, str(exc))
        config = SimConfig(
            model="two_phase_edge",
            queue=spec,
            horizon_requests=int(fx.get("horizon_requests", 200_000)),
            warmup=float(fx.get("warmup", 0.1)),
        )
        agg = replicate(config, sc.replications, _point_stream(sc.seed, idx))
        mean, _, ci = agg.metric("mean_wait")
        return ComparisonRow(params, want, mean, ci)

    rows = _map_ordered(one, list(enumerate(points)), workers)
    return rows, {}


def _run_mobility_crossover(sc: Scenario, workers: int):
    fx = sc.fixed
    mu1 = float(fx.get("mu1", 50.0))
    mu2 = float(fx.get("mu2", 50.0))
    k = int(fx.get("cloud_k", 1))
    mu_cloud = float(fx.get("mu_cloud", mu1))
    net = NetworkSpec(float(fx.get("t_edge_s", 0.001)), float(fx.get("t_cloud_s", 0.028)))
    horizon = int(fx.get("horizon_requests", 100_000))
    warmup = float(fx.get("warmup", 0.1))
    points = _grid_points(sc.grid)

    def one(item):
        idx, p = item
        lam, r = float(p["lam"]), float(p["r"])
        params = {**p}
        try:
            edge_spec = QueueSpec(lam, mu1, mu2, r)
            # one cloud server per edge site at the same per-server load
            cloud_spec = CloudSpec(k, mu_cloud, lam / mu_cloud)
            bound = analytic.delta_t_bound_mmk(edge_spec, cloud_spec)
        except DomainError as exc:
            return _skip(params, str(exc))
        edge_cfg = SimConfig(
            model="two_phase_edge", queue=edge_spec, horizon_requests=horizon,
            warmup=warmup, network=net,
        )
        cloud_cfg = SimConfig(
            model="mmk_cloud", cloud=cloud_spec, horizon_requests=horizon,
            warmup=warmup, network=net,
        )
        edge = replicate(edge_cfg, sc.replications, _point_stream(sc.seed, 2 * idx))
        cloud = replicate(cloud_cfg, sc.replications, _point_stream(sc.seed, 2 * idx + 1))
        # cloud response uses the wait conditioned on queueing, mirroring the
        # conservative multiserver form inside the analytic bound
        edge_resp = edge.mean.mean_response
        cloud_resp = net.t_cloud + cloud.mean.mean_wait_conditional + 1.0 / mu_cloud
        sim_bound = (edge_resp - net.t_edge) - (cloud_resp - net.t_cloud)
        params.update(
            edge_response=edge_resp,
            cloud_response=cloud_resp,
            edge_wait=edge.mean.mean_wait,
            cloud_wait_conditional=cloud.mean.mean_wait_conditional,
        )
        return ComparisonRow(params, bound, sim_bound, edge.ci95["mean_wait"])

    rows = _map_ordered(one, list(enumerate(points)), workers)
    summary = {"delta_t": net.delta_t, "crossovers": {}}
    for r in sorted({float(p["r"]) for p in points}):
        ok = [row for row in rows if row.status == "ok" and float(row.parameters["r"]) == r]
        ok.sort(key=lambda row: float(row.parameters["lam"]))
        lams = [float(row.parameters["lam"]) for row in ok]
        if not lams:
            continue
        root = _bound_root(mu1, mu2, r, k, mu_cloud, net.delta_t, min(lams), max(lams))
        sim_cross = _sign_change(
            lams, [row.parameters["edge_response"] - row.parameters["cloud_response"] for row in ok]
        )
        summary["crossovers"][f"r={r:g}"] = {
            "analytic_root_lam": root,
            "sim_crossover_lam": sim_cross,
        }
    return rows, summary


def _bound_root(mu1, mu2, r, k, mu_cloud, delta_t, lo, hi) -> Optional[float]:
    def f(lam: float) -> float:
        try:
            edge = QueueSpec(lam, mu1, mu2, r)
            cloud = CloudSpec(k, mu_cloud, lam / mu_cloud)
            return analytic.delta_t_bound_mmk(edge, cloud) - delta_t
        except DomainError:
            return math.inf

    a, b = lo, hi
    # shrink b below the stability edge if needed
    for _ in range(200):
        if not math.isinf(f(b)):
            break
        b = a + 0.95 * (b - a)
    fa, fb = f(a), f(b)
    if math.isinf(fa) or fa > 0 or fb < 0:
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


def _rush_profile(fx: dict, amplitude: float, scale: float) -> tuple[SinusoidProfile, QueueSpec, float]:
    gamma = fx.get("gamma_rad_s")
    if gamma is None:
        gamma = 2.0 * math.pi / float(fx["period_s"])
    lam_bar = float(fx["lambda_bar"]) * scale
    mu1 = float(fx["mu1"]) * scale
    mu2 = float(fx["mu2"]) * scale
    r = float(fx.get("r", 0.0))
    profile = SinusoidProfile(lam_bar, amplitude, float(gamma))
    queue = QueueSpec(lam_bar, mu1, mu2, r)
    mu_eff = analytic.effective_service_rate(mu1, mu2, r)
    return profile, queue, mu_eff


def table_rush_hour(
    params: dict,
    amplitudes: Sequence[float],
    replications: int = 30,
    seed: int = 0,
    scale: float = 1.0,
    workers: int = 1,
) -> list[ComparisonRow]:
    """Rush-hour table: per amplitude, fluid drain estimate vs simulated rush wait.

    Columns mirror the published layout: overall mean wait, rush-window
    wait, fluid estimate, and their gap. ``scale`` multiplies lambda_bar,
    mu1 and mu2 together, under which the fluid column is invariant.
    """

    def one(item):
        idx, amp = item
        profile, queue, mu_eff = _rush_profile(params, amp, scale)
        row_params = {"amplitude": amp, "scale": scale}
        fluid = analytic.rush_hour_wait(profile, mu_eff)
        config = SimConfig(
            model="mtm1_sinusoidal",
            queue=queue,
            profile=profile,
            horizon_s=float(params.get("horizon_periods", 10)) * profile.period,
            warmup=float(params.get("warmup", 0.1)),
            bins_per_period=int(params.get("bins_per_period", 100)),
            rush_stat=str(params.get("rush_stat", "peak_bin")),
        )
        agg = replicate(config, replications, _point_stream(seed, idx))
        rush = agg.timeseries.rush_window()
        sim_rush = rush[2] if rush is not None else 0.0
        row_params.update(
            mean_wait=agg.mean.mean_wait,
            err_rush=sim_rush - fluid,
            rush_t1=rush[0] if rush else math.nan,
            rush_t2=rush[1] if rush else math.nan,
        )
        return ComparisonRow(row_params, fluid, sim_rush, agg.ci95["mean_wait"])

    return _map_ordered(one, list(enumerate(amplitudes)), workers)


def _run_rush_hour(sc: Scenario, workers: int):
    amplitudes = [float(a) for a in sc.grid["amplitude"]]
    scale = float(sc.fixed.get("scale", 16.0))
    base = table_rush_hour(sc.fixed, amplitudes, sc.replications, sc.seed, 1.0, workers)
    scaled = table_rush_hour(sc.fixed, amplitudes, sc.replications, sc.seed + 1, scale, workers)
    fluid_drift = max(
        abs(b.analytic_value - s.analytic_value) for b, s in zip(base, scaled)
    )
    return base + scaled, {"scale": scale, "fluid_scale_invariance_drift": fluid_drift}


def _run_excess_wait(sc: Scenario, workers: int):
    fx = sc.fixed
    mu_eff = float(fx["mu_eff"])
    rho = float(fx["rho"])
    gamma = fx.get("gamma_rad_s")
    if gamma is None:
        gamma = 2.0 * math.pi / float(fx["period_s"])
    gamma = float(gamma)
    lam_bar = rho * mu_eff
    stationary = rho / (mu_eff * (1.0 - rho))

    def one(item):
        idx, p = item
        amp = float(p["amplitude"])
        params = {**p}
        try:
            want = analytic.excess_wait_sinusoidal(rho, amp, gamma, mu_eff)
        except DomainError as exc:
            return _skip(params, str(exc))
        profile = SinusoidProfile(lam_bar, amp, gamma)
        config = SimConfig(
            model="mtm1_sinusoidal",
            queue=QueueSpec(lam_bar, mu_eff, math.inf, 0.0),
            profile=profile,
            horizon_s=float(fx.get("horizon_periods", 12)) * profile.period,
            warmup=float(fx.get("warmup", 0.1)),
        )
        agg = replicate(config, sc.replications, _point_stream(sc.seed, idx))
        excess = agg.mean.mean_wait - stationary
        params.update(mean_wait=agg.mean.mean_wait, stationary_wait=stationary)
        return ComparisonRow(params, want, excess, agg.ci95["mean_wait"])

    rows = _map_ordered(one, list(enumerate(_grid_points(sc.grid))), workers)
    return rows, {"stationary_wait": stationary}


def _run_packing_sweep(sc: Scenario, workers: int):
    fx = sc.fixed
    k_sites = int(fx.get("k_sites", 16))
    q = float(fx.get("q", 2.0))
    trace = capacity.synthetic_vm_trace(
        rate=float(fx.get("vm_rate", 16.0)),
        mean_lifetime=float(fx.get("mean_lifetime_s", 10.0)),
        horizon=float(fx.get("horizon_s", 400.0)),
        stream=SeededStream(sc.seed, 777),
        k_sites=k_sites,
    )
    grid = [int(c) for c in sc.grid["cores_per_site"]]
    points, cloud_peak, model_size = capacity.capacity_sweep(
        trace, k_sites, grid, q, policy=str(fx.get("policy", "first_fit"))
    )
    target = cloud_peak * capacity.edge_overprovision_factor(q)
    rows = [
        ComparisonRow(
            {"cores_per_site": pt.cores_per_site, "peak_queue": pt.peak_queue},
            float(target),
            float(pt.edge_capacity),
            0.0,
        )
        for pt in points
    ]
    best = min(points, key=lambda pt: pt.relative_error)
    summary = {
        "cloud_peak_cores": cloud_peak,
        "target_edge_cores": target,
        "model_cores_per_site": model_size,
        "argmin_cores_per_site": best.cores_per_site,
        "n_vms": len(trace),
    }
    return rows, summary


_RUNNERS: dict[str, Callable] = {
    "two_phase_wait": _run_two_phase_wait,
    "mobility_crossover": _run_mobility_crossover,
    "rush_hour": _run_rush_hour,
    "excess_wait": _run_excess_wait,
    "packing_sweep": _run_packing_sweep,
}


def _map_ordered(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Entry point and artifact writing


def run_scenario(
    scenario: Scenario,
    out_dir: str | Path = ".",
    deterministic_names: bool = False,
    workers: int = 1,
) -> tuple[list[ComparisonRow], dict, list[Path]]:
    """Run every grid point; returns (rows, summary, written files)."""
    scenario.validate()
    rows, summary = _RUNNERS[scenario.model](scenario, workers)
    written = write_outputs(scenario, rows, summary, out_dir, deterministic_names)
    return rows, summary, written


def write_outputs(
    scenario: Scenario,
    rows: list[ComparisonRow],
    summary: dict,
    out_dir: str | Path,
    deterministic_names: bool,
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = scenario.name if deterministic_names else (
        f"{scenario.name}_{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}"
    )
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
