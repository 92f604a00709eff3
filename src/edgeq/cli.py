"""Command-line interface.

Subcommands: ``analytic`` (closed-form evaluation), ``simulate`` (run the
discrete-event models from a JSON config), ``validate`` (scenario sweeps
pairing formulas with simulation), and ``capacity`` (planning formulas
and the trace-driven packing simulator).

Exit codes: 0 success, 2 validation/config or file error, 3 runtime
instability.
``EDGEQ_SEED`` provides the default seed when none is given. All numbers
print with 9 significant digits so regression files stay stable. Rates
are per second, times in seconds; ``mu2`` may be ``inf``; sinusoid
frequency may be given as ``gamma_rad_s`` or ``period_s`` (exactly one)
and is stored as rad/s.

``simulate`` configs and scenario files both go through the key tables
of ``edgeq.config``: an unknown key, a missing required key or a value
outside its key's domain exits 2 and names the key, as do a bad
``--reps``, ``--workers``, ``--seed``, ``--topology`` element and
``EDGEQ_SEED``. The ``config`` block of ``*.metrics.json`` lists every
resolved value, defaults included.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import analytic, capacity
from .config import count, integral, read, whole
from .desim import load_sim_config, replicate
from .errors import EdgeqError, InstabilityDetected
from .harness import load_scenario, output_stem, run_scenario
from .specs import CloudSpec, DtrpSpec, QueueSpec, VariabilitySpec
from .workload import SeededStream

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3


def _g(x: float) -> str:
    return f"{x:.9g}"


def _default_seed(value) -> int:
    if value is not None:
        return read("--seed", whole, value)
    return read("EDGEQ_SEED", whole, os.environ.get("EDGEQ_SEED", "0"))


def _report(args, inputs: dict, outputs: dict, pad: int = 0) -> int:
    """Print one calculator record: sorted JSON of ``inputs`` and ``outputs``, or an echo
    line of the inputs, then one ``key value`` line per output with the key padded to ``pad``."""
    if args.json:
        print(json.dumps({**inputs, **outputs}, sort_keys=True))
    else:
        print(" ".join(f"{key}={_g(value) if isinstance(value, float) else value}" for key, value in inputs.items()))
        for key, value in outputs.items():
            print(f"{key:<{pad}} {_g(value)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# analytic subcommand


def _cmd_analytic_wait(args) -> int:
    spec = QueueSpec(args.lam, args.mu1, args.mu2, args.r)
    source = analytic.mm1_source_wait(spec)
    dest = analytic.destination_wait(spec)
    return _report(args, {"lambda": args.lam, "mu1": args.mu1, "mu2": args.mu2, "r": args.r}, {
        "source_wait_s": source, "destination_wait_s": dest, "total_wait_s": source + dest,
        "migration_service_s": analytic.migration_service_time(spec),
    }, pad=18)


def _cmd_analytic_deltat(args) -> int:
    edge = QueueSpec(args.lam, args.mu1, args.mu2, args.r)
    cloud = CloudSpec(args.k, args.mu_cloud, args.rho_cloud)
    inputs = {
        "mode": args.mode, "lambda": args.lam, "mu1": args.mu1, "mu2": args.mu2,
        "r": args.r, "k": args.k, "mu_cloud": args.mu_cloud, "rho_cloud": args.rho_cloud,
    }
    if args.mode == "mmk":
        bound = analytic.delta_t_bound_mmk(edge, cloud)
    else:
        bound = analytic.delta_t_bound_ggk(
            edge, VariabilitySpec(args.ca2, args.cs2),
            cloud, VariabilitySpec(args.ca2_cloud, args.cs2_cloud),
        )
        inputs.update(ca2=args.ca2, cs2=args.cs2, ca2_cloud=args.ca2_cloud, cs2_cloud=args.cs2_cloud)
    return _report(args, inputs, {"delta_t_bound_s": bound})


def _cmd_analytic_factor(args) -> int:
    return _report(args, {"q": args.q}, {"overprovision_factor": capacity.edge_overprovision_factor(args.q)})


# ---------------------------------------------------------------------------
# simulate subcommand


def _cmd_simulate(args) -> int:
    path = Path(args.config)
    if not path.exists():
        print(f"config file not found: {path}", file=sys.stderr)
        return EXIT_CONFIG
    raw = json.loads(path.read_text())
    config, cfg = load_sim_config(raw)
    sim = cfg["simulation"]
    seed = _default_seed(args.seed if args.seed is not None else sim["seed"])
    reps = sim["reps"] if args.reps is None else read("--reps", count, args.reps)

    agg = replicate(config, reps, SeededStream(seed))

    out = cfg["output"]
    out_dir = Path(args.out if args.out is not None else out["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = output_stem(out["name"] or path.stem, out["deterministic_names"] or args.deterministic_names)

    payload = {
        "config": cfg,
        "seed": seed,
        "replications": reps,
        "metrics_mean": {f: getattr(agg.mean, f) for f in agg.mean.FIELDS},
        "metrics_stderr": agg.stderr,
        "metrics_ci95": agg.ci95,
    }
    metrics_path = out_dir / f"{stem}.metrics.json"
    metrics_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    written = [metrics_path]

    if agg.timeseries is not None:
        ts_path = out_dir / f"{stem}.timeseries.csv"
        with open(ts_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t_center_s", "mean_wait_s", "mean_rate_per_s"])
            for center, wait, rate in agg.timeseries.bins:
                writer.writerow([_g(center), _g(wait), _g(rate)])
            rush = agg.timeseries.rush_window()
            if rush is not None:
                writer.writerow([])
                writer.writerow(["rush_t1_s", "rush_t2_s", "rush_mean_wait_s"])
                writer.writerow([_g(rush[0]), _g(rush[1]), _g(rush[2])])
        written.append(ts_path)

    print(f"mean_wait_s {_g(agg.mean.mean_wait)}")
    print(f"mean_response_s {_g(agg.mean.mean_response)}")
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate subcommand


def _cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=read("--seed", whole, args.seed))
    rows, summary, written = run_scenario(
        scenario, out_dir=args.out, deterministic_names=args.deterministic_names,
        workers=read("--workers", count, args.workers),
    )
    for row in rows:
        pieces = [f"{k}={_g(v) if isinstance(v, float) else v}" for k, v in row.parameters.items()]
        pieces.append(f"analytic={_g(row.analytic_value)}")
        pieces.append(f"sim={_g(row.sim_value)}")
        pieces.append(f"rel_err={_g(row.rel_err)}")
        if row.status != "ok":
            pieces.append(row.status)
        print("  ".join(pieces))
    if summary:
        print(json.dumps(summary, sort_keys=True, default=str))
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# capacity subcommand


def _cmd_capacity_equivalent(args) -> int:
    c = capacity.cloud_capacity_equivalent(DtrpSpec(args.c_edge, args.rho_edge, args.tau, args.q), args.rho_cloud)
    return _report(args, {"c_edge": args.c_edge, "q": args.q, "rho_edge": args.rho_edge,
                          "rho_cloud": args.rho_cloud, "tau": args.tau}, {"c_cloud": c})


def _cmd_capacity_rule(args) -> int:
    c_edge, c_cloud = analytic.empirical_rule_capacities(args.lam, args.k)
    return _report(args, {"lambda": args.lam, "k": args.k}, {"c_edge": c_edge, "c_cloud": c_cloud})


def _parse_topology(text: str) -> capacity.Topology:
    mode, _, rest = text.partition(":")
    fields = {"k": 1, "servers": 1, "cores": 64}
    if rest:
        for part in rest.split(","):
            key, _, value = part.partition("=")
            if key not in fields or not value:
                raise EdgeqError(f"bad topology element {part!r}; use mode:k=..,cores=..,servers=..")
            fields[key] = read(f"--topology {key}", integral, value)
    return capacity.Topology(mode, fields["k"], fields["servers"], fields["cores"])


def _cmd_capacity_pack(args) -> int:
    trace = capacity.load_vm_trace(args.trace)
    topology = _parse_topology(args.topology)
    report = capacity.simulate_packing(
        trace, topology, policy=args.policy, site_assign=args.site_assign,
        stream=SeededStream(_default_seed(args.seed)),
    )
    record = {
        "trace": args.trace, "topology": args.topology, "policy": args.policy,
        "trace_summary": capacity.trace_summary(trace), **asdict(report),
    }
    text = json.dumps(record, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgeq",
        description="Edge-vs-cloud queueing trade-off calculator and simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analytic", help="evaluate closed-form formulas")
    an_sub = p_an.add_subparsers(dest="subcommand", required=True)

    p_wait = an_sub.add_parser("wait", help="two-phase edge waiting time")
    p_wait.add_argument("--lambda", dest="lam", type=float, required=True, help="arrival rate /s")
    p_wait.add_argument("--mu1", type=float, required=True, help="phase-1 service rate /s")
    p_wait.add_argument("--mu2", type=float, required=True, help="phase-2 rate /s, or 'inf'")
    p_wait.add_argument("--r", type=float, default=0.0, help="migration probability")
    p_wait.add_argument("--json", action="store_true")
    p_wait.set_defaults(func=_cmd_analytic_wait)

    p_dt = an_sub.add_parser("deltat", help="RTT-difference threshold for the edge to win")
    p_dt.add_argument("--mode", choices=("mmk", "ggk"), default="mmk")
    p_dt.add_argument("--lambda", dest="lam", type=float, required=True)
    p_dt.add_argument("--mu1", type=float, required=True)
    p_dt.add_argument("--mu2", type=float, required=True)
    p_dt.add_argument("--r", type=float, default=0.0)
    p_dt.add_argument("--k", type=int, required=True, help="cloud server count")
    p_dt.add_argument("--mu-cloud", dest="mu_cloud", type=float, required=True)
    p_dt.add_argument("--rho-cloud", dest="rho_cloud", type=float, required=True)
    p_dt.add_argument("--ca2", type=float, default=1.0, help="edge inter-arrival scv (ggk)")
    p_dt.add_argument("--cs2", type=float, default=1.0, help="edge service scv (ggk)")
    p_dt.add_argument("--ca2-cloud", dest="ca2_cloud", type=float, default=1.0)
    p_dt.add_argument("--cs2-cloud", dest="cs2_cloud", type=float, default=1.0)
    p_dt.add_argument("--json", action="store_true")
    p_dt.set_defaults(func=_cmd_analytic_deltat)

    p_f = an_sub.add_parser("factor", help="edge over-provisioning factor 1 + 1/q")
    p_f.add_argument("--q", type=float, required=True, help="VM packing factor")
    p_f.add_argument("--json", action="store_true")
    p_f.set_defaults(func=_cmd_analytic_factor)

    p_sim = sub.add_parser("simulate", help="run a simulation described by a JSON config")
    p_sim.add_argument("config", help="config file path")
    p_sim.add_argument("--seed", type=int, default=None, help="override seed (default EDGEQ_SEED)")
    p_sim.add_argument("--reps", type=int, default=None, help="override replication count")
    p_sim.add_argument("--out", default=None, help="output directory override")
    p_sim.add_argument("--deterministic-names", action="store_true")
    p_sim.set_defaults(func=_cmd_simulate)

    p_val = sub.add_parser("validate", help="run a comparison scenario")
    p_val.add_argument("scenario", help="scenario file or bundled name (fig4.scenario, ...)")
    p_val.add_argument("--out", default=".", help="output directory")
    p_val.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_val.add_argument("--workers", type=int, default=1, help="bounded worker pool size")
    p_val.add_argument("--deterministic-names", action="store_true")
    p_val.set_defaults(func=_cmd_validate)

    p_cap = sub.add_parser("capacity", help="capacity planning tools")
    cap_sub = p_cap.add_subparsers(dest="subcommand", required=True)

    p_eq = cap_sub.add_parser("equivalent", help="cloud capacity equivalent to an edge build")
    p_eq.add_argument("--c-edge", dest="c_edge", type=float, required=True)
    p_eq.add_argument("--q", type=float, required=True)
    p_eq.add_argument("--rho-edge", dest="rho_edge", type=float, default=0.5)
    p_eq.add_argument("--rho-cloud", dest="rho_cloud", type=float, default=0.5)
    p_eq.add_argument("--tau", type=float, default=0.0, help="total expected upload time")
    p_eq.add_argument("--json", action="store_true")
    p_eq.set_defaults(func=_cmd_capacity_equivalent)

    p_rule = cap_sub.add_parser("rule", help="two-sigma peak capacities")
    p_rule.add_argument("--lambda", dest="lam", type=float, required=True)
    p_rule.add_argument("--k", type=int, required=True)
    p_rule.add_argument("--json", action="store_true")
    p_rule.set_defaults(func=_cmd_capacity_rule)

    p_pack = cap_sub.add_parser("pack", help="replay a VM trace against a topology")
    p_pack.add_argument("--trace", required=True, help="CSV: vm_id,arrival_s,lifetime_s,cores[,site_hint]")
    p_pack.add_argument("--topology", required=True, help="edge:k=4,cores=96[,servers=1] or cloud:cores=64")
    p_pack.add_argument("--policy", default="first_fit", choices=capacity.POLICIES)
    p_pack.add_argument("--site-assign", dest="site_assign", default="uniform",
                        choices=("uniform", "hint"))
    p_pack.add_argument("--seed", type=int, default=None)
    p_pack.add_argument("--out", default=None, help="write the JSON report here too")
    p_pack.set_defaults(func=_cmd_capacity_pack)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstabilityDetected as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (EdgeqError, ValueError, OSError) as exc:  # OSError: a path that is a directory, or in none
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
