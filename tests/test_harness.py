"""Scenario runner tests: validation, row invariants, artifact determinism."""
import dataclasses
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeq import (
    CloudSpec, ComparisonRow, ConfigError, DomainError, DtrpSpec, EdgeqError, EmptyTrace, NetworkSpec, PhaseMoments, QueueSpec,
    RenewalSpec, Scenario, SinusoidProfile, Topology, VariabilitySpec, load_scenario, mm1_two_phase_wait, run_scenario,
)
from edgeq import SimConfig, desim, harness
from edgeq.cli import EXIT_CONFIG, EXIT_OK, main
from edgeq.config import integral, real
from edgeq.harness import _grid_points, _sign_change


def tiny_two_phase_scenario(**overrides):
    base = dict(
        name="tiny",
        model="two_phase_wait",
        grid={"lam": [10.0, 40.0], "r": [0.1, 0.3]},
        fixed={"mu1": 50.0, "mu2": 50.0, "horizon_requests": 20_000},
        replications=3,
        seed=9,
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenarioValidation:
    def test_empty_grid_rejected_before_any_run(self):
        with pytest.raises(ConfigError):
            tiny_two_phase_scenario(grid={})
        with pytest.raises(ConfigError):
            tiny_two_phase_scenario(grid={"lam": []})

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            tiny_two_phase_scenario(model="nonsense")

    def test_bundled_scenarios_load(self):
        for name in ("fig4.scenario", "table1.scenario", "fig8.scenario"):
            load_scenario(name)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.scenario"
        # rush_stat chose among rush-window statistics; the peak bin is now the only one
        bogus = {"model": "two_phase_wait", "grid": {"lam": [1]}, "bogus": 1}
        rush_stat = {"model": "rush_hour", "grid": {"amplitude": [0.5]}, "fixed": {**RUSH_FIXED, "rush_stat": "peak_bin"}}
        for bad, key in ((bogus, "bogus"), (rush_stat, "rush_stat")):
            path.write_text(json.dumps({"name": "x", **bad}))
            with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\]"):
                load_scenario(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario("nope.scenario")


RUSH_FIXED = {"lambda_bar": 16.0, "mu1": 32.0, "mu2": 32.0, "period_s": 200.0, "horizon_periods": 1}
EXCESS_FIXED = {"rho": 0.5, "mu_eff": 10.0, "period_s": 100.0, "horizon_periods": 1}
CROSSOVER = dict(model="mobility_crossover", grid={"lam": [10.0], "r": [0.1]})
EXCESS = dict(model="excess_wait", grid={"amplitude": [0.1]})
# a fixed block per model, small enough that a case the cast let through would still finish quickly
MODEL_BASES = {
    "two_phase_wait": dict(fixed={"mu1": 50.0, "mu2": 50.0, "horizon_requests": 2000}),
    "mobility_crossover": dict(CROSSOVER, fixed={"horizon_requests": 2000}),
    "rush_hour": dict(model="rush_hour", grid={"amplitude": [0.5]}, fixed=RUSH_FIXED),
    "excess_wait": dict(EXCESS, fixed=EXCESS_FIXED),
    "packing_sweep": dict(model="packing_sweep", grid={"cores_per_site": [16]}, fixed={"horizon_s": 50.0}),
}
# (model, key, value) for each key a model cannot sweep, set outside its domain or to a non-integral count
OUT_OF_DOMAIN = [
    ("two_phase_wait", "mu1", 0.0), ("two_phase_wait", "mu2", -1.0), ("two_phase_wait", "horizon_requests", 0),
    ("two_phase_wait", "horizon_requests", 1.5), ("two_phase_wait", "horizon_requests", math.inf),
    ("mobility_crossover", "mu1", 0.0), ("mobility_crossover", "mu2", 0.0), ("mobility_crossover", "cloud_k", 0),
    ("mobility_crossover", "cloud_k", 1.5), ("mobility_crossover", "t_edge_s", -0.001),
    ("mobility_crossover", "t_cloud_s", -1.0), ("mobility_crossover", "horizon_requests", 0),
    ("rush_hour", "lambda_bar", -1.0), ("rush_hour", "mu1", 0.0), ("rush_hour", "mu2", 0.0),
    ("rush_hour", "r", 1.5), ("rush_hour", "period_s", 0.0), ("rush_hour", "gamma_rad_s", 0.0),
    ("rush_hour", "horizon_periods", 0), ("rush_hour", "scale", 0.0), ("rush_hour", "bins_per_period", 2.5),
    ("excess_wait", "period_s", -100.0), ("excess_wait", "gamma_rad_s", -0.1), ("excess_wait", "horizon_periods", 0),
    ("packing_sweep", "k_sites", 0), ("packing_sweep", "k_sites", 2.5), ("packing_sweep", "q", 0.0),
    ("packing_sweep", "q", 1e-320), ("excess_wait", "mu_eff", 1e-310),  # 1/q and 1/mu_eff overflow
    ("packing_sweep", "vm_rate", 0.0), ("packing_sweep", "mean_lifetime_s", 0.0), ("packing_sweep", "horizon_s", 0.0),
    ("packing_sweep", "policy", "worst_fit"),
    # spans and frequencies must be finite: an infinite one used to give skipped or zero rows
    ("rush_hour", "period_s", math.inf), ("rush_hour", "horizon_periods", math.inf),
    ("excess_wait", "period_s", math.inf), ("excess_wait", "gamma_rad_s", math.inf),
    ("excess_wait", "horizon_periods", math.inf), ("packing_sweep", "horizon_s", math.inf),
    # as are scales and the rates a run divides by or draws with
    ("rush_hour", "scale", math.inf), ("excess_wait", "mu_eff", math.inf),
    ("packing_sweep", "vm_rate", math.inf), ("packing_sweep", "mean_lifetime_s", math.inf),
    # keys cast by their SimConfig field used to pass the load and fail inside the first run
    ("two_phase_wait", "warmup", 1.0), ("mobility_crossover", "warmup", -0.1), ("excess_wait", "warmup", math.nan),
    ("rush_hour", "bins_per_period", 0),
    # keys cast by their spec field: rates other than mu2, and delays, must be finite; infinite
    # ones used to give skipped rows, run on, or crash
    ("two_phase_wait", "mu1", math.inf), ("mobility_crossover", "mu1", math.inf),
    ("mobility_crossover", "mu_cloud", math.inf), ("mobility_crossover", "t_edge_s", math.inf),
    ("mobility_crossover", "t_cloud_s", math.inf), ("rush_hour", "lambda_bar", math.inf), ("rush_hour", "mu1", math.inf),
]


def out_of_domain(model, key, value):
    """Scenario overrides that set ``key`` to ``value`` over the model's base fixed block."""
    base = MODEL_BASES[model]
    fixed = {k: v for k, v in base["fixed"].items() if (k, key) != ("period_s", "gamma_rad_s")}
    return dict(base, fixed={**fixed, key: value}), rf"\.{key}: must be"


class TestScenarioKeys:
    @pytest.mark.parametrize(
        "overrides, key",
        [
            (dict(fixed={"mu1": 50.0, "horizon_request": 2000}), "horizon_request"),
            (dict(model="mobility_crossover", grid={"lam": [10.0]}), "'r'"),
            (dict(model="rush_hour", grid={"amplitude": [0.5]},
                  fixed={k: v for k, v in RUSH_FIXED.items() if k != "lambda_bar"}), "lambda_bar"),
            (dict(model="excess_wait", grid={"amplitude": [0.1]},
                  fixed={"rho": 0.5, "mu_eff": 10.0, "period_s": 100.0, "gamma_rad_s": 0.1}), "gamma_rad_s"),
            (dict(model="rush_hour", grid={"amplitude": [0.5], "mu1": [32.0]}, fixed=RUSH_FIXED), "mu1"),
            (dict(grid={"lam": [10.0], "r": [0.1]}, fixed={"r": 0.2}), "'r'"),
            (dict(fixed={"mu1": "fast"}), "mu1"),
            (dict(grid={"lam": 5}), "grid.lam"),
            (dict(outputs="csv"), r"\.outputs: must be a list"),
            # fixed values outside a model's domain fail before any point runs
            (dict(CROSSOVER, fixed={"mu_cloud": 0.0}), "mu_cloud"),
            (dict(CROSSOVER, fixed={"mu_cloud": -5.0}), "mu_cloud"),
            (dict(EXCESS, fixed={**EXCESS_FIXED, "mu_eff": 0.0}), "mu_eff"),
            (dict(EXCESS, fixed={**EXCESS_FIXED, "mu_eff": -1.0}), "mu_eff"),
            (dict(EXCESS, fixed={**EXCESS_FIXED, "rho": 0.0}), "rho"),
            (dict(EXCESS, fixed={**EXCESS_FIXED, "rho": 1.0}), "rho"),
            (dict(EXCESS, fixed={**EXCESS_FIXED, "rho": 1.2}), "rho"),
            # float(True) is 1.0 and str(5) is "5": a number must not be a boolean, nor a name a number
            (dict(grid={"lam": [True]}), r"\.lam: must be a number, got True"),
            (dict(fixed={"mu1": True}), r"\.mu1: must be a number, got True"),
            (dict(name=5), r"\.name: must be a string, got 5"),
            *(out_of_domain(*case) for case in OUT_OF_DOMAIN),
        ],
        ids=["fixed-typo", "crossover-r", "rush-lambda_bar", "period-and-gamma", "rush-grid-mu1",
             "swept-and-fixed", "bad-value", "scalar-grid", "outputs-string", "mu_cloud-0",
             "mu_cloud-negative", "mu_eff-0", "mu_eff-negative", "rho-0", "rho-1", "rho-above-1",
             "lam-true", "mu1-true", "name-number",
             *(f"{model}-{key}-{value}" for model, key, value in OUT_OF_DOMAIN)],
    )
    def test_faults_raise_config_error_naming_the_key(self, tmp_path, overrides, key):
        # a scenario checks itself when built, so no run starts and no file is written
        with pytest.raises(ConfigError, match=key):
            run_scenario(tiny_two_phase_scenario(**overrides), out_dir=tmp_path)
        assert not list(tmp_path.iterdir())

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10**300, 10**300))
    def test_integral_reads_whole_numbers(self, n):
        assert integral(n) == integral(str(n)) == n
        if float(n) == n:
            assert integral(float(n)) == n

    @settings(max_examples=200, deadline=None)
    @given(st.floats().filter(lambda x: not x.is_integer()))
    @example(math.inf)
    @example(-math.inf)
    @example(math.nan)
    def test_integral_refuses_what_int_would_truncate(self, x):
        with pytest.raises(ValueError):
            integral(x)

    def test_infinite_mu2_in_fixed_block_runs(self, tmp_path):
        sc = tiny_two_phase_scenario(
            grid={"lam": [10.0]}, fixed={"mu1": 50.0, "mu2": "inf", "r": 0.3, "horizon_requests": 2000},
            replications=1,
        )
        rows, _, _ = run_scenario(sc, out_dir=tmp_path, deterministic_names=True)
        assert rows[0].status == "ok"
        assert rows[0].analytic_value == mm1_two_phase_wait(QueueSpec(10.0, 50.0, math.inf, 0.3))


def _cast(cls, name):
    return {f.name: f.metadata.get("cast") for f in dataclasses.fields(cls)}[name]


# ``simulate`` section -> {key: (spec record, the field the key sets)}
SIM_SPEC_KEYS = {
    "edge": {"lambda": (QueueSpec, "lam"), "mu1": (QueueSpec, "mu1"), "mu2": (QueueSpec, "mu2"), "r": (QueueSpec, "r")},
    "cloud": {"k": (CloudSpec, "k"), "mu": (CloudSpec, "mu_cloud"), "rho": (CloudSpec, "rho_cloud")},
    "network": {"t_edge_s": (NetworkSpec, "t_edge"), "t_cloud_s": (NetworkSpec, "t_cloud")},
    "profile": {"amplitude": (SinusoidProfile, "amplitude"),
                "gamma_rad_s": (SinusoidProfile, "gamma"), "period_s": (SinusoidProfile, "gamma"),  # gamma = 2 pi / period
                "phase": (SinusoidProfile, "phase")},
    "renewal": {"scv": (RenewalSpec, "scv"), "family": (RenewalSpec, "family")},
}
# scenario key -> (spec record, the field the key sets)
SCENARIO_SPEC_KEYS = {
    "lam": (QueueSpec, "lam"), "mu1": (QueueSpec, "mu1"), "mu2": (QueueSpec, "mu2"), "r": (QueueSpec, "r"),
    "lambda_bar": (SinusoidProfile, "lambda_bar"), "amplitude": (SinusoidProfile, "amplitude"),
    "gamma_rad_s": (SinusoidProfile, "gamma"), "period_s": (SinusoidProfile, "gamma"),
    "cloud_k": (CloudSpec, "k"), "mu_cloud": (CloudSpec, "mu_cloud"),
    "t_edge_s": (NetworkSpec, "t_edge"), "t_cloud_s": (NetworkSpec, "t_cloud"), "q": (DtrpSpec, "q"),
}
# sweepable keys stay plain numbers (`real`): the spec checks them per point, so a point
# outside the domain keeps its skipped row
SWEPT_FLOATS = {"lam", "r", "amplitude"}


def test_sim_config_keys_are_cast_by_the_field_declaration():
    """A table key that sets a SimConfig or spec field goes through the field's own ``checked`` cast."""
    declared = {f.name: f.metadata.get("cast") for f in dataclasses.fields(SimConfig)}
    own = {"horizon_requests", "horizon_s"}  # scenario keys: a run length >= 1, packing_sweep's trace span
    tables = [{"model": desim._CONFIG["model"]}, desim._CONFIG["simulation"][0]]
    tables += [{k: v for k, v in table.items() if k not in own} for _, table, _ in harness._MODELS.values()]
    shared = [(key, cast) for table in tables for key, (cast, _) in table.items() if key in declared]
    assert len(shared) > len(desim._CONFIG["simulation"][0]) - 2  # every simulation key but seed and reps
    for key, cast in shared:
        assert cast is not None and cast is declared[key], key

    workload = desim._CONFIG["workload"][0]
    sections = {name: desim._CONFIG[name][0] for name in ("edge", "cloud", "network")}
    sections.update(profile=workload["profile"][0], **{law: workload[law][0] for law in ("arrivals", "service1", "service2")})
    for name, table in sections.items():
        keys = SIM_SPEC_KEYS.get(name, SIM_SPEC_KEYS["renewal"])
        assert set(table) == set(keys), name  # every key of a spec section sets a field
        for key, (cast, _) in table.items():
            assert cast is _cast(*keys[key]), f"{name}.{key}"
    checked = 0
    for model, (sweep, table, _) in harness._MODELS.items():
        for key in set(table) & set(SCENARIO_SPEC_KEYS):
            if key in sweep:
                assert key in SWEPT_FLOATS and table[key][0] is real, f"{model}.{key}"
            else:
                assert table[key][0] is _cast(*SCENARIO_SPEC_KEYS[key]), f"{model}.{key}"
                checked += 1
    assert checked == 17  # two_phase_wait 2, mobility_crossover 6, rush_hour 6, excess_wait 2, packing_sweep 1


# record -> the keyword arguments of a valid instance
RECORDS = {
    QueueSpec: dict(lam=10.0, mu1=50.0, mu2=50.0, r=0.1),
    CloudSpec: dict(k=4, mu_cloud=10.0, rho_cloud=0.5),
    NetworkSpec: dict(t_edge=0.001, t_cloud=0.028),
    VariabilitySpec: dict(ca2=1.0, cs2=1.0),
    PhaseMoments: dict(mean1=0.02, var1=4e-4, mean2=0.02, var2=4e-4, r=0.1),
    SinusoidProfile: dict(lambda_bar=16.0, amplitude=0.5, gamma=0.1),
    DtrpSpec: dict(capacity=96.0, rho=0.5, tau=0.0, q=2.0),
    RenewalSpec: dict(scv=2.0, family="hyperexponential2"),
    Topology: dict(k_sites=4, servers_per_site=2, cores_per_server=16),
    SimConfig: dict(model="mmk_cloud", cloud=CloudSpec(2, 10.0, 0.5), horizon_s=100.0),
    Scenario: dict(name="tiny", model="two_phase_wait", grid={"lam": [10.0]}, fixed={"mu1": 50.0}),
}
CHECKED_FIELDS = [(cls, f) for cls in RECORDS for f in dataclasses.fields(cls) if "cast" in f.metadata]


def _build(cls, **kwargs):
    """``cls(**kwargs)``, or the type and message of the error it raises."""
    try:
        return cls(**kwargs)
    except EdgeqError as exc:
        return type(exc), str(exc)


# a None used to run unseeded (seed) or fail inside the run
@pytest.mark.parametrize("cls, field", CHECKED_FIELDS, ids=[f"{cls.__name__}.{f.name}" for cls, f in CHECKED_FIELDS])
def test_a_record_refuses_none_naming_the_field_unless_none_is_its_default(cls, field):
    valid = RECORDS[cls]
    built = _build(cls, **{**valid, field.name: None})
    if field.metadata["default"] is None:  # None reads as the field left out
        assert built == _build(cls, **{k: v for k, v in valid.items() if k != field.name})
        return
    error = ConfigError if cls in (SimConfig, Scenario) else DomainError
    assert isinstance(built, tuple) and built[0] is error, built
    assert re.search(rf"\.{field.name}\)?: must be set, got None$", built[1]), built[1]


def test_a_config_and_a_scenario_keep_their_cast_values():
    cfg = SimConfig(model="mmk_cloud", cloud=CloudSpec(2, 10.0, 0.5), horizon_requests=1000.0, warmup=0,
                    metrics=["mean_wait"])
    assert [(type(v), v) for v in (cfg.horizon_requests, cfg.warmup, cfg.metrics)] == [
        (int, 1000), (float, 0.0), (tuple, ("mean_wait",))]
    sc = tiny_two_phase_scenario(seed=3.0, outputs=["csv"])
    assert (type(sc.seed), sc.seed, sc.outputs) == (int, 3, ("csv",))


class TestGridHelpers:
    def test_grid_points_cartesian_product(self):
        pts = _grid_points({"a": [1, 2], "b": ["x"]})
        assert pts == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]

    def test_sign_change_interpolates(self):
        assert _sign_change([0, 1, 2], [-1.0, -0.5, 0.5]) == pytest.approx(1.5)
        assert _sign_change([0, 1], [1.0, 2.0]) is None


class TestRowInvariants:
    def test_errors_recomputable(self):
        row = ComparisonRow({"x": 1}, 0.25, 0.3, 0.01)
        assert row.abs_err == pytest.approx(abs(0.25 - 0.3), abs=1e-15)
        assert row.rel_err == pytest.approx(row.abs_err / 0.25, rel=1e-12)

    def test_zero_analytic_value(self):
        assert ComparisonRow({}, 0.0, 0.0, 0.0).rel_err == 0.0
        assert ComparisonRow({}, 0.0, 0.1, 0.0).rel_err == math.inf


class TestRunScenario:
    def test_rows_cover_grid_and_mark_unstable_points(self, tmp_path):
        rows, _, files = run_scenario(
            tiny_two_phase_scenario(), out_dir=tmp_path, deterministic_names=True
        )
        assert len(rows) == 4
        by_point = {(r.parameters["lam"], r.parameters["r"]): r for r in rows}
        assert by_point[(40.0, 0.3)].status.startswith("skipped")
        ok = by_point[(10.0, 0.1)]
        assert ok.status == "ok"
        assert ok.sim_value == pytest.approx(ok.analytic_value, rel=0.10)
        assert {f.suffix for f in files} == {".csv", ".json"}

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        sc = tiny_two_phase_scenario(grid={"lam": [10.0], "r": [0.1]})
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        _, _, files_a = run_scenario(sc, out_dir=a_dir, deterministic_names=True)
        _, _, files_b = run_scenario(sc, out_dir=b_dir, deterministic_names=True)
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_csv_is_rectangular_with_status_column(self, tmp_path):
        _, _, files = run_scenario(
            tiny_two_phase_scenario(), out_dir=tmp_path, deterministic_names=True
        )
        csv_path = next(f for f in files if f.suffix == ".csv")
        lines = csv_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[-1] == "status"
        assert all(len(line.split(",")) == len(header) for line in lines[1:])

    def test_workers_do_not_change_results(self, tmp_path):
        sc = tiny_two_phase_scenario()
        rows1, _, _ = run_scenario(sc, out_dir=tmp_path / "w1", deterministic_names=True)
        rows4, _, _ = run_scenario(sc, out_dir=tmp_path / "w4", deterministic_names=True, workers=4)
        assert [(r.parameters, r.sim_value) for r in rows1] == [
            (r.parameters, r.sim_value) for r in rows4
        ]

    def test_a_swept_rate_with_no_finite_reciprocal_keeps_a_skipped_row(self, tmp_path):
        # QueueSpec owns the reciprocal rule; the run's own second check used to exit 2 and lose every row
        sc = tiny_two_phase_scenario(grid={"lam": [1e-310, 10.0]}, fixed={**tiny_two_phase_scenario().fixed, "r": 0.1})
        path = tmp_path / "tiny.scenario"
        path.write_text(json.dumps(dataclasses.asdict(sc)))
        assert main(["validate", str(path), "--out", str(tmp_path), "--deterministic-names"]) == EXIT_OK
        rows = json.loads((tmp_path / "tiny.json").read_text())["rows"]
        assert [r["status"] for r in rows] == [
            "skipped: QueueSpec.lam: must be finite and > 0 with a finite reciprocal, got 1e-310", "ok",
        ]


class TestMobilityCrossover:
    @pytest.mark.parametrize("replications", [1, 3])
    def test_interval_adds_the_edge_and_cloud_intervals_in_quadrature(self, tmp_path, monkeypatch, replications):
        # sim_value is the edge response minus the cloud response; the two sides run on
        # independent streams, so their half-widths add in quadrature, and one run has none
        aggregates, replicate = [], harness.replicate

        def recording(config, n_runs, stream):
            aggregates.append(replicate(config, n_runs, stream))
            return aggregates[-1]

        monkeypatch.setattr(harness, "replicate", recording)
        sc = Scenario(
            name="cross", **CROSSOVER, fixed={"horizon_requests": 5000}, replications=replications, seed=12,
        )
        (row,), _, _ = run_scenario(sc, out_dir=tmp_path, deterministic_names=True)
        edge, cloud = (agg.ci95 for agg in aggregates)
        assert row.sim_ci == math.hypot(edge["mean_response"], cloud["mean_wait_conditional"])
        if replications == 1:
            assert row.sim_ci == 0.0
        else:
            assert row.sim_ci > max(edge["mean_response"], cloud["mean_wait_conditional"]) > 0.0


    def test_an_r_with_no_stable_point_has_no_crossover(self, tmp_path):
        # at r = 0.9 the source is unstable above lam = 26.3 (mu1 = mu2 = 50), so both points skip
        sc = Scenario(name="cross", model="mobility_crossover", grid={"lam": [30.0, 45.0], "r": [0.1, 0.9]},
                      fixed={"horizon_requests": 2000}, replications=1, seed=12)
        path = tmp_path / "cross.scenario"
        path.write_text(json.dumps(dataclasses.asdict(sc)))
        assert main(["validate", str(path), "--out", str(tmp_path), "--deterministic-names"]) == EXIT_OK
        payload = json.loads((tmp_path / "cross.json").read_text())
        status = {(row["parameters"]["lam"], row["parameters"]["r"]): row["status"] for row in payload["rows"]}
        assert [status[lam, 0.1] for lam in (30.0, 45.0)] == ["ok", "ok"]
        assert all(status[lam, 0.9].startswith("skipped: ") for lam in (30.0, 45.0))
        assert list(payload["summary"]["crossovers"]) == ["r=0.1"]


class TestTableRushHour:
    FIXED = {
        "lambda_bar": 16.0, "mu1": 32.0, "mu2": 32.0, "r": 0.3,
        "period_s": 200.0, "horizon_periods": 4, "warmup": 0.1, "scale": 32.0,
    }
    SKIPPED = "skipped: SinusoidProfile.amplitude: must be in [0, 1], got 1.5"  # the row of amplitude 1.5

    def scenario(self, seed, replications, amplitudes):
        return Scenario(
            name="rush", model="rush_hour", grid={"amplitude": list(amplitudes)}, fixed=self.FIXED,
            replications=replications, seed=seed,
        )

    def run(self, tmp_path, seed, replications=2, workers=1, amplitudes=(0.3, 0.8)):
        rows, summary, _ = run_scenario(
            self.scenario(seed, replications, amplitudes), out_dir=tmp_path / f"w{workers}",
            deterministic_names=True, workers=workers,
        )
        assert [(r.parameters["amplitude"], r.parameters["scale"]) for r in rows] == [
            (a, s) for s in (1.0, 32.0) for a in amplitudes
        ]
        return rows, summary

    def test_below_threshold_rows_read_zero(self, tmp_path):
        rows, _ = self.run(tmp_path, seed=3)
        for low, high in (rows[:2], rows[2:]):
            assert low.analytic_value == 0.0 and low.sim_value == 0.0
            assert high.analytic_value > 0.0

    def test_scaled_run_keeps_fluid_column(self, tmp_path):
        rows, summary = self.run(tmp_path, seed=3, replications=1)
        for base, scaled in zip(rows[:2], rows[2:]):
            assert scaled.analytic_value == pytest.approx(base.analytic_value, rel=1e-12)
        assert summary["scale"] == 32.0
        assert summary["fluid_scale_invariance_drift"] == pytest.approx(0.0, abs=1e-12)

    def test_err_column_matches_difference(self, tmp_path):
        rows, _ = self.run(tmp_path, seed=4)
        for row in rows:
            assert row.parameters["err_rush"] == pytest.approx(
                row.sim_value - row.analytic_value, abs=1e-12
            )

    def test_workers_give_equal_rows(self, tmp_path):
        one, _ = self.run(tmp_path, seed=5, replications=1)
        two, _ = self.run(tmp_path, seed=5, replications=1, workers=2)
        assert [(r.parameters, r.sim_value, r.sim_ci) for r in one] == [
            (r.parameters, r.sim_value, r.sim_ci) for r in two
        ]

    def test_scaled_rows_do_not_share_streams_with_the_next_seed(self, tmp_path, monkeypatch):
        # the scaled rows once ran on seed + 1: the streams of the next seed's scale-1 rows
        first_draws, replicate = [], harness.replicate

        def recording(config, n_runs, stream):
            first_draws.append(tuple(stream.child(0).generator().random(4).tolist()))
            return replicate(config, n_runs, stream)

        monkeypatch.setattr(harness, "replicate", recording)
        self.run(tmp_path, seed=3, replications=1)
        scaled = set(first_draws[2:])
        first_draws.clear()
        self.run(tmp_path, seed=4, replications=1)
        assert len(scaled) == 2 and not scaled & set(first_draws[:2])

    def test_out_of_range_amplitude_keeps_skipped_rows(self, tmp_path):
        rows, summary = self.run(tmp_path / "skip", seed=6, replications=1, amplitudes=(0.3, 0.8, 1.5))
        kept, _ = self.run(tmp_path / "kept", seed=6, replications=1)
        for row in (rows[2], rows[5]):
            assert row.status == self.SKIPPED
            assert math.isnan(row.analytic_value) and math.isnan(row.sim_value)
        # the skipped point is last, so the other points keep their streams
        assert [repr(vars(r)) for r in rows[:2] + rows[3:5]] == [repr(vars(r)) for r in kept]
        assert math.isfinite(summary["fluid_scale_invariance_drift"])

    def test_skipped_rows_equal_across_workers(self, tmp_path):
        one, _ = self.run(tmp_path, seed=6, replications=1, amplitudes=(0.3, 0.8, 1.5))
        two, _ = self.run(tmp_path, seed=6, replications=1, workers=2, amplitudes=(0.3, 0.8, 1.5))
        assert [repr(vars(r)) for r in one] == [repr(vars(r)) for r in two]

    def test_validate_writes_skipped_rows_and_exits_0(self, tmp_path):
        sc = self.scenario(seed=6, replications=1, amplitudes=(0.3, 0.8, 1.5))
        path = tmp_path / "rush.scenario"
        path.write_text(json.dumps(dataclasses.asdict(sc)))
        assert main(["validate", str(path), "--out", str(tmp_path), "--deterministic-names"]) == EXIT_OK
        assert self.SKIPPED in (tmp_path / "rush.csv").read_text()
        rows = json.loads((tmp_path / "rush.json").read_text())["rows"]
        assert [r["status"] for r in rows] == ["ok", "ok", self.SKIPPED] * 2


class TestPackingSweep:
    """A site size below the largest VM keeps a skipped row; the other sizes sweep as if alone."""

    def scenario(self, sizes):
        return Scenario(
            name="pack", model="packing_sweep", grid={"cores_per_site": list(sizes)},
            fixed={"horizon_s": 50.0}, replications=1, seed=8,
        )

    def run(self, tmp_path, sizes):
        rows, summary, _ = run_scenario(self.scenario(sizes), out_dir=tmp_path, deterministic_names=True)
        assert [r.parameters["cores_per_site"] for r in rows] == list(sizes)
        return rows, summary

    @pytest.mark.parametrize("sizes", [[0, 64], [4, 64], [96, -2, 4, 64]])
    def test_undersized_sites_keep_skipped_rows(self, tmp_path, sizes):
        # every VM size is at most 20 cores, and the trace's largest is above 4
        rows, summary = self.run(tmp_path / "skip", sizes)
        kept, kept_summary = self.run(tmp_path / "kept", [s for s in sizes if s >= 20])
        for row, size in zip(rows, sizes):
            if size < 1:
                assert row.status == f"skipped: Topology.cores_per_server: must be >= 1, got {size}"
            elif size < 20:
                wants = re.fullmatch(rf"skipped: VM vm\d+ wants (\d+) cores > server size {size}", row.status)
                assert wants and int(wants[1]) > size, row.status
            if size < 20:
                assert math.isnan(row.analytic_value) and math.isnan(row.sim_value)
        assert [repr(vars(r)) for r in rows if r.status == "ok"] == [repr(vars(r)) for r in kept]
        assert summary == kept_summary

    def test_rows_equal_across_workers(self, tmp_path):
        sc = self.scenario([96, 4, 32, 64, 0, 128])
        one, one_summary, _ = run_scenario(sc, out_dir=tmp_path / "w1", deterministic_names=True)
        two, two_summary, _ = run_scenario(sc, out_dir=tmp_path / "w2", deterministic_names=True, workers=2)
        assert [repr(vars(r)) for r in one] == [repr(vars(r)) for r in two]
        assert one_summary == two_summary
        assert [r.status.split(":")[0] for r in one] == ["ok", "skipped", "ok", "ok", "skipped", "ok"]

    def test_trace_without_vms_raises_empty_trace(self, tmp_path, capsys):
        # numpy's max of an empty column used to raise its own ValueError, naming no trace
        sc = dataclasses.replace(self.scenario([64]), fixed={"vm_rate": 0.001, "horizon_s": 1.0})
        with pytest.raises(EmptyTrace, match="no VM requests"):
            run_scenario(sc, out_dir=tmp_path / "out")
        path = tmp_path / "empty.scenario"
        path.write_text(json.dumps(dataclasses.asdict(sc)))
        assert main(["validate", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "no VM requests" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_argmin_is_null_without_ok_rows(self, tmp_path):
        rows, summary = self.run(tmp_path, [0, 4])
        assert all(r.status.startswith("skipped: ") for r in rows)
        assert summary["argmin_cores_per_site"] is None and summary["cloud_peak_cores"] > 0

    def test_validate_writes_skipped_rows_and_exits_0(self, tmp_path):
        path = tmp_path / "pack.scenario"
        path.write_text(json.dumps(dataclasses.asdict(self.scenario([0, 64]))))
        assert main(["validate", str(path), "--out", str(tmp_path), "--deterministic-names"]) == EXIT_OK
        rows = json.loads((tmp_path / "pack.json").read_text())["rows"]
        assert [r["status"].split(":")[0] for r in rows] == ["skipped", "ok"]

    @pytest.mark.parametrize("replications", [0, 2, 30, None])
    def test_replications_other_than_one_refused(self, tmp_path, capsys, replications):
        # one trace and one sweep: 30 used to write the rows of 1 and record 30; None takes the default, 30
        body = dict(dataclasses.asdict(self.scenario([64])), replications=replications)
        path = tmp_path / "pack.scenario"
        path.write_text(json.dumps(body))
        assert main(["validate", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "replications" in capsys.readouterr().err
        if replications is not None:
            with pytest.raises(ConfigError, match="replications"):
                run_scenario(dataclasses.replace(self.scenario([64]), replications=replications), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()
