"""CLI tests: outputs, exit codes, config handling, reproducibility."""
import hashlib
import json
import math
import shlex
from pathlib import Path

import pytest

from edgeq import ConfigError, SimConfig
from edgeq.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNSTABLE, build_parser, main
from edgeq.desim import load_sim_config


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MINIMAL_SIM_CONFIG = {
    "model": "two_phase_edge",
    "edge": {"lambda": 10.0, "mu1": 50.0, "mu2": 50.0, "r": 0.0},
    "simulation": {"horizon_requests": 40000, "warmup": 0.1, "seed": 7, "reps": 2},
    "output": {"deterministic_names": True},
}


class TestAnalyticCommands:
    def test_wait_prints_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "wait", "--lambda", "10", "--mu1", "50", "--mu2", "50", "--r", "0.1"
        )
        assert code == EXIT_OK
        assert "total_wait_s       0.00656200942" in out

    def test_wait_json_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "wait", "--lambda", "10", "--mu1", "50", "--mu2", "inf",
            "--r", "0.3", "--json",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["migration_service_s"] == 0.0

    def test_wait_rejects_unstable_with_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "analytic", "wait", "--lambda", "60", "--mu1", "50", "--mu2", "50"
        )
        assert code == EXIT_CONFIG
        assert "utilization" in err

    def test_deltat_mmk(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "deltat", "--mode", "mmk", "--lambda", "10", "--mu1", "50",
            "--mu2", "50", "--r", "0.1", "--k", "16", "--mu-cloud", "50", "--rho-cloud", "0.8",
        )
        assert code == EXIT_OK
        assert "delta_t_bound_s -0.0164379906" in out

    def test_deltat_ggk(self, capsys):
        code, out, _ = run_cli(
            capsys, "analytic", "deltat", "--mode", "ggk", "--lambda", "10", "--mu1", "50",
            "--mu2", "50", "--r", "0.1", "--k", "2", "--mu-cloud", "1", "--rho-cloud", "0.8",
            "--json",
        )
        assert code == EXIT_OK
        assert json.loads(out)["delta_t_bound_s"] == pytest.approx(-1.79143799, abs=1e-6)

    # mmk used to ignore these flags and print its -0.0164379906 bound
    @pytest.mark.parametrize("flag", ["--ca2", "--cs2", "--ca2-cloud", "--cs2-cloud"])
    def test_deltat_mmk_refuses_an_scv_flag(self, capsys, flag):
        code, out, err = run_cli(
            capsys, "analytic", "deltat", "--mode", "mmk", "--lambda", "10", "--mu1", "50",
            "--mu2", "50", "--r", "0.1", "--k", "16", "--mu-cloud", "50", "--rho-cloud", "0.8", flag, "4",
        )
        assert code == EXIT_CONFIG and out == ""
        assert err == f"error: {flag}: only --mode ggk reads it\n"

    def test_deltat_ggk_reads_an_unset_scv_as_1(self, capsys):
        argv = ("analytic", "deltat", "--mode", "ggk", "--lambda", "10", "--mu1", "50", "--mu2", "50",
                "--k", "2", "--mu-cloud", "1", "--rho-cloud", "0.8")
        unset = run_cli(capsys, *argv)
        ones = run_cli(capsys, *argv, "--ca2", "1", "--cs2", "1", "--ca2-cloud", "1", "--cs2-cloud", "1")
        assert unset == ones and unset[0] == EXIT_OK
        assert "ca2=1 cs2=1 ca2_cloud=1 cs2_cloud=1\n" in unset[1]

    def test_factor(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "factor", "--q", "2")
        assert code == EXIT_OK
        assert "overprovision_factor 1.5" in out

    @pytest.mark.parametrize("argv, record", [
        (("analytic", "factor", "--q", "2"), {"q": 2.0, "overprovision_factor": 1.5}),
        (("capacity", "equivalent", "--c-edge", "96", "--q", "2"),
         {"c_edge": 96.0, "q": 2.0, "rho_edge": 0.5, "rho_cloud": 0.5, "tau": 0.0, "c_cloud": 64.0}),
        (("capacity", "rule", "--lambda", "100", "--k", "4"),
         {"lambda": 100.0, "k": 4, "c_edge": 480.0, "c_cloud": 440.0}),
    ], ids=["factor", "equivalent", "rule"])
    def test_json_mode_prints_one_record(self, capsys, argv, record):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK
        assert json.loads(out) == pytest.approx(record, rel=1e-12)

    # an infinite arrival, phase-1 or cloud rate used to print a limit and exit 0
    @pytest.mark.parametrize("argv, field", [
        (("wait", "--lambda", "10", "--mu1", "inf", "--mu2", "50"), "QueueSpec.mu1"),
        (("wait", "--lambda", "inf", "--mu1", "50", "--mu2", "50"), "QueueSpec.lam"),
        (("deltat", "--lambda", "10", "--mu1", "inf", "--mu2", "50", "--k", "2", "--mu-cloud", "10",
          "--rho-cloud", "0.5"), "QueueSpec.mu1"),
        (("deltat", "--lambda", "10", "--mu1", "50", "--mu2", "50", "--k", "2", "--mu-cloud", "inf",
          "--rho-cloud", "0.5"), "CloudSpec.mu_cloud"),
    ])
    def test_infinite_rate_exits_2_naming_the_field(self, capsys, argv, field):
        code, _, err = run_cli(capsys, "analytic", *argv)
        assert code == EXIT_CONFIG
        assert f"{field}: must be finite and > 0, got inf" in err


class TestCapacityCommands:
    def test_equivalent_96_to_64(self, capsys):
        code, out, _ = run_cli(
            capsys, "capacity", "equivalent", "--c-edge", "96", "--q", "2"
        )
        assert code == EXIT_OK
        assert "c_cloud 64" in out

    @pytest.mark.parametrize("argv, message", [
        (("--rho-edge", "0.9", "--tau", "20"), "rho + tau/C = 1.1 >= 1; finite response time requires slack"),
        (("--rho-cloud", "1"), "rho_cloud = 1 must lie in [0, 1)"),
    ], ids=["edge-slack", "rho-cloud-1"])
    def test_equivalent_without_slack_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "capacity", "equivalent", "--c-edge", "100", "--q", "2", *argv)
        assert code == EXIT_CONFIG and out == ""
        assert message in err

    def test_rule(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "rule", "--lambda", "100", "--k", "4")
        assert code == EXIT_OK
        assert "c_edge 480" in out and "c_cloud 440" in out

    def test_rule_nan_rate_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "capacity", "rule", "--lambda", "nan", "--k", "4")
        assert code == EXIT_CONFIG
        assert "lambda_site: must be finite and > 0, got nan" in err

    # each used to print nan or inf and exit 0
    @pytest.mark.parametrize("argv, message", [
        (("analytic", "factor", "--q", "nan"), "q: must be > 0, got nan"),
        (("analytic", "factor", "--q", "1e-320"), "q: must be > 0 with a finite reciprocal, got 1e-320"),  # 1/q is inf
        (("capacity", "equivalent", "--c-edge", "inf", "--q", "2"), "DtrpSpec.capacity: must be finite and > 0, got inf"),
        (("capacity", "rule", "--lambda", "inf", "--k", "4"), "lambda_site: must be finite and > 0, got inf"),
        # these used to die with a ZeroDivisionError traceback (exit 1), or print inf and exit 0
        # 1/lambda overflows, so the record refuses the rate before a form divides by it
        (("analytic", "wait", "--lambda", "1e-320", "--mu1", "1e-310", "--mu2", "1"),
         "QueueSpec.lam: must be finite and > 0 with a finite reciprocal, got 1e-320"),
        (("analytic", "wait", "--lambda", "1e-300", "--mu1", "1e-160", "--mu2", "1"),
         "source wait out of float range, got inf"),
        (("analytic", "deltat", "--lambda", "1e-320", "--mu1", "1e-310", "--mu2", "1", "--k", "2",
          "--mu-cloud", "10", "--rho-cloud", "0.5"), "QueueSpec.lam: must be finite and > 0 with a finite reciprocal, got 1e-320"),
    ])
    def test_non_finite_argument_exits_2(self, capsys, argv, message):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert message in err

    def test_pack(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text(
            "vm_id,arrival_s,lifetime_s,cores\n"
            "v1,0,100,8\nv2,1,100,8\nv3,2,100,2\nv4,3,100,2\n"
        )
        code, out, _ = run_cli(
            capsys, "capacity", "pack", "--trace", str(trace),
            "--cores", "10", "--servers", "4", "--seed", "5",
        )
        assert code == EXIT_OK
        assert json.loads(out)["peak_servers_used"] == 2

    # ((k, servers, cores), seed, the record's fields that the site of each VM sets)
    @pytest.mark.parametrize("topology, seed, sites", [
        ((4, 2, 8), "1", dict(peak_servers_per_site=[0, 2, 2, 2], peak_servers_used=6,
                              rejected_or_queued=4, site_capacity_cores=40)),
        ((4, 2, 8), "2", dict(peak_servers_per_site=[2, 2, 2, 1], peak_servers_used=7,
                              rejected_or_queued=2, site_capacity_cores=46)),
        ((1, 2, 8), "1", dict(peak_servers_per_site=[2], peak_servers_used=2,
                              rejected_or_queued=8, site_capacity_cores=16)),
    ], ids=["k4-seed1", "k4-seed2", "k1"])
    def test_pack_uniform_sites_print_their_pinned_record(self, capsys, tmp_path, topology, seed, sites):
        # a trace without hints: each VM's site is the seeded uniform draw
        trace = tmp_path / "t.csv"
        sizes = [8, 4, 6, 2, 8, 4, 2, 6, 8, 2, 4, 6]
        trace.write_text("vm_id,arrival_s,lifetime_s,cores\n"
                         + "".join(f"v{i},{i},{10 + 3 * (i % 4)},{c}\n" for i, c in enumerate(sizes)))
        k, servers, cores = topology
        code, out, _ = run_cli(capsys, "capacity", "pack", "--trace", str(trace), "--k", str(k),
                               "--servers", str(servers), "--cores", str(cores), "--seed", seed)
        assert code == EXIT_OK
        record = {
            "trace": str(trace), "policy": "first_fit", "placed": 12, "completed": 12,
            "trace_summary": {"count": 12, "mean_cores": 5.0, "min_cores": 2, "max_cores": 8, "span_s": 11.0},
            "topology": {"k_sites": k, "servers_per_site": servers, "cores_per_server": cores}, **sites,
        }
        assert out == json.dumps(record, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("row", ["v,0,nan,2", "v,0,inf,2", "v,inf,1,2"])
    def test_pack_non_finite_value_exit_2(self, capsys, tmp_path, row):
        trace = tmp_path / "t.csv"
        trace.write_text(f"vm_id,arrival_s,lifetime_s,cores\nok,0,1,2\n{row}\n")
        code, _, err = run_cli(
            capsys, "capacity", "pack", "--trace", str(trace), "--cores", "8", "--servers", "2"
        )
        assert code == EXIT_CONFIG
        assert "t.csv:3" in err and "finite" in err

    def test_pack_out_writes_the_printed_record(self, capsys, tmp_path):
        trace, out_path = tmp_path / "t.csv", tmp_path / "report.json"
        trace.write_text("vm_id,arrival_s,lifetime_s,cores\nv1,0,100,8\nv2,1,100,2\n")
        code, out, _ = run_cli(
            capsys, "capacity", "pack", "--trace", str(trace), "--cores", "10", "--servers", "4",
            "--out", str(out_path),
        )
        assert code == EXIT_OK
        assert out == out_path.read_text() + f"wrote {out_path}\n"
        assert json.loads(out_path.read_text())["peak_servers_used"] == 1

    def test_pack_missing_trace_exit_2(self, capsys, tmp_path):
        trace = tmp_path / "absent.csv"
        code, _, err = run_cli(capsys, "capacity", "pack", "--trace", str(trace), "--cores", "8")
        assert code == EXIT_CONFIG
        assert f"trace file not found: {trace}" in err

    def test_pack_fractional_site_count_exit_2_naming_the_flag(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("vm_id,arrival_s,lifetime_s,cores\nv,0,1,2\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["capacity", "pack", "--trace", str(trace), "--k", "4.5"])
        assert exit_info.value.code == EXIT_CONFIG
        assert "argument --k: invalid int value: '4.5'" in capsys.readouterr().err

    def test_pack_site_count_below_1_exit_2_naming_the_field(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("vm_id,arrival_s,lifetime_s,cores\nv,0,1,2\n")
        code, _, err = run_cli(capsys, "capacity", "pack", "--trace", str(trace), "--k", "0")
        assert code == EXIT_CONFIG
        assert "Topology.k_sites: must be >= 1, got 0" in err

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_pack_hinted_trace_replays_its_hints(self, capsys, tmp_path, seed):
        # the uniform draw used to override the hints unless a flag asked for them: [1, 2] at seed 1
        trace = tmp_path / "t.csv"
        trace.write_text(
            "vm_id,arrival_s,lifetime_s,cores,site_hint\n"
            "v1,0,100,8,0\nv2,1,100,8,0\nv3,2,100,2,1\nv4,3,100,2,1\n"
        )
        code, out, _ = run_cli(
            capsys, "capacity", "pack", "--trace", str(trace), "--k", "2", "--cores", "10", "--servers", "4",
            "--seed", seed,
        )
        assert code == EXIT_OK
        assert json.loads(out)["peak_servers_per_site"] == [2, 1]

    def test_pack_one_site_reads_no_hint(self, capsys, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("vm_id,arrival_s,lifetime_s,cores\nv1,0,100,8\nv2,1,100,2\n")
        records = [
            run_cli(capsys, "capacity", "pack", "--trace", str(trace), *topology, "--cores", "10", "--servers", "4")
            for topology in (("--k", "1"), ())
        ]
        assert [code for code, _, _ in records] == [EXIT_OK, EXIT_OK]
        edge, cloud = (json.loads(out) for _, out, _ in records)
        assert edge["peak_servers_per_site"] == cloud["peak_servers_per_site"] == [1]
        assert {**edge, "topology": None} == {**cloud, "topology": None}


class TestSimulateCommand:
    def test_minimal_config_runs_and_writes_metrics(self, capsys, tmp_path):
        cfg = tmp_path / "mm1.json"
        cfg.write_text(json.dumps(MINIMAL_SIM_CONFIG))
        code, out, _ = run_cli(capsys, "simulate", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "mm1.metrics.json").read_text())
        assert payload["metrics_mean"]["mean_wait"] == pytest.approx(0.005, rel=0.2)
        assert "mean_wait_s" in out

    def test_reps_override(self, capsys, tmp_path):
        cfg = tmp_path / "mm1.json"
        cfg.write_text(json.dumps(MINIMAL_SIM_CONFIG))
        code, _, _ = run_cli(capsys, "simulate", str(cfg), "--out", str(tmp_path), "--reps", "3")
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "mm1.metrics.json").read_text())
        assert payload["replications"] == 3

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "simulate", str(tmp_path / "absent.json"))
        assert code == EXIT_CONFIG
        assert err == f"error: config file not found: {tmp_path / 'absent.json'}\n"

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        # rush_stat chose among rush-window statistics; the peak bin is now the only one
        rush_stat = with_keys(SIM_CONFIGS["mtm1_sinusoidal"], "simulation", {"rush_stat": "peak_bin"})
        # a law's mean restated a rate of edge, and the two could disagree
        means = [with_value(SIM_CONFIGS["two_phase_edge_renewal"], f"workload.{law}.mean", 0.02)
                 for law in ("arrivals", "service1", "service2")]
        # the profile's mean restated edge.lambda, and unequal values exited 2
        lambda_bar = with_value(SIM_CONFIGS["mtm1_sinusoidal"], "workload.profile.lambda_bar", 16.0)
        cases = [({**MINIMAL_SIM_CONFIG, "typo_section": {}}, "typo_section"), (rush_stat, "rush_stat"),
                 (lambda_bar, "lambda_bar")]
        for bad, key in cases + [(body, "mean") for body in means]:
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps(bad))
            code, _, err = run_cli(capsys, "simulate", str(cfg))
            assert code == EXIT_CONFIG
            assert f"unknown keys ['{key}']" in err

    # the stability check read edge.lambda while a law's mean set the simulated arrival rate
    @pytest.mark.parametrize("lam", [50.0, 80.0])
    def test_renewal_tandem_at_or_above_capacity_exit_2(self, capsys, tmp_path, lam):
        cfg = tmp_path / "renewal.json"
        cfg.write_text(json.dumps(with_value(SIM_CONFIGS["two_phase_edge_renewal"], "edge.lambda", lam)))
        code, _, err = run_cli(capsys, "simulate", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert f"source utilization {lam / 50:g} >= 1" in err
        assert not list(tmp_path.glob("*.metrics.json"))

    def test_instability_exit_3(self, capsys, tmp_path):
        cfg_data = {
            "model": "two_phase_edge",
            "edge": {"lambda": 80.0, "mu1": 50.0, "mu2": 50.0, "r": 0.0},
            "simulation": {
                "horizon_requests": 40000, "seed": 1, "reps": 1,
                "allow_unstable": True, "max_in_system": 500,
            },
            "output": {"deterministic_names": True},
        }
        cfg = tmp_path / "unstable.json"
        cfg.write_text(json.dumps(cfg_data))
        code, _, err = run_cli(capsys, "simulate", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_UNSTABLE
        assert "instability" in err

    def test_sinusoidal_run_honours_max_in_system(self, capsys, tmp_path):
        cfg_data = {
            "model": "mtm1_sinusoidal",
            "edge": {"lambda": 16.0, "mu1": 32.0, "mu2": 32.0, "r": 0.3},
            "workload": {"profile": {"amplitude": 0.8, "period_s": 200.0}},
            "simulation": {"horizon_s": 400.0, "seed": 3, "reps": 1, "max_in_system": 0},
        }
        cfg = tmp_path / "sin.json"
        cfg.write_text(json.dumps(cfg_data))
        code, _, err = run_cli(capsys, "simulate", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_UNSTABLE
        assert "> cap 0" in err

    @pytest.mark.parametrize(
        "key, expected_code, err_fragment",
        [
            ("dest_rate", EXIT_CONFIG, "simulation.dest_rate: must be > 0"),
            ("max_in_system", EXIT_UNSTABLE, "> cap 0"),
            ("horizon_requests", EXIT_OK, ""),
            ("horizon_s", EXIT_OK, ""),
        ],
    )
    def test_zero_value_is_honoured(self, capsys, tmp_path, key, expected_code, err_fragment):
        sim = {"horizon_requests": 2000, "seed": 7, "reps": 1, key: 0}
        if key == "horizon_s":
            del sim["horizon_requests"]
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({**MINIMAL_SIM_CONFIG, "simulation": sim}))
        code, _, err = run_cli(capsys, "simulate", str(cfg), "--out", str(tmp_path))
        assert code == expected_code
        assert err_fragment in err
        if code == EXIT_OK:
            metrics = json.loads((tmp_path / "zero.metrics.json").read_text())["metrics_mean"]
            assert metrics["count_served"] == 0 and metrics["mean_wait"] == 0.0

    def test_mtm1_writes_timeseries(self, capsys, tmp_path):
        cfg_data = {
            "model": "mtm1_sinusoidal",
            "edge": {"lambda": 16.0, "mu1": 32.0, "mu2": 32.0, "r": 0.3},
            "workload": {
                "profile": {"amplitude": 0.8, "period_s": 200.0}
            },
            "simulation": {"horizon_s": 400.0, "seed": 3, "reps": 2},
            "output": {"deterministic_names": True},
        }
        cfg = tmp_path / "sin.json"
        cfg.write_text(json.dumps(cfg_data))
        code, _, _ = run_cli(capsys, "simulate", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_OK
        ts = (tmp_path / "sin.timeseries.csv").read_text()
        assert ts.startswith("t_center_s,mean_wait_s,mean_rate_per_s")
        assert "rush_t1_s" in ts

    # (amplitude, phase, whether the peak rate 16 (1 + A) exceeds mu_eff = 32/1.3, the sha256 of the file)
    @pytest.mark.parametrize("amplitude, phase, overloaded, digest", [
        (0.8, 1.0, True, "1bc4d8b841d6faa533999ddb05f58f4b52d5e4fc4d80c2a5c5dd9183d42ec403"),
        (0.3, 0.0, False, "96583ebd88a77aeb4ff9326462c16479d8b74231345b7d7684022e02a7972176"),
    ], ids=["overloaded-phase-1", "never-overloaded"])
    def test_timeseries_csv_is_pinned(self, capsys, tmp_path, amplitude, phase, overloaded, digest):
        cfg = tmp_path / "sin.json"
        cfg.write_text(json.dumps({
            "model": "mtm1_sinusoidal",
            "edge": {"lambda": 16.0, "mu1": 32.0, "mu2": 32.0, "r": 0.3},
            "workload": {"profile": {"amplitude": amplitude, "period_s": 200.0, "phase": phase}},
            "simulation": {"horizon_s": 600.0, "bins_per_period": 20, "seed": 11, "reps": 2},
            "output": {"deterministic_names": True},
        }))
        assert run_cli(capsys, "simulate", str(cfg), "--out", str(tmp_path))[0] == EXIT_OK
        ts = (tmp_path / "sin.timeseries.csv").read_bytes()
        assert (b"rush_t1_s" in ts) == overloaded
        assert hashlib.sha256(ts).hexdigest() == digest

    def test_seed_reproducibility(self, capsys, tmp_path):
        cfg = tmp_path / "mm1.json"
        cfg.write_text(json.dumps(MINIMAL_SIM_CONFIG))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "simulate", str(cfg), "--out", str(out_a), "--seed", "55")[0] == EXIT_OK
        assert run_cli(capsys, "simulate", str(cfg), "--out", str(out_b), "--seed", "55")[0] == EXIT_OK
        assert (out_a / "mm1.metrics.json").read_bytes() == (out_b / "mm1.metrics.json").read_bytes()

    def test_reps_override_below_1_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "mm1.json"
        cfg.write_text(json.dumps(MINIMAL_SIM_CONFIG))
        code, _, err = run_cli(capsys, "simulate", str(cfg), "--out", str(tmp_path), "--reps", "0")
        assert code == EXIT_CONFIG
        assert "--reps: must be >= 1" in err

    def test_env_seed_not_an_integer_exit_2(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "mm1.json"
        cfg.write_text(json.dumps({**MINIMAL_SIM_CONFIG, "simulation": {"horizon_requests": 2000}}))
        monkeypatch.setenv("EDGEQ_SEED", "abc")
        code, _, err = run_cli(capsys, "simulate", str(cfg), "--out", str(tmp_path))
        assert code == EXIT_CONFIG
        assert "EDGEQ_SEED" in err

    def test_env_seed_default(self, capsys, tmp_path, monkeypatch):
        config = {
            "model": "two_phase_edge",
            "edge": {"lambda": 10.0, "mu1": 50.0, "mu2": 50.0, "r": 0.0},
            "simulation": {"horizon_requests": 5000, "reps": 1},
            "output": {"deterministic_names": True},
        }
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv("EDGEQ_SEED", "99")
        run_cli(capsys, "simulate", str(cfg), "--out", str(tmp_path / "env"))
        payload = json.loads((tmp_path / "env" / "c.metrics.json").read_text())
        assert payload["seed"] == 99


class TestValidateCommand:
    def test_tiny_scenario_prints_rows(self, capsys, tmp_path):
        scenario = {
            "name": "tiny",
            "model": "two_phase_wait",
            "grid": {"lam": [10.0]},
            "fixed": {"mu1": 50.0, "mu2": 50.0, "r": 0.1, "horizon_requests": 20000},
            "replications": 2,
            "seed": 5,
            "outputs": ["csv"],
        }
        path = tmp_path / "tiny.scenario"
        path.write_text(json.dumps(scenario))
        code, out, _ = run_cli(
            capsys, "validate", str(path), "--out", str(tmp_path), "--deterministic-names"
        )
        assert code == EXIT_OK
        assert "analytic=0.00656200942" in out
        assert (tmp_path / "tiny.csv").exists()

    def test_seed_option_runs_the_scenario_at_that_seed(self, capsys, tmp_path):
        path = tmp_path / "tiny.scenario"
        path.write_text(json.dumps({**TINY_SCENARIO, "seed": 5}))
        (tmp_path / "at_11.scenario").write_text(json.dumps({**TINY_SCENARIO, "seed": 11}))
        for out, argv in (("cli", (str(path), "--seed", "11")), ("file", (str(tmp_path / "at_11.scenario"),))):
            code, _, _ = run_cli(capsys, "validate", *argv, "--out", str(tmp_path / out), "--deterministic-names")
            assert code == EXIT_OK
        written = [(tmp_path / out / "tiny.json").read_bytes() for out in ("cli", "file")]
        assert written[0] == written[1] and json.loads(written[0])["seed"] == 11

    def test_seed_is_the_scenario_seed_whatever_edgeq_seed_says(self, capsys, tmp_path, monkeypatch):
        # validate reads --seed, else the scenario's seed, whose default is 0; EDGEQ_SEED is not read
        path = tmp_path / "tiny.scenario"
        path.write_text(json.dumps(TINY_SCENARIO))
        monkeypatch.setenv("EDGEQ_SEED", "5")
        code, _, _ = run_cli(capsys, "validate", str(path), "--out", str(tmp_path), "--deterministic-names")
        assert code == EXIT_OK
        assert json.loads((tmp_path / "tiny.json").read_text())["seed"] == 0

    def test_missing_scenario_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "validate", "missing.scenario")
        assert code == EXIT_CONFIG
        assert "not found" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_1_exit_2(self, capsys, tmp_path, workers):
        # both used to run serially and exit 0
        scenario = tmp_path / "tiny.scenario"
        scenario.write_text(json.dumps(TINY_SCENARIO))
        code, _, err = run_cli(capsys, "validate", str(scenario), "--out", str(tmp_path), "--workers", workers)
        assert code == EXIT_CONFIG
        assert f"--workers: must be >= 1, got {workers}" in err
        assert not list(tmp_path.glob("tiny*.csv"))


SIM_CONFIGS = {
    "two_phase_edge": {
        "model": "two_phase_edge",
        "edge": {"lambda": 10.0, "mu1": 50.0, "mu2": "inf", "r": 0.2},
        "network": {"t_edge_s": 0.001},
        "simulation": {"horizon_requests": 1000, "dest_rate": 40.0, "dest_home_load": 5.0},
    },
    "two_phase_edge_renewal": {
        "model": "two_phase_edge",
        "edge": {"lambda": 10.0, "mu1": 50.0, "mu2": 50.0},
        "workload": {
            "arrivals": {"scv": 0.25, "family": "erlang"},
            "service1": {"scv": 2.0, "family": "hyperexponential2"},
        },
        "simulation": {"horizon_s": 100.0},
    },
    "mtm1_sinusoidal": {
        "model": "mtm1_sinusoidal",
        "edge": {"lambda": 16.0, "mu1": 32.0, "mu2": 32.0, "r": 0.3},
        "workload": {"profile": {"amplitude": 0.5, "period_s": 200.0}},
        "simulation": {"horizon_s": 100.0},
    },
    "mmk_cloud": {
        "model": "mmk_cloud",
        "cloud": {"k": 4, "mu": 10.0, "rho": 0.7},
        "simulation": {"horizon_requests": 1000, "seed": 3, "reps": 2},
        "output": {"name": "pool"},
    },
}


class TestConfigNormalization:
    def test_round_trip_idempotent(self):
        for raw in SIM_CONFIGS.values():
            config, resolved = load_sim_config(raw)
            again, resolved_again = load_sim_config(json.loads(json.dumps(resolved)))
            assert config.model == raw["model"]
            assert again == config
            assert resolved_again == resolved
            assert resolved["simulation"]["warmup"] == SimConfig.warmup  # defaults are listed

    def test_period_resolves_to_gamma(self):
        config, resolved = load_sim_config(SIM_CONFIGS["mtm1_sinusoidal"])
        assert resolved["workload"]["profile"]["gamma_rad_s"] == pytest.approx(2 * math.pi / 200)
        assert "period_s" not in resolved["workload"]["profile"]
        assert config.profile.gamma == resolved["workload"]["profile"]["gamma_rad_s"]

    def test_profile_takes_its_mean_rate_from_edge_lambda(self):
        config, resolved = load_sim_config(with_value(SIM_CONFIGS["mtm1_sinusoidal"], "edge.lambda", 20.0))
        assert config.profile.lambda_bar == config.queue.lam == 20.0
        assert "lambda_bar" not in resolved["workload"]["profile"]

    def test_gamma_and_period_mutually_exclusive(self):
        raw = {
            "model": "mtm1_sinusoidal",
            "edge": {"lambda": 1.0, "mu1": 2.0, "mu2": 2.0, "r": 0.0},
            "workload": {"profile": {
                "amplitude": 0.5, "period_s": 10.0, "gamma_rad_s": 0.1,
            }},
            "simulation": {"horizon_s": 10.0},
        }
        with pytest.raises(ConfigError, match="exactly one"):
            load_sim_config(raw)


def _without(section: dict, key: str) -> dict:
    return {k: v for k, v in section.items() if k != key}


TINY_SCENARIO = {
    "name": "tiny", "model": "two_phase_wait", "grid": {"lam": [10.0]},
    "fixed": {"mu1": 50.0, "mu2": 50.0, "horizon_requests": 2000}, "replications": 1,
}
PACKING_SCENARIO = {
    "name": "tiny_fig8", "model": "packing_sweep", "grid": {"cores_per_site": [16]},
    "fixed": {"horizon_s": 50.0}, "replications": 1,
}
RUSH_FIXED = {
    "lambda_bar": 16.0, "mu1": 32.0, "mu2": 32.0, "period_s": 200.0, "horizon_periods": 1,
}


def with_keys(body: dict, section: str, keys: dict) -> dict:
    """``body`` with ``keys`` merged into its ``section``."""
    return {**body, section: {**body.get(section, {}), **keys}}


def with_value(body: dict, dotted: str, value) -> dict:
    """``body`` with the key at the dotted path ``dotted`` set to ``value``."""
    head, _, rest = dotted.partition(".")
    return {**body, head: with_value(body.get(head, {}), rest, value) if rest else value}


PROFILE = SIM_CONFIGS["mtm1_sinusoidal"]["workload"]["profile"]
# (model, section, keys set there, the key stderr must name) for keys the model does not read
UNREAD = [
    ("mmk_cloud", "workload", {"profile": PROFILE}, "workload.profile"),
    ("mmk_cloud", "simulation", {"two_stage_service": True}, "simulation.two_stage_service"),
    ("mmk_cloud", "simulation", {"dest_rate": 40.0}, "simulation.dest_rate"),
    ("mmk_cloud", "simulation", {"bins_per_period": 0}, "simulation.bins_per_period"),
    ("mmk_cloud", "edge", SIM_CONFIGS["mtm1_sinusoidal"]["edge"], "does not read edge"),
    ("mtm1_sinusoidal", "cloud", SIM_CONFIGS["mmk_cloud"]["cloud"], "does not read cloud"),
    ("mtm1_sinusoidal", "simulation", {"horizon_requests": 1000}, "simulation.horizon_requests"),
    ("mtm1_sinusoidal", "simulation", {"dest_home_load": 3.0}, "simulation.dest_home_load"),
    ("mtm1_sinusoidal", "simulation", {"allow_unstable": True}, "simulation.allow_unstable"),
    ("two_phase_edge", "workload", {"profile": PROFILE}, "workload.profile"),
    ("two_phase_edge", "simulation", {"horizon_s": 10.0}, "simulation.horizon_s"),
]

# (model, simulation key, a value outside the key's domain) for keys the model reads
SIM_DOMAIN = [
    ("two_phase_edge", "warmup", 1.5), ("two_phase_edge", "warmup", math.nan),
    ("two_phase_edge", "dest_home_load", -5.0), ("two_phase_edge", "max_in_system", -1),
    ("two_phase_edge", "dest_rate", -1.0), ("two_phase_edge", "horizon_requests", -3),
    ("mtm1_sinusoidal", "bins_per_period", 0),
    # float(True) is 1.0, and an event log of false wrote a file named False
    ("two_phase_edge", "dest_home_load", True), ("two_phase_edge", "event_log", False),
]
# (model, config key, a value outside the domain of the spec field the key sets)
SPEC_DOMAIN = [
    ("two_phase_edge", "edge.lambda", -10.0), ("mmk_cloud", "cloud.rho", -0.5),
    ("two_phase_edge", "network.t_edge_s", -0.001), ("mtm1_sinusoidal", "workload.profile.amplitude", 1.5),
    # NaN and infinity used to run on (exit 0), fail naming no key, or crash
    ("mtm1_sinusoidal", "workload.profile.phase", "nan"), ("two_phase_edge", "edge.lambda", "inf"),
    ("two_phase_edge", "edge.mu1", "inf"), ("mmk_cloud", "cloud.mu", "inf"),
    ("two_phase_edge", "network.t_edge_s", "inf"),
    ("two_phase_edge", "network.t_cloud_s", "inf"),
    # float(True) is 1.0, so a boolean rate ran at 1/s
    ("two_phase_edge", "edge.lambda", True), ("two_phase_edge", "edge.r", True),
]


def test_an_int_too_large_for_a_float_exits_2_naming_the_key(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(with_value(SIM_CONFIGS["two_phase_edge"], "edge.lambda", 10**400)))
    code, _, err = run_cli(capsys, "simulate", str(path), "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert "config.edge.lambda:" in err

# (model, config key, the refusal) of each rate the run divides by, set to 1e-310, whose reciprocal overflows:
# each rate field owns the rule, and the pool's arrival rate rho*k*mu, which spans fields, keeps its own
FINITE_RATE, RATE = "must be finite and > 0 with a finite reciprocal, got 1e-310", "must be > 0 with a finite reciprocal, got 1e-310"
TINY_RATES = [
    ("two_phase_edge", "edge.lambda", f"config.edge.lambda: {FINITE_RATE}"),
    ("two_phase_edge", "edge.mu1", f"config.edge.mu1: {FINITE_RATE}"),
    ("two_phase_edge", "simulation.dest_rate", f"config.simulation.dest_rate: {RATE}"),
    ("mmk_cloud", "cloud.rho",
     "cloud.rho (SimConfig.cloud): the arrival rate rho*k*mu must be large enough for a finite reciprocal, got "),
    ("mmk_cloud", "cloud.mu", f"config.cloud.mu: {FINITE_RATE}"),
    ("mtm1_sinusoidal", "edge.mu1", f"config.edge.mu1: {FINITE_RATE}"),
    ("two_phase_edge", "edge.mu2", f"config.edge.mu2: {RATE}"),
]


@pytest.mark.parametrize(
    "command, body, key",
    [
        ("simulate", {**MINIMAL_SIM_CONFIG, "capacity": {"q": 2.0}}, "capacity"),
        ("simulate", {**MINIMAL_SIM_CONFIG, "output": {"formats": ["csv"]}}, "formats"),
        ("simulate", {**MINIMAL_SIM_CONFIG, "edge": _without(MINIMAL_SIM_CONFIG["edge"], "mu1")}, "mu1"),
        ("simulate", {**MINIMAL_SIM_CONFIG, "edge": 10.0}, "config.edge: expected an object, got 10.0"),
        ("simulate", {"model": "mmk_cloud", "cloud": {"k": 2, "mu": 10.0},
                      "simulation": {"horizon_requests": 1000}}, "rho"),
        ("validate", {**TINY_SCENARIO, "fixed": {"mu1": 50.0, "horizon_request": 2000}}, "horizon_request"),
        ("validate", {**TINY_SCENARIO, "model": "mobility_crossover"}, "'r'"),
        ("validate", {**TINY_SCENARIO, "model": "rush_hour", "grid": {"amplitude": [0.5]},
                      "fixed": _without(RUSH_FIXED, "lambda_bar")}, "lambda_bar"),
        ("validate", {**TINY_SCENARIO, "model": "excess_wait", "grid": {"amplitude": [0.1]},
                      "fixed": {"rho": 0.5, "mu_eff": 10.0, "period_s": 100.0, "gamma_rad_s": 0.1}},
         "gamma_rad_s"),
        ("validate", {**TINY_SCENARIO, "model": "rush_hour",
                      "grid": {"amplitude": [0.5], "mu1": [32.0]}, "fixed": RUSH_FIXED}, "mu1"),
        # bool("false") is True, so a string flag must not switch the stability guard off
        ("simulate", {**MINIMAL_SIM_CONFIG, "edge": {**MINIMAL_SIM_CONFIG["edge"], "lambda": 80.0},
                      "simulation": {**MINIMAL_SIM_CONFIG["simulation"], "allow_unstable": "false"}},
         "allow_unstable"),
        # tuple("csv") is ('c', 's', 'v'), so outputs must be a JSON list
        ("validate", {**TINY_SCENARIO, "outputs": "csv"}, "outputs"),
        # only the tandem models draw from renewal laws; the others must not ignore one
        ("simulate", {**SIM_CONFIGS["mtm1_sinusoidal"], "workload": {
            **SIM_CONFIGS["mtm1_sinusoidal"]["workload"], "arrivals": {"scv": 1.0}}}, "arrivals"),
        ("simulate", {**SIM_CONFIGS["mmk_cloud"], "workload": {"service1": {"scv": 1.0}}}, "service1"),
        ("validate", {**PACKING_SCENARIO, "fixed": {**PACKING_SCENARIO["fixed"], "k_sites": 0}}, "k_sites"),
        ("validate", {**PACKING_SCENARIO, "fixed": {**PACKING_SCENARIO["fixed"], "k_sites": -2}}, "k_sites"),
        # renewal laws run under two_phase_edge; the old duplicate name is an unknown model
        ("simulate", {**SIM_CONFIGS["two_phase_edge_renewal"], "model": "gg1_edge"}, "gg1_edge"),
        # int(2.5) is 2, so a count must be a whole number
        ("simulate", {**SIM_CONFIGS["mmk_cloud"], "cloud": {"k": 2.5, "mu": 10.0, "rho": 0.7}}, "cloud.k"),
        ("simulate", {**MINIMAL_SIM_CONFIG, "simulation": {**MINIMAL_SIM_CONFIG["simulation"], "reps": 0}},
         "reps"),
        # an infinite period used to set gamma to 0 and run on
        ("simulate", {**SIM_CONFIGS["mtm1_sinusoidal"], "workload": {"profile": {
            **SIM_CONFIGS["mtm1_sinusoidal"]["workload"]["profile"], "period_s": math.inf}}}, "profile.period_s"),
        # a profile's mean rate is edge.lambda
        ("simulate", _without(SIM_CONFIGS["mtm1_sinusoidal"], "edge"),
         "config.workload.profile: its mean rate is edge.lambda, and edge is not set"),
        # an infinite horizon used to fail in numpy's Poisson draw, naming no key
        *(("simulate", {**SIM_CONFIGS["mtm1_sinusoidal"], "simulation": {
            **SIM_CONFIGS["mtm1_sinusoidal"]["simulation"], "horizon_s": value}}, "simulation.horizon_s")
          for value in (math.inf, math.nan)),
        # str(5) is "5": a directory or file name must be a JSON string
        ("simulate", with_keys(MINIMAL_SIM_CONFIG, "output", {"dir": 5}), "config.output.dir: must be a string"),
        ("simulate", with_keys(MINIMAL_SIM_CONFIG, "output", {"name": True}), "config.output.name: must be a string"),
        # a value outside its field's domain used to fail naming no key, run on (a negative
        # home load ran as 0) or exit 3 (a negative in-system cap)
        *(("simulate", with_keys(SIM_CONFIGS[model], "simulation", {key: value}), f"simulation.{key}")
          for model, key, value in SIM_DOMAIN),
        # a value its spec field refuses used to name only the section, or no key
        *(("simulate", with_value(SIM_CONFIGS[model], key, value), f"config.{key}:") for model, key, value in SPEC_DOMAIN),
        # a pool with no arrivals used to run no request and exit 0 with every metric 0
        ("simulate", with_value(SIM_CONFIGS["mmk_cloud"], "cloud.rho", 0.0),
         "cloud.rho (SimConfig.cloud): the arrival rate rho*k*mu must be > 0"),
        ("simulate", {**with_value(SIM_CONFIGS["mmk_cloud"], "cloud.rho", 0.0), "simulation": {"horizon_s": 10.0}},
         "cloud.rho (SimConfig.cloud): the arrival rate rho*k*mu must be > 0"),
        # a rate whose reciprocal overflows used to fail in a sampler, naming its argument (mean, mu_eff)
        *(("simulate", with_value(SIM_CONFIGS[model], key, 1e-310), message) for model, key, message in TINY_RATES),
        # each rate finite, but 1/mu1 + r/mu2 overflows, so the effective service rate read 0.0
        ("simulate", with_value(with_value(with_value(SIM_CONFIGS["mtm1_sinusoidal"], "edge.mu1", 1e-308),
                                           "edge.mu2", 1e-308), "edge.r", 1.0),
         "config.edge: the effective service rate 1/(1/mu1 + r/mu2) must be > 0, got 0.0"),
        # a key the model does not read used to be dropped silently, exit 0
        *(("simulate", with_keys(SIM_CONFIGS[model], section, keys), key) for model, section, keys, key in UNREAD),
    ],
    ids=["capacity", "formats", "edge-mu1", "edge-not-object", "cloud-rho", "fixed-typo", "crossover-r",
         "rush-lambda_bar", "period-and-gamma", "rush-grid-mu1", "string-flag", "outputs-string",
         "mtm1-arrivals", "mmk-service1", "k_sites-0", "k_sites-negative", "gg1-edge",
         "cloud-k-fraction", "reps-0", "profile-period-inf", "profile-without-edge", "horizon_s-inf", "horizon_s-nan",
         "output-dir-number", "output-name-true",
         *(f"{key}-{value}" for _, key, value in SIM_DOMAIN),
         *(f"spec-{key}-{value}" for _, key, value in SPEC_DOMAIN),
         "cloud-rho-0-horizon_requests", "cloud-rho-0-horizon_s",
         *(f"{model}-{key}-1e-310" for model, key, _ in TINY_RATES),
         "mtm1_sinusoidal-mu_eff-0",
         *(f"{model}-unread-{key.split()[-1]}" for model, _, _, key in UNREAD)],
)
def test_config_faults_exit_2_naming_the_key(capsys, tmp_path, command, body, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(body))
    code, _, err = run_cli(capsys, command, str(path), "--out", str(tmp_path))
    assert code == EXIT_CONFIG
    assert key in err


SIM_NO_SEED = {**MINIMAL_SIM_CONFIG, "simulation": {"horizon_requests": 2000, "reps": 1}}
# (route, file name, its body, argv, EDGEQ_SEED, the message stderr must hold) for a seed of -1
SEED_ROUTES = [
    ("simulation.seed", "sim.json", with_keys(SIM_NO_SEED, "simulation", {"seed": -1}), "simulate {file} --out {out}",
     None, "config.simulation.seed: must be >= 0, got -1"),
    ("simulate--seed", "sim.json", SIM_NO_SEED, "simulate {file} --out {out} --seed -1", None, "--seed: must be >= 0, got -1"),
    ("EDGEQ_SEED", "sim.json", SIM_NO_SEED, "simulate {file} --out {out}", "-1", "EDGEQ_SEED: must be >= 0, got -1"),
    ("scenario-seed", "tiny.scenario", {**TINY_SCENARIO, "seed": -1}, "validate {file} --out {out}",
     None, "tiny.scenario.seed: must be >= 0, got -1"),
    ("validate--seed", "tiny.scenario", TINY_SCENARIO, "validate {file} --out {out} --seed -1",
     None, "--seed: must be >= 0, got -1"),
    ("pack--seed", "t.csv", "vm_id,arrival_s,lifetime_s,cores\nv,0,1,2\n",
     "capacity pack --trace {file} --cores 8 --seed -1", None, "--seed: must be >= 0, got -1"),
]


# a negative seed used to load, then fail mid-run with numpy's bare "expected non-negative integer"
@pytest.mark.parametrize("name, body, argv, env, message", [route[1:] for route in SEED_ROUTES],
                         ids=[route[0] for route in SEED_ROUTES])
def test_a_negative_seed_exits_2_naming_its_key(capsys, tmp_path, monkeypatch, name, body, argv, env, message):
    path, out = tmp_path / name, tmp_path / "out"
    path.write_text(body if isinstance(body, str) else json.dumps(body))
    if env is not None:
        monkeypatch.setenv("EDGEQ_SEED", env)
    code, _, err = run_cli(capsys, *argv.format(file=path, out=out).split())
    assert code == EXIT_CONFIG
    assert message in err
    assert not out.exists()


# each used to end in an uncaught IsADirectoryError or FileNotFoundError traceback, exit 1
@pytest.mark.parametrize("argv, message", [
    ("simulate {dir}", "Is a directory"),
    ("validate {dir}", "Is a directory"),
    ("capacity pack --trace {dir}", "Is a directory"),
    ("simulate {dir}/log.json --out {dir}", "No such file or directory"),  # an event log in no directory
], ids=["simulate-dir", "validate-dir", "pack-trace-dir", "event-log-dir-missing"])
def test_a_file_error_exits_2_without_a_traceback(capsys, tmp_path, argv, message):
    body = with_keys(MINIMAL_SIM_CONFIG, "simulation", {"event_log": str(tmp_path / "absent" / "events.csv")})
    (tmp_path / "log.json").write_text(json.dumps(body))
    code, _, err = run_cli(capsys, *argv.format(dir=tmp_path).split())
    assert code == EXIT_CONFIG
    assert err.startswith("error: ") and message in err


def readme_cli_lines() -> list[str]:
    """Each ``edgeq ...`` command of README's CLI block, its ``\\`` continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("edgeq ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_example_parses(line):
    argv = shlex.split(line, comments=True)
    assert argv[0] == "edgeq"
    build_parser().parse_args(argv[1:])  # a flag the parser does not know exits 2
