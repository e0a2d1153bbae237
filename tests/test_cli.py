import csv
import functools
import json
import math
import os
import re
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import uamnoise
from uamnoise import nnet
from uamnoise.cli import main
from uamnoise.errors import SimulationError
from uamnoise.network import Network, NoiseZone, generate_scenario, save_scenario

from conftest import make_corridor_network, make_line_network


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scenario_file(tmp_path):
    net = make_line_network(link_len_m=3000.0)
    sc = generate_scenario(net, 2, [("A", "C"), ("C", "A")],
                           departure_spacing_s=30.0, seed=3)
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    return str(path)


class TestSimulate:
    def test_baseline_hold(self, runner, scenario_file, tmp_path):
        out = tmp_path / "metrics.json"
        trace = tmp_path / "trace.csv"
        result = runner.invoke(main, [
            "simulate", "--scenario", scenario_file, "--policy", "baseline:hold",
            "--seed", "0", "--trace", str(trace), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.exists() and trace.exists()
        doc = json.loads(out.read_text())
        assert doc[0]["los_count"] >= 0

    def test_missing_scenario_is_validation_error(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--scenario", str(tmp_path / "nope.json"),
            "--policy", "baseline:hold", "--seed", "0"])
        assert result.exit_code == 1

    def test_negative_seed_names_the_option(self, runner, scenario_file, tmp_path):
        out = tmp_path / "metrics.json"
        result = runner.invoke(main, [
            "simulate", "--scenario", scenario_file, "--policy", "baseline:hold",
            "--seed", "-1", "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "--seed must be finite and non-negative, got -1" in result.output
        assert "TrainConfig" not in result.output
        assert not out.exists()

    def test_determinism_byte_identical(self, runner, scenario_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = runner.invoke(main, [
                "simulate", "--scenario", scenario_file, "--policy", "baseline:hold",
                "--seed", "7", "--out", str(out)])
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestTrainEvalSweep:
    def test_train_then_eval(self, runner, scenario_file, tmp_path):
        ck = tmp_path / "policy.json"
        result = runner.invoke(main, [
            "train", "--scenario", scenario_file, "--rho", "0.5",
            "--iterations", "2", "--seed", "0", "--out", str(ck),
            "--hidden", "4", "--minibatch_size", "32",
            "--metrics-log", str(tmp_path / "log.csv")])
        assert result.exit_code == 0, result.output
        assert ck.exists()

        out = tmp_path / "eval.json"
        result = runner.invoke(main, [
            "simulate", "--scenario", scenario_file, "--policy", str(ck),
            "--seed", "0", "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert len(doc) == 1 and doc[0]["rho"] == 0.5

    def test_train_metrics_log_deterministic(self, runner, scenario_file, tmp_path):
        logs = []
        for name in ("l1.csv", "l2.csv"):
            result = runner.invoke(main, [
                "train", "--scenario", scenario_file, "--rho", "0.5",
                "--iterations", "2", "--seed", "3", "--out", str(tmp_path / f"{name}.ck"),
                "--hidden", "4", "--minibatch_size", "32",
                "--metrics-log", str(tmp_path / name)])
            assert result.exit_code == 0, result.output
            logs.append((tmp_path / name).read_bytes())
        assert logs[0] == logs[1]

    def test_sweep(self, runner, tmp_path):
        net = make_corridor_network(length_m=2000.0)
        sc = generate_scenario(net, 1, [("A", "B")], seed=0)
        path = tmp_path / "tiny.json"
        save_scenario(sc, path)
        out_dir = tmp_path / "sweep"
        result = runner.invoke(main, [
            "sweep", "--scenario", str(path), "--rhos", "0.0,1.0",
            "--iterations", "2", "--seeds", "3,1", "--out-dir", str(out_dir),
            "--hidden", "4", "--minibatch_size", "32"])
        assert result.exit_code == 0, result.output
        with open(out_dir / "sweep_episodes.csv") as fh:
            rows = list(csv.DictReader(fh))
        # one row per rho and training seed, rho-major
        assert [(r["rho"], r["seed"]) for r in rows] == [("0", "3"), ("0", "1"),
                                                         ("1", "3"), ("1", "1")]
        with open(out_dir / "sweep_tradeoff.csv") as fh:
            agg = list(csv.DictReader(fh))
        assert len(agg) == 2 and "histogram_entropy" in agg[0]

    def test_sweep_lam_sets_separation_penalty(self, runner, tmp_path):
        # Four co-located aircraft and an untrained policy (0 iterations): the
        # trajectories match, so only lam moves the separation-only return.
        net = make_corridor_network(length_m=2000.0)
        sc = generate_scenario(net, 4, [("A", "B")], departure_spacing_s=0.0, seed=0)
        path = tmp_path / "colocated.json"
        save_scenario(sc, path)
        returns = {}
        for lam in ("0.1", "0.9"):
            out_dir = tmp_path / f"sweep_{lam}"
            result = runner.invoke(main, [
                "sweep", "--scenario", str(path), "--rhos", "0.0", "--iterations", "0",
                "--seeds", "0", "--out-dir", str(out_dir), "--hidden", "4", "--lam", lam])
            assert result.exit_code == 0, result.output
            with open(out_dir / "sweep_episodes.csv") as fh:
                returns[lam] = float(next(csv.DictReader(fh))["mean_return"])
        assert returns["0.9"] < returns["0.1"] < 0.0

    def test_eval_scores_with_checkpoint_lam(self, runner, tmp_path):
        # The co-located set-up of test_sweep_lam_sets_separation_penalty:
        # simulate with an untrained lam=0.9 checkpoint must use lam=0.9, not
        # the default.
        net = make_corridor_network(length_m=2000.0)
        sc = generate_scenario(net, 4, [("A", "B")], departure_spacing_s=0.0, seed=0)
        path = tmp_path / "colocated.json"
        save_scenario(sc, path)
        common = ["--scenario", str(path), "--iterations", "0", "--hidden", "4",
                  "--lam", "0.9"]
        ck = tmp_path / "policy.json"
        result = runner.invoke(main, ["train", *common, "--rho", "0", "--seed", "0",
                                      "--out", str(ck)])
        assert result.exit_code == 0, result.output
        out = tmp_path / "eval.json"
        result = runner.invoke(main, ["simulate", "--scenario", str(path), "--policy",
                                      str(ck), "--seed", "0", "--out", str(out)])
        assert result.exit_code == 0, result.output
        evaluated = json.loads(out.read_text())[0]["mean_return"]
        out_dir = tmp_path / "sweep"
        result = runner.invoke(main, ["sweep", *common, "--rhos", "0.0", "--seeds", "0",
                                      "--out-dir", str(out_dir)])
        assert result.exit_code == 0, result.output
        with open(out_dir / "sweep_episodes.csv") as fh:
            swept = float(next(csv.DictReader(fh))["mean_return"])
        assert evaluated == swept == -2.0

    def test_sweep_has_no_checkpoint_interval(self, runner, tmp_path):
        net = make_corridor_network(length_m=2000.0)
        sc = generate_scenario(net, 1, [("A", "B")], seed=0)
        path = tmp_path / "tiny.json"
        save_scenario(sc, path)
        result = runner.invoke(main, [
            "sweep", "--scenario", str(path), "--rhos", "0.0", "--iterations", "1",
            "--seeds", "0", "--out-dir", str(tmp_path / "sweep"), "--hidden", "4",
            "--checkpoint_interval", "1"])
        assert result.exit_code != 0
        assert "--checkpoint_interval" in result.output

    def test_train_checkpoint_interval_writes_next_to_out(self, runner, scenario_file,
                                                          tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        result = runner.invoke(main, [
            "train", "--scenario", scenario_file, "--rho", "0.5",
            "--iterations", "2", "--seed", "0", "--out", str(run_dir / "policy.json"),
            "--hidden", "4", "--minibatch_size", "32", "--checkpoint_interval", "1"])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "checkpoint_000001.json", "checkpoint_000002.json", "policy.json"]
        # the last periodic checkpoint holds the final policy
        assert ((run_dir / "checkpoint_000002.json").read_bytes()
                == (run_dir / "policy.json").read_bytes())


class TestNoiseCommands:
    def test_fit_npd(self, runner, tmp_path):
        samples = tmp_path / "samples.csv"
        with open(samples, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["distance_ft", "level_db"])
            for z in (200, 1000, 5000, 20000):
                lz = math.log10(z)
                writer.writerow([z, 88.09 + 3.21 * lz - 2.62 * lz * lz])
        out = tmp_path / "model.json"
        result = runner.invoke(main, ["fit-npd", "--samples", str(samples),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert doc["c0"] == pytest.approx(88.09, abs=1e-6)
        assert doc["c2"] == pytest.approx(-2.62, abs=1e-6)

    def test_fit_npd_bad_samples(self, runner, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text("distance_ft,level_db\n1000,70\n1000,71\n")
        result = runner.invoke(main, ["fit-npd", "--samples", str(samples),
                                      "--out", str(tmp_path / "m.json")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("column, value, message", [
        ("distance_ft", "nan", "distance_ft must be finite and positive, got nan"),
        ("distance_ft", "inf", "distance_ft must be finite and positive, got inf"),
        ("level_db", "inf", "level_db must be finite, got inf"),
    ], ids=["distance-nan", "distance-inf", "level-inf"])
    def test_fit_npd_rejects_non_finite_sample(self, runner, tmp_path, column, value,
                                               message):
        rows = [{"distance_ft": z, "level_db": lv}
                for z, lv in (("200", "80"), ("1000", "70"), ("5000", "60"), ("9000", "55"))]
        rows[1][column] = value  # the third line of the file
        samples = tmp_path / "samples.csv"
        with open(samples, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["distance_ft", "level_db"])
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "m.json"
        result = runner.invoke(main, ["fit-npd", "--samples", str(samples), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert f"samples {samples} line 3: {message}" in result.output
        assert not out.exists()

    def test_noise_report(self, runner, scenario_file, tmp_path):
        trace = tmp_path / "trace.csv"
        runner.invoke(main, [
            "simulate", "--scenario", scenario_file, "--policy", "baseline:hold",
            "--seed", "0", "--trace", str(trace)])
        out = tmp_path / "zones.csv"
        result = runner.invoke(main, ["noise-report", "--trace", str(trace),
                                      "--scenario", scenario_file, "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "zone", "increase_db"]
        assert len(rows) > 1

    def test_noise_report_blank_for_zone_without_aircraft(self, runner, tmp_path):
        line = make_line_network(link_len_m=3000.0)
        zones = {"Z1": NoiseZone("Z1", ("A-B", "B-A", "A", "B"), 50.0),
                 "Z2": NoiseZone("Z2", ("B-C", "C-B", "C"), 50.0)}
        scenario = tmp_path / "scenario.json"
        save_scenario(generate_scenario(Network(line.vertiports, line.links, line.layers, zones),
                                        1, [("A", "C")], seed=0), scenario)
        trace = tmp_path / "trace.csv"  # one aircraft, at A in zone Z1
        trace.write_text("t,id,x,y,z_ft,action,b_changing,member\n"
                         "0.0,AC001,0.0,0.0,1000.0,0,0,A\n")
        out = tmp_path / "zones.csv"
        result = runner.invoke(main, ["noise-report", "--trace", str(trace),
                                      "--scenario", str(scenario), "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[1][:2] == ["0", "Z1"] and rows[1][2] != ""
        assert rows[2] == ["0", "Z2", ""]


def _noise_report_on_edited_trace(runner, scenario_file, tmp_path, column, value):
    """noise-report on a hold episode's trace whose fourth line has value in
    column, or, with value None, on that trace without the column; returns
    (trace path, output path, result)."""
    trace = tmp_path / "trace.csv"
    runner.invoke(main, ["simulate", "--scenario", scenario_file, "--policy",
                         "baseline:hold", "--seed", "0", "--trace", str(trace)])
    with open(trace, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for i, row in enumerate(rows):
        if value is None:
            del row[column]
        elif i == 2:  # the fourth line of the file
            row[column] = value
    with open(trace, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    out = tmp_path / "zones.csv"
    return trace, out, runner.invoke(main, ["noise-report", "--trace", str(trace),
                                            "--scenario", scenario_file, "--out", str(out)])


@pytest.mark.parametrize("column, value, rule", [
    ("z_ft", "nan", " and positive"), ("z_ft", "inf", " and positive"), ("t", "nan", ""),
    ("x", "nan", " and in [-10000000.0, 10000000.0]"),
], ids=["z_ft-nan", "z_ft-inf", "t-nan", "x-nan"])
def test_noise_report_rejects_non_finite_trace_value(runner, scenario_file, tmp_path,
                                                     column, value, rule):
    trace, out, result = _noise_report_on_edited_trace(runner, scenario_file, tmp_path,
                                                       column, value)
    assert result.exit_code == 1, result.output
    assert f"trace {trace} line 4: {column} must be finite{rule}, got {value}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("column, value, message", [
    ("action", "7", "action must be finite and in [0, 2], got 7"),
    ("action", "1.0", "action must be an integer, got '1.0'"),
    ("b_changing", "5", "b_changing must be finite and in [0, 1], got 5"),
    ("b_changing", "x", "b_changing must be an integer, got 'x'"),
    ("member", "Q", "member must be a link or vertiport of the scenario, got 'Q'"),
    ("member", "", "member must be a link or vertiport of the scenario, got ''"),
], ids=["action-7", "action-float", "b_changing-5", "b_changing-x", "member-unknown",
        "member-blank"])
def test_noise_report_rejects_bad_trace_cell(runner, scenario_file, tmp_path,
                                             column, value, message):
    # action 7 and b_changing x used to exit 1 naming neither line nor
    # column, and b_changing 5 to exit 0, read as true
    trace, out, result = _noise_report_on_edited_trace(runner, scenario_file, tmp_path,
                                                       column, value)
    assert result.exit_code == 1, result.output
    assert f"trace {trace} line 4: {message}" in result.output
    assert not out.exists()


def test_noise_report_rejects_trace_without_member(runner, scenario_file, tmp_path):
    # as a trace written before rows carried their member
    trace, out, result = _noise_report_on_edited_trace(runner, scenario_file, tmp_path,
                                                       "member", None)
    assert result.exit_code == 1, result.output
    assert f"trace {trace} has no column 'member'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", [
    "simulate --out", "simulate --trace", "train --out", "train --metrics-log",
    "noise-report --out", "fit-npd --out", "sweep --out-dir",
])
def test_unwritable_output_path_exits_1(runner, scenario_file, tmp_path, command):
    name, option = command.split()
    trace = tmp_path / "trace.csv"
    trace.write_text("t,id,x,y,z_ft,action,b_changing\n0.0,AC001,0.0,0.0,1000.0,0,0\n")
    samples = tmp_path / "samples.csv"
    samples.write_text("distance_ft,level_db\n200,80\n1000,70\n5000,60\n")
    args = {
        "simulate": ["--scenario", scenario_file, "--policy", "baseline:hold", "--seed", "0"],
        "train": ["--scenario", scenario_file, "--rho", "0.5", "--iterations", "0",
                  "--seed", "0", "--hidden", "4"],
        "noise-report": ["--trace", str(trace), "--scenario", scenario_file],
        "fit-npd": ["--samples", str(samples)],
        "sweep": ["--scenario", scenario_file, "--rhos", "0.0", "--iterations", "0",
                  "--seeds", "0", "--hidden", "4"],
    }[name]
    # a writable second output, which the failing command must not write either
    args += {
        "simulate --out": ["--trace", str(tmp_path / "trace_out.csv")],
        "simulate --trace": ["--out", str(tmp_path / "metrics.json")],
        "train --out": ["--metrics-log", str(tmp_path / "log.csv")],
        "train --metrics-log": ["--out", str(tmp_path / "policy.json")],
    }.get(command, [])
    # a path in a missing directory; for sweep's --out-dir, one below a regular file
    (tmp_path / "file").write_text("")
    bad = str(tmp_path / ("file" if name == "sweep" else "missing") / "out")
    inputs = set(tmp_path.iterdir())
    result = runner.invoke(main, [name, *args, option, bad])
    assert result.exit_code == 1, result.output
    assert "error: " in result.output and bad in result.output
    assert set(tmp_path.iterdir()) == inputs  # found before any output was written


@pytest.mark.parametrize("command", [
    "simulate --out", "simulate --trace", "train --out", "train --metrics-log",
    "sweep --out-dir",
])
def test_empty_output_path_exits_1_at_once(runner, scenario_file, tmp_path, monkeypatch,
                                           command):
    # an empty path resolves to the working directory's parent, which exists
    def fail(*args, **kwargs):
        raise SimulationError("work began before the output paths were checked")
    monkeypatch.setattr("uamnoise.metrics.run_episode", fail)
    monkeypatch.setattr("uamnoise.rl.train", fail)
    name, option = command.split()
    args = {
        "simulate": ["--scenario", scenario_file, "--policy", "baseline:hold", "--seed", "0"],
        "train": ["--scenario", scenario_file, "--rho", "0.5", "--iterations", "1",
                  "--seed", "0", "--hidden", "4", "--out", str(tmp_path / "policy.json")],
        "sweep": ["--scenario", scenario_file, "--rhos", "0.0", "--iterations", "1",
                  "--seeds", "0", "--hidden", "4"],
    }[name]
    inputs = set(tmp_path.iterdir())
    result = runner.invoke(main, [name, *args, option, ""])
    assert result.exit_code == 1, result.output
    assert "error: an output path is empty" in result.output
    assert set(tmp_path.iterdir()) == inputs


@pytest.mark.parametrize("bad, message", [
    ({"--scenario": "nonexist.json"}, "nonexist.json"),
    ({"--lam": "-1"}, "RewardConfig.lam must be finite and non-negative, got -1"),
    ({"--hidden": "0"}, "TrainConfig.hidden must be finite and at least 1, got 0"),
], ids=["scenario", "reward-config", "train-config"])
def test_failed_sweep_makes_no_out_dir(runner, scenario_file, tmp_path, monkeypatch, bad,
                                      message):
    monkeypatch.chdir(tmp_path)
    args = {"--scenario": scenario_file, "--rhos": "0.0", "--iterations": "0",
            "--seeds": "0", "--hidden": "4"} | bad
    out_dir = tmp_path / "sweep"
    result = runner.invoke(main, ["sweep", *[tok for kv in args.items() for tok in kv],
                                  "--out-dir", str(out_dir)])
    assert result.exit_code == 1, result.output
    assert message in result.output
    assert not out_dir.exists()


def _no_flights(doc):
    doc["flights"] = []


def _departures_at_horizon(doc):
    for flight in doc["flights"]:
        flight["departure_s"] = 7200.0  # SimConfig's max_episode_time_s


@pytest.mark.parametrize("command", ["simulate", "sweep", "train"])
@pytest.mark.parametrize("corrupt", [_no_flights, _departures_at_horizon],
                         ids=["no-flights", "departures-at-horizon"])
def test_episode_without_decision_tick_row_exits_1(runner, tmp_path, command, corrupt):
    # an episode without a trace row has no agent: simulate and sweep have no
    # metrics to report, and train no transition to learn from nor a checkpoint
    # or log to write
    doc = json.loads(_scenario_text("bundled"))
    corrupt(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    args = {"simulate": ["--policy", "baseline:hold", "--seed", "0"],
            "sweep": ["--rhos", "0.5", "--seeds", "0", "--iterations", "0", "--hidden", "4",
                      "--out-dir", str(tmp_path / "sweep")],
            "train": ["--rho", "0.5", "--seed", "0", "--iterations", "2", "--hidden", "4",
                      "--out", str(tmp_path / "policy.json"),
                      "--metrics-log", str(tmp_path / "log.csv")]}[command]
    result = runner.invoke(main, [command, "--scenario", str(path), *args])
    assert result.exit_code == 1, result.output
    assert ("error: no aircraft was enroute at any decision tick before the horizon (7200.0 s)"
            in result.output)
    assert not (tmp_path / "policy.json").exists() and not (tmp_path / "log.csv").exists()


@pytest.mark.parametrize("field, value", [
    ("hidden", "0"), ("learning_rate", "-1"), ("learning_rate", "inf"), ("iterations", "-3"),
    ("minibatch_size", "0"), ("epochs", "0"), ("checkpoint_interval", "-1"),
    ("clip_eps", "nan"), ("clip_eps", "inf"), ("entropy_coef", "nan"), ("value_coef", "inf"),
])
def test_train_rejects_out_of_range_config(runner, scenario_file, tmp_path, field, value):
    ck = tmp_path / "policy.json"
    args = {"--rho": "0.5", "--iterations": "1", "--seed": "0", "--out": str(ck),
            "--hidden": "4", "--minibatch_size": "32", f"--{field}": value}
    result = runner.invoke(main, ["train", "--scenario", scenario_file,
                                  *[tok for kv in args.items() for tok in kv]])
    assert result.exit_code == 1, result.output
    assert f"TrainConfig.{field} must" in result.output
    assert not ck.exists()


@pytest.mark.parametrize("field, value", [
    ("d_los_m", "nan"), ("d_comm_m", "inf"), ("dt_s", "nan"), ("max_episode_time_s", "inf"),
    ("cruise_speed_mps", "-inf"), ("climb_rate_fpm", "0"),
])
def test_simulate_rejects_non_finite_or_non_positive_sim_config(runner, scenario_file,
                                                                 tmp_path, field, value):
    out = tmp_path / "metrics.json"
    result = runner.invoke(main, ["simulate", "--scenario", scenario_file, "--policy",
                                  "baseline:hold", "--seed", "0", f"--{field}", value,
                                  "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert f"SimConfig.{field} must be finite and positive, got {float(value)}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("lam", ["-0.1", "nan", "inf"])
def test_train_rejects_out_of_range_lam(runner, scenario_file, tmp_path, lam):
    ck = tmp_path / "policy.json"
    result = runner.invoke(main, ["train", "--scenario", scenario_file, "--rho", "0.5",
                                  "--iterations", "1", "--seed", "0", "--hidden", "4",
                                  "--lam", lam, "--out", str(ck)])
    assert result.exit_code == 1, result.output
    assert "RewardConfig.lam must be finite and non-negative" in result.output
    assert not ck.exists()


@pytest.mark.parametrize("command, message", [
    ("sweep --rhos 0.5,abc", "--rhos item must be a number, got 'abc'"),
    ("sweep --rhos 0.5,nan", "--rhos item must be finite and in [0, 1], got nan"),
    # checked before the first rho trains
    ("sweep --rhos 0.5,1.5", "--rhos item must be finite and in [0, 1], got 1.5"),
    ("sweep --rhos ,", "--rhos has no items, got ','"),
    ("sweep --seeds 0,1.5", "--seeds item must be an integer, got '1.5'"),
    ("sweep --seeds ,", "--seeds has no items, got ','"),
    ("sweep --seeds 0,-1", "--seeds item must be finite and non-negative, got -1"),
    # checked before the out-dir is made or the first rho trains
    ("sweep --rhos 0.5,0.50", "--rhos item 0.5 is repeated in '0.5,0.50'"),
    ("sweep --seeds 1,2,1", "--seeds item 1 is repeated in '1,2,1'"),
], ids=["rhos-string", "rhos-nan", "rhos-above-one", "rhos-empty", "seeds-float",
        "seeds-empty", "seeds-negative", "rhos-repeated", "seeds-repeated"])
def test_bad_list_item_exits_1(runner, scenario_file, tmp_path, command, message):
    name, option, value = command.split()
    args = ["--scenario", scenario_file, "--rhos", "0.0", "--iterations", "0",
            "--seeds", "0", "--hidden", "4", "--out-dir", str(tmp_path / "sweep")]
    args[args.index(option) + 1] = value
    inputs = set(tmp_path.iterdir())
    result = runner.invoke(main, [name, *args])
    assert result.exit_code == 1, result.output
    assert message in result.output
    assert set(tmp_path.iterdir()) == inputs  # found before any output was written


@pytest.mark.parametrize("command, message", [
    ("train --hidden abc", "Invalid value for '--hidden': 'abc' is not a valid integer"),
    ("simulate --seed x", "Invalid value for '--seed': 'x' is not a valid integer"),
    ("train --no-such-option", "No such option '--no-such-option'"),
    ("--bogus", "No such option '--bogus'"),
    ("no-such-command", "No such command 'no-such-command'"),
    ("eval", "No such command 'eval'"),
    ("sweep --seed 0", "No such option '--seed'"),
], ids=["train-hidden", "simulate-seed", "command-option", "group-option", "command",
        "eval-command", "sweep-seed"])
def test_unparsable_command_line_exits_1(runner, scenario_file, tmp_path, command, message):
    # click's own exit code for these is 2, which the CLI keeps for runtime errors
    name, *rest = command.split()
    out = str(tmp_path / "out.json")
    args = {
        "train": ["--scenario", scenario_file, "--rho", "0.5", "--iterations", "1",
                  "--seed", "0", "--out", out],
        "simulate": ["--scenario", scenario_file, "--policy", "baseline:hold", "--seed", "0",
                     "--out", out],
        "sweep": ["--scenario", scenario_file, "--rhos", "0.0", "--iterations", "0",
                  "--seeds", "0", "--hidden", "4", "--out-dir", out],
    }.get(name, [])
    result = runner.invoke(main, [name, *args, *rest])
    assert result.exit_code == 1, result.output
    assert message in result.output
    assert not os.path.exists(out)


@pytest.mark.parametrize("args", [["--help"], ["train", "--help"], ["simulate", "--help"]])
def test_help_exits_0(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "Usage:" in result.output


def test_runtime_error_exits_2(runner, scenario_file, monkeypatch):
    def fail(*args, **kwargs):
        raise SimulationError("episode failed")
    monkeypatch.setattr("uamnoise.metrics.run_episode", fail)
    result = runner.invoke(main, ["simulate", "--scenario", scenario_file, "--policy",
                                  "baseline:hold", "--seed", "0"])
    assert result.exit_code == 2, result.output
    assert "runtime error: episode failed" in result.output


# the overflow's RuntimeWarnings are expected here; pyproject.toml makes them errors
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_policy_exits_2(runner, scenario_file, tmp_path):
    """Finite but huge weights load, but their attention scores overflow: the
    episode stops with a runtime error instead of reporting NaN probabilities
    as a hold policy's metrics."""
    ck = tmp_path / "policy.json"
    result = runner.invoke(main, ["train", "--scenario", scenario_file, "--rho", "0.5",
                                  "--iterations", "0", "--seed", "0", "--hidden", "4",
                                  "--out", str(ck)])
    assert result.exit_code == 0, result.output
    doc = json.loads(ck.read_text())
    doc["params"] = [1e300] * len(doc["params"])
    ck.write_text(json.dumps(doc))
    out = tmp_path / "out"
    result = runner.invoke(main, ["simulate", "--policy", str(ck), "--seed", "0",
                                  "--scenario", scenario_file, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert re.search(r"runtime error: policy probabilities not finite in \d+ of \d+ rows",
                     result.output)
    assert not out.exists()


def _short_params(doc):
    doc["params"].pop()


def _break_hidden(doc):
    doc["train_config"]["hidden"] = 99


def _huge_hidden(doc):
    doc["train_config"]["hidden"] = 10**7


def _drop_params(doc):
    del doc["params"]


def _add_train_field(doc):
    doc["train_config"]["momentum"] = 0.9


def _object_params(doc):
    doc["params"] = {"w1": doc["params"]}


def _ragged_params(doc):
    doc["params"][5] = [0.0]


def _string_weight(doc):
    doc["params"][5] = "0.1"


def _null_weight(doc):
    doc["params"][7] = None


def _add_condition(doc):
    doc["reward_config"]["condition"] = "Mode L - Centerline"


def _drop_lam(doc):
    # it would load as the default lam, not the one trained with
    del doc["reward_config"]["lam"]


def _drop_layers(doc):
    del doc["reward_config"]["layers_ft"]


def _string_hidden(doc):
    doc["train_config"]["hidden"] = "4"


def _null_gamma(doc):
    doc["train_config"]["gamma"] = None


def _string_lam(doc):
    doc["reward_config"]["lam"] = "0.1"


def _negative_lam(doc):
    doc["reward_config"]["lam"] = -0.5


def _negative_d_los(doc):
    doc["reward_config"]["d_los_m"] = -5


def _null_npd(doc):
    doc["reward_config"]["npd"] = None


def _object_npd(doc):
    doc["reward_config"]["npd"] = {}


def _version_1(doc):
    # the first format: hidden and layers_ft at the top, derived layer bounds
    # and a noise condition in the reward config, one nested list per tensor
    params = nnet.params_from_list(doc["params"], 4)
    reward = doc["reward_config"]
    levels = reward.pop("layers_ft")
    return {"version": 1, "hidden": 4, "layers_ft": levels,
            "train_config": doc["train_config"],
            "reward_config": reward | {"z_min_ft": levels[0], "z_max_ft": levels[-1],
                                       "condition": "Mode L - Centerline"},
            "params": {key: params[key].tolist() for key in params}}


def _scalar_layers(doc):
    doc["reward_config"]["layers_ft"] = 1000


def _list_train_config(doc):
    doc["train_config"] = []


@pytest.mark.parametrize("corrupt, message", [
    # hidden 4 has 196 weights: 7 h**2 + 20 h + 4
    (_short_params, "params has shape (195,), expected (196,) for hidden 4"),
    (_break_hidden, "params has shape (196,), expected (70591,) for hidden 99"),
    # found from the lengths alone, before the weights are allocated
    (_huge_hidden, "params has shape (196,), expected (700000200000004,) for hidden 10000000"),
    (_drop_params, "missing params"),
    (_add_train_field, "unknown train_config.momentum"),
    (_object_params, "params must be a list, got dict"),
    (_ragged_params, "params[5] must be a number, got [0.0]"),
    (_string_weight, "params[5] must be a number, got '0.1'"),
    (_null_weight, "params[7] must be a number, got None"),
    (_add_condition, "unknown reward_config.condition"),
    (_drop_lam, "missing reward_config.lam"),
    (_drop_layers, "missing reward_config.layers_ft"),
    (lambda doc: [doc], "the document must be a JSON object, got list"),
    (_string_hidden, "TrainConfig.hidden must be an integer, got '4'"),
    (_null_gamma, "TrainConfig.gamma must be a number, got None"),
    (_string_lam, "RewardConfig.lam must be a number, got '0.1'"),
    (_negative_lam, "RewardConfig.lam must be finite and non-negative, got -0.5"),
    (_negative_d_los, "RewardConfig.d_los_m must be finite and positive, got -5"),
    (_null_npd, "unknown reward_config.npd"),
    (_object_npd, "unknown reward_config.npd"),
    (_version_1, "unsupported version 1"),
    (_scalar_layers, "reward_config.layers_ft must be a list, got 1000"),
    (_list_train_config, "train_config must be a JSON object, got list"),
    (lambda doc: doc.update(hidden=99), "unknown hidden"),
], ids=["tensor-shape", "hidden", "huge-hidden", "no-params", "unknown-field",
        "params-object", "ragged-tensor", "string-weight", "null-weight", "bad-condition",
        "missing-field", "missing-layers", "list-document", "string-hidden", "null-gamma", "string-lam", "negative-lam",
        "negative-d-los", "npd-null", "npd-object", "version-1", "scalar-layers",
        "list-section", "unknown-key"])
def test_malformed_checkpoint_exits_1(runner, scenario_file, tmp_path, corrupt, message):
    ck = tmp_path / "policy.json"
    result = runner.invoke(main, ["train", "--scenario", scenario_file, "--rho", "0.5",
                                  "--iterations", "0", "--seed", "0", "--hidden", "4",
                                  "--out", str(ck)])
    assert result.exit_code == 0, result.output
    doc = json.loads(ck.read_text())
    # a corruption edits doc in place or returns the document to write instead
    ck.write_text(json.dumps(corrupt(doc) or doc))
    out = tmp_path / "eval.json"
    result = runner.invoke(main, ["simulate", "--scenario", scenario_file, "--policy",
                                  str(ck), "--seed", "0", "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert f"bad checkpoint {ck}: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("text", [None, b"{", b"\xff{"],
                         ids=["missing-file", "not-json", "not-utf-8"])
def test_unreadable_checkpoint_exits_1(runner, scenario_file, tmp_path, text):
    ck = tmp_path / "policy.json"
    if text is not None:
        ck.write_bytes(text)
    out = tmp_path / "eval.json"
    result = runner.invoke(main, ["simulate", "--scenario", scenario_file, "--policy",
                                  str(ck), "--seed", "0", "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert f"cannot read checkpoint {ck}: " in result.output
    assert not out.exists()


# ---------------------------------------------------------------------------
# The input contract: a number read from a scenario, trace or sample file
# either passes check_number or fails with exit 1 and a message that names its
# field, and every number reported after exit 0 is finite. Nothing exits 2.

DELETE = "<delete>"  # fault: remove the field (a JSON key, or a CSV cell's text)
JSON_FAULTS = [math.nan, math.inf, -math.inf, -1, 0, 1e300, "abc", None, DELETE]
CSV_FAULTS = ["nan", "inf", "-inf", "-1", "0", "1e300", "abc", "null", DELETE]
# The ids a row references, and a zone's members, are strings: any string is
# of their kind, so the string fault is not drawn for them.
REFERENCES = ["from", "to", "origin", "destination", "members"]
SCENARIO_FIELDS = ["x_m", "y_m", "layers_ft", "ambient_db", "departure_s", *REFERENCES]
RECORDS = {"x_m": "vertiports", "y_m": "vertiports", "ambient_db": "zones",
           "departure_s": "flights", "from": "links", "to": "links", "origin": "flights",
           "destination": "flights", "members": "zones"}
SAMPLES = [("200", "80"), ("1000", "70"), ("5000", "60"), ("9000", "55")]
contract_settings = settings(max_examples=100, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@functools.cache
def _scenario_text(name):
    """The bundled scenario file's text, or a small line scenario's."""
    if name == "bundled":
        with open(uamnoise.bundled_scenario_path()) as fh:
            return fh.read()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "line.json")
        save_scenario(generate_scenario(make_line_network(link_len_m=3000.0), 3,
                                        [("A", "C"), ("C", "A")], departure_spacing_s=30.0,
                                        seed=3), path)
        with open(path) as fh:
            return fh.read()


@functools.cache
def _line_trace_rows():
    """The decision-tick trace of a hold episode on the line scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        scenario, trace = os.path.join(tmp, "line.json"), os.path.join(tmp, "trace.csv")
        with open(scenario, "w") as fh:
            fh.write(_scenario_text("line"))
        result = CliRunner().invoke(main, ["simulate", "--scenario", scenario, "--policy",
                                           "baseline:hold", "--seed", "0", "--trace", trace])
        assert result.exit_code == 0, result.output
        with open(trace, newline="") as fh:
            return list(csv.DictReader(fh))


def _finite_json(text):
    def reject(constant):
        raise AssertionError(f"non-finite number {constant} reported")
    return json.loads(text, parse_constant=reject)


def _write_csv_with_fault(path, rows, column, index, fault):
    rows = [dict(row) for row in rows]
    rows[index % len(rows)][column] = "" if fault == DELETE else fault
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _check_contract(result, field):
    """Exit 0, or exit 1 naming field; the reported numbers are the caller's
    to check after exit 0."""
    assert result.exit_code in (0, 1), result.output
    if result.exit_code == 1:
        assert re.search(rf"(?<!\w){re.escape(field)}(?!\w)", result.output), result.output
    return result.exit_code == 0


def check_scenario_fault(name, field, index, fault):
    doc = json.loads(_scenario_text(name))
    if field == "layers_ft":
        container, key = doc["layers_ft"], index % len(doc["layers_ft"])
    else:
        records = doc[RECORDS[field]]
        container, key = records[index % len(records)], field
    if fault == DELETE:
        del container[key]
    else:
        container[key] = fault
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        result = CliRunner().invoke(main, ["simulate", "--scenario", path, "--policy",
                                           "baseline:hold", "--seed", "0"])
    if _check_contract(result, field):
        for key, value in _finite_json(result.stdout).items():
            assert value is None or isinstance(value, str) or math.isfinite(value), key
            if key.startswith("hist_"):
                assert math.isfinite(float(key[len("hist_"):])), key


def check_trace_fault(column, index, fault):
    with tempfile.TemporaryDirectory() as tmp:
        scenario, trace = os.path.join(tmp, "line.json"), os.path.join(tmp, "trace.csv")
        out = os.path.join(tmp, "zones.csv")
        with open(scenario, "w") as fh:
            fh.write(_scenario_text("line"))
        _write_csv_with_fault(trace, _line_trace_rows(), column, index, fault)
        result = CliRunner().invoke(main, ["noise-report", "--trace", trace,
                                           "--scenario", scenario, "--out", out])
        if _check_contract(result, column):
            with open(out, newline="") as fh:
                for row in csv.DictReader(fh):
                    assert all(math.isfinite(float(row[c])) for c in ("t", "increase_db")
                               if row[c] != ""), row


def check_samples_fault(column, index, fault):
    with tempfile.TemporaryDirectory() as tmp:
        samples, out = os.path.join(tmp, "samples.csv"), os.path.join(tmp, "model.json")
        rows = [{"distance_ft": z, "level_db": level} for z, level in SAMPLES]
        _write_csv_with_fault(samples, rows, column, index, fault)
        result = CliRunner().invoke(main, ["fit-npd", "--samples", samples, "--out", out])
        if _check_contract(result, column):
            with open(out) as fh:
                assert all(math.isfinite(v) for v in _finite_json(fh.read()).values())


@pytest.mark.parametrize("name", ["line", "bundled"])
@pytest.mark.parametrize("ambient_db", [-1.7e308, -0.5, 200.5, 1e300])
def test_out_of_range_ambient_db_exits_1(name, ambient_db, tmp_path):
    # -1.7e308 used to exit 0, reporting 1.7e308 dB (bundled) or Infinity (line)
    doc = json.loads(_scenario_text(name))
    doc["zones"][0]["ambient_db"] = ambient_db
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["simulate", "--scenario", str(path), "--policy",
                                       "baseline:hold", "--seed", "0"])
    assert result.exit_code == 1, result.output
    zone = doc["zones"][0]["id"]
    assert f"zone '{zone}' ambient_db must be finite and in [0, 200], got {ambient_db}" \
        in result.output


@pytest.mark.parametrize("corrupt, message", [
    (lambda doc: doc["links"].append(dict(doc["links"][0])), "duplicate link id 'A-B'"),
    (lambda doc: doc["links"].append({"id": "A-A", "from": "A", "to": "A"}),
     "link 'A-A' is a self-loop"),
    (lambda doc: doc["links"].append({"id": "A-B2", "from": "A", "to": "B"}),
     "vertiport pair ('A', 'B') has more than two links"),
    (lambda doc: doc["zones"].append(dict(doc["zones"][0])), "duplicate zone id 'Z1'"),
    (lambda doc: doc["zones"][0]["members"].append("Q"),
     "zone 'Z1' references unknown member 'Q'"),
    (lambda doc: doc["zones"].append({"id": "Z2", "members": ["A"], "ambient_db": 50.0}),
     "member 'A' appears in zones 'Z1' and 'Z2'"),
    (lambda doc: doc["flights"].append(dict(doc["flights"][0])), "duplicate flight id 'AC001'"),
    (lambda doc: doc["flights"][0].update(origin="Q"),
     "flight 'AC001': unknown vertiport 'Q'"),
    (lambda doc: doc["flights"][0].update(destination="C"),  # AC001 flies C to A
     "flight 'AC001': origin and destination must differ"),
    # without link A-B, and so without it as a zone member, no route leads from A
    (lambda doc: (doc.update(links=[k for k in doc["links"] if k["id"] != "A-B"]),
                  doc["zones"][0]["members"].remove("A-B")),
     "flight 'AC002': no route from 'A' to 'C'"),
    # both layers beyond one end of the noise curve's distance clamp
    (lambda doc: doc.update(layers_ft=[50.0, 100.0]),
     "clamps slant distance to [200, 20000] ft, so layers_ft [50.0, 100.0] give one level"),
    (lambda doc: doc.update(layers_ft=[20000.0, 25000.0]),
     "clamps slant distance to [200, 20000] ft, so layers_ft [20000.0, 25000.0] give one level"),
    # B moved onto A: every route from A starts with a link of no length
    (lambda doc: doc["vertiports"][1].update(x_m=0.0),
     "link 'A-B' has zero length: its ends 'A' and 'B' share x_m 0.0 and y_m 0.0"),
    (lambda doc: doc.update(flights=5), "flights must be a list, got 5"),
    # each field, row and reference of the wrong JSON kind is named by its path
    (lambda doc: doc.update(vertiports=5), "vertiports must be a list, got 5"),
    (lambda doc: doc.update(links="x"), "links must be a list, got 'x'"),
    (lambda doc: doc.update(zones=None), "zones must be a list, got None"),
    (lambda doc: doc.update(layers_ft="12345"), "layers_ft must be a list, got '12345'"),
    (lambda doc: doc.update(layers_ft=5), "layers_ft must be a list, got 5"),
    (lambda doc: doc["vertiports"].__setitem__(1, 5), "vertiports[1] must be a JSON object, got 5"),
    (lambda doc: doc["flights"].__setitem__(2, 5), "flights[2] must be a JSON object, got 5"),
    (lambda doc: doc["flights"].__setitem__(1, {}), "missing flights[1].id"),
    (lambda doc: doc["zones"][0].update(members="A"), "zones[0].members must be a list, got 'A'"),
    (lambda doc: doc["zones"][0]["members"].append(5),
     "zones[0].members[7] must be a string, got 5"),
    (lambda doc: doc["flights"][0].update(id=[1]), "flights[0].id must be a string, got list"),
], ids=["duplicate-link", "self-loop", "third-link", "duplicate-zone", "unknown-member",
        "member-in-two-zones", "duplicate-flight", "unknown-vertiport", "equal-ends", "no-route",
        "layers-below-clamp", "layers-above-clamp", "zero-length-link", "flights-not-a-list",
        "vertiports-not-a-list", "links-not-a-list", "zones-null", "layers-string",
        "layers-number", "vertiport-row-number", "flight-row-number", "flight-row-empty",
        "members-string", "member-number", "flight-id-list"])
def test_malformed_scenario_exits_1(corrupt, message, tmp_path):
    doc = json.loads(_scenario_text("line"))
    corrupt(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    result = CliRunner().invoke(main, ["simulate", "--scenario", str(path), "--policy",
                                       "baseline:hold", "--seed", "0"])
    assert result.exit_code == 1, result.output
    assert message in result.output


# Cases that broke the contract before check_number: exit 2, a message that
# does not name the field, or a non-finite number reported.
SCENARIO_PINS = (
    [("line", field, 0, fault) for field in ("x_m", "y_m")
     for fault in (math.nan, math.inf, -math.inf, 1e300, "abc", None)]
    + [("line", "layers_ft", index, fault) for index, fault in (
        (0, math.nan), (2, math.nan), (1, math.inf), (4, math.inf), (0, -math.inf),
        (0, -1), (2, 0), (1, 1e300), (0, "abc"), (3, None))]
    + [("line", "ambient_db", 0, fault) for fault in (math.nan, math.inf, -math.inf, "abc", None)]
    + [("line", "departure_s", 0, fault) for fault in (math.nan, -math.inf, -1)]
    + [("bundled", "departure_s", 0, math.nan), ("bundled", "x_m", 3, 1e300)]
    # a reference read through str(), so reported as an unknown id, not by its key
    + [("bundled", field, 0, -1) for field in REFERENCES] + [("line", "members", 0, None)])
TRACE_PINS = ([(column, 3, fault) for column in ("t", "x", "y", "z_ft")
               for fault in ("abc", "null", DELETE)] + [("z_ft", 3, "-1"), ("z_ft", 3, "0")]
              + [("action", 3, "7"), ("b_changing", 3, "5"), ("b_changing", 3, "x"),
                 ("member", 3, "Q"), ("member", 3, DELETE)])
SAMPLES_PINS = ([(column, 2, fault) for column in ("distance_ft", "level_db")
                 for fault in ("abc", "null", DELETE)] + [("level_db", 2, "1e300")])


def pinned(cases):
    """Hypothesis @example for each case, as positional arguments."""
    def decorate(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return decorate


class TestInputContractProperty:
    @contract_settings
    @pinned(SCENARIO_PINS)
    @given(st.sampled_from(["line", "bundled"]), st.sampled_from(SCENARIO_FIELDS),
           st.integers(0, 1000), st.sampled_from(JSON_FAULTS))
    def test_simulate_scenario_field(self, name, field, index, fault):
        assume(field not in REFERENCES or fault != "abc")
        check_scenario_fault(name, field, index, fault)

    @contract_settings
    @pinned(TRACE_PINS)
    @given(st.sampled_from(["t", "x", "y", "z_ft", "action", "b_changing", "member"]),
           st.integers(0, 1000), st.sampled_from(CSV_FAULTS))
    def test_noise_report_trace_column(self, column, index, fault):
        check_trace_fault(column, index, fault)

    @contract_settings
    @pinned(SAMPLES_PINS)
    @given(st.sampled_from(["distance_ft", "level_db"]), st.integers(0, 1000),
           st.sampled_from(CSV_FAULTS))
    def test_fit_npd_samples_column(self, column, index, fault):
        check_samples_fault(column, index, fault)
