import csv
import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uamnoise
from uamnoise import metrics as M
from uamnoise import nnet
from uamnoise.errors import ValidationError
from uamnoise.mdp import RewardConfig
from uamnoise.network import (AltitudeLayerSet, Network, NoiseZone, generate_scenario,
                              load_scenario, route_nodes)
from uamnoise.rl import TraceRow, TrainConfig
from uamnoise.sim import Action, SimConfig, World

from conftest import make_corridor_network, make_line_network


def row(t, aid, z, x=0.0, changing=False):
    return TraceRow(t, aid, x, 0.0, z, Action.HOLD, changing, "A-B")


def oracle_zone(network, route, x, y):
    """The zone of the route node at exactly (x, y), or else of the one route
    link whose segment holds (x, y), by a scan of the route."""
    for vid in route_nodes(network, route):
        if (network.vertiports[vid].x_m, network.vertiports[vid].y_m) == (x, y):
            return network.zone_of(vid)
    holders = []
    for lid in route.link_ids:
        (ax, ay), (bx, by) = network.link_segment(lid)
        dx, dy = bx - ax, by - ay
        s = max(0.0, min(1.0, ((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy)))
        if math.hypot(x - (ax + s * dx), y - (ay + s * dy)) < 1e-6:
            holders.append(lid)
    assert len(holders) == 1, (route, x, y, holders)
    return network.zone_of(holders[0])


def three_zone_line():
    """make_line_network's A -- B -- C with a zone per vertiport: Z-A holds A
    and both A-B links, Z-B only B, Z-C the rest."""
    line = make_line_network(link_len_m=3000.0)
    zones = {"Z-A": NoiseZone("Z-A", ("A", "A-B", "B-A"), 50.0),
             "Z-B": NoiseZone("Z-B", ("B",), 45.0),
             "Z-C": NoiseZone("Z-C", ("C", "B-C", "C-B"), 55.0)}
    return Network(line.vertiports, line.links, line.layers, zones)


@st.composite
def attribution_cases(draw):
    """Traffic on the bundled network, or on three_zone_line, where at 60 m/s
    an aircraft bound through B sits exactly on B at a decision tick, under
    the hold baseline or a sampled policy."""
    if draw(st.booleans()):
        net = load_scenario(uamnoise.bundled_scenario_path()).network
        pairs = draw(st.lists(st.sampled_from(
            [(a, b) for a in sorted(net.vertiports) for b in sorted(net.vertiports) if a != b]),
            min_size=1, max_size=8))
    else:
        net = three_zone_line()
        pairs = draw(st.lists(st.sampled_from([("A", "C"), ("C", "A"), ("A", "B"), ("B", "C")]),
                              min_size=1, max_size=4))
    scenario = generate_scenario(net, draw(st.integers(1, 30)), pairs,
                                 departure_spacing_s=draw(st.sampled_from([0.0, 15.0, 60.0])),
                                 seed=draw(st.integers(0, 99)))
    config = SimConfig(cruise_speed_mps=draw(st.sampled_from([60.0, 67.0, 83.5])))
    seed = draw(st.integers(0, 99))
    return scenario, config, draw(st.sampled_from([None, nnet.init_params(4, seed)])), seed


class TestAltitudeHistogram:
    LAYERS = make_line_network().layers

    def test_single_layer(self):
        trace = [row(10.0 * i, "A", 1500.0) for i in range(10)]
        hist = M.altitude_histogram(trace, self.LAYERS)
        assert hist[1500.0] == 1.0

    def test_even_split(self):
        trace = [row(10.0 * i, "A", 1000.0) for i in range(5)] + \
                [row(10.0 * (5 + i), "A", 1500.0) for i in range(5)]
        hist = M.altitude_histogram(trace, self.LAYERS)
        assert hist[1000.0] == 0.5 and hist[1500.0] == 0.5

    def test_transition_attributed_to_departed_layer(self):
        trace = [row(0.0, "A", 2000.0), row(10.0, "A", 2100.0, changing=True),
                 row(20.0, "A", 2400.0, changing=True), row(30.0, "A", 2500.0)]
        hist = M.altitude_histogram(trace, self.LAYERS)
        assert hist[2000.0] == 0.75 and hist[2500.0] == 0.25

    def test_fractions_sum_to_one(self):
        rng = np.random.default_rng(0)
        trace = [row(10.0 * i, f"A{i % 3}", float(rng.choice(self.LAYERS.levels_ft)))
                 for i in range(60)]
        hist = M.altitude_histogram(trace, self.LAYERS)
        assert sum(hist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError):
            M.altitude_histogram([], self.LAYERS)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([1000.0, 1250.0, 1500.0, 2000.0, 2800.0, 3000.0]),
                             min_size=1, max_size=12), min_size=1, max_size=6),
           st.randoms(use_true_random=False))
    def test_any_row_order_matches_sorted_oracle(self, altitudes, shuffle):
        """Rows in any order count as in (t, id) order: each aircraft's rows
        at distinct ticks, mid-transition altitudes among them, shuffled."""
        trace = [row(10.0 * (tick + k), f"A{k}", z, changing=z not in self.LAYERS.levels_ft)
                 for k, zs in enumerate(altitudes) for tick, z in enumerate(zs)]
        hist = {z: 0.0 for z in self.LAYERS.levels_ft}
        last_level = {}
        for r in sorted(trace, key=lambda r: (r.t, r.id)):
            if r.z_ft in hist:
                last_level[r.id] = r.z_ft
            hist[last_level.get(r.id, self.LAYERS.z_min)] += 1.0
        shuffle.shuffle(trace)
        assert M.altitude_histogram(trace, self.LAYERS) == {z: c / len(trace)
                                                            for z, c in hist.items()}

    def test_entropy(self):
        flat = {z: 0.2 for z in self.LAYERS.levels_ft}
        peaked = {z: (1.0 if z == 3000.0 else 0.0) for z in self.LAYERS.levels_ft}
        assert M.histogram_entropy(flat) == pytest.approx(math.log(5))
        assert M.histogram_entropy(peaked) == 0.0
        assert math.copysign(1.0, M.histogram_entropy(peaked)) == 1.0  # reported as 0


class TestZoneNoise:
    def test_series_and_summary(self, line_network):
        trace = [row(0.0, "A", 1000.0, x=100.0), row(10.0, "A", 3000.0, x=800.0)]
        series = M.zone_noise_series(trace, line_network)
        assert set(series) == {"Z1"}
        vals = [v for _, v in series["Z1"]]
        # single aircraft: increase = single-event level - 35.56 - 50
        assert vals[0] == pytest.approx(74.14 - 35.56 - 50.0, abs=0.01)
        assert vals[1] == pytest.approx(67.57 - 35.56 - 50.0, abs=0.01)
        summary = M.summarize_zones(series)
        assert summary["Z1"][0] == pytest.approx(max(vals))
        assert summary["Z1"][1] == pytest.approx(sum(vals) / 2)

    def test_spawn_row_counts_for_its_vertiports_zone(self, bundled_scenario):
        # AC004 departs V04, in Z-C; the lowest-id link through V04, V01-V04,
        # is in Z-NW
        rc = RewardConfig.for_layers(bundled_scenario.network.layers, 0.5)
        _, trace = M.run_episode(None, bundled_scenario, SimConfig(), rc)
        spawn = next(r for r in trace if r.id == "AC004")
        assert spawn.member == "V04"
        assert bundled_scenario.network.zone_of(spawn.member) == "Z-C"

    @settings(max_examples=25, deadline=None)
    @given(attribution_cases())
    def test_zone_matches_route_geometry_oracle(self, case):
        scenario, config, params, seed = case
        net = scenario.network
        rc = RewardConfig.for_layers(net.layers, 0.5)
        _, trace = M.run_episode(params, scenario, config, rc, seed=seed, greedy=False)
        assert [net.zone_of(r.member) for r in trace] == \
            [oracle_zone(net, scenario.routes[r.id], r.x_m, r.y_m) for r in trace]


class TestRunEpisode:
    def test_hold_baseline_single_aircraft(self, solo_scenario):
        rc = RewardConfig.for_layers(solo_scenario.network.layers, 0.5)
        metrics, trace = M.run_episode(None, solo_scenario, SimConfig(), rc, seed=0)
        assert metrics.los_count == 0
        assert metrics.histogram[1000.0] == 1.0
        assert len(trace) > 0

    def test_forced_conflict_under_hold_baseline(self):
        # head-on pair on the same corridor at the same layer must lose separation
        net = make_corridor_network(length_m=5000.0)
        sc = generate_scenario(net, 2, [("A", "B"), ("B", "A")],
                               departure_spacing_s=0.0, seed=0)
        rc = RewardConfig.for_layers(net.layers, 0.5)
        metrics, _ = M.run_episode(None, sc, SimConfig(), rc, seed=0)
        assert metrics.los_count >= 1

        # brute-force distance oracle over a replayed episode
        from uamnoise.sim import Phase, World
        world = World(sc, SimConfig())
        saw_violation = False
        while not world.terminal:
            world.spawn_due_aircraft()
            world.step()
            enroute = [a for a in world.aircraft.values() if a.phase is Phase.ENROUTE]
            for i, a in enumerate(enroute):
                for b in enroute[i + 1:]:
                    d = math.sqrt((a.x_m - b.x_m) ** 2 + (a.y_m - b.y_m) ** 2
                                  + ((a.z_ft - b.z_ft) * 0.3048) ** 2)
                    if d < 150.0:
                        saw_violation = True
        assert saw_violation

    def test_seeded_repeat_identical(self, line_scenario):
        rc = RewardConfig.for_layers(line_scenario.network.layers, 0.5)
        params = nnet.init_params(8, 0)
        m1, t1 = M.run_episode(params, line_scenario, SimConfig(), rc, seed=4)
        m2, t2 = M.run_episode(params, line_scenario, SimConfig(), rc, seed=4)
        assert m1.los_count == m2.los_count
        assert m1.histogram == m2.histogram
        assert t1 == t2

    @pytest.mark.parametrize("name", ["line", "bundled"])
    def test_metrics_pure_function_of_trace(self, name, request, tmp_path):
        # on the bundled scenario every first row sits on a vertiport
        scenario = request.getfixturevalue(f"{name}_scenario")
        rc = RewardConfig.for_layers(scenario.network.layers, 0.5)
        path = tmp_path / "trace.csv"
        metrics, trace = M.run_episode(None, scenario, SimConfig(), rc, seed=0)
        M.write_trace(trace, path)
        reloaded = M.read_trace(path, scenario.network)
        assert reloaded == trace
        recomputed = M.metrics_from_trace(reloaded, scenario.network,
                                          metrics.los_count, metrics.mean_return,
                                          rho=rc.rho)
        assert recomputed == metrics

    @pytest.mark.parametrize(
        "name, los_count, median_db, max_db, mean_return, trace_sha, los_sha", [
        ("bundled", 435, -8.946655544091069, 2.610899869919436, -11.574999999999998,
         "b0e9f7814eefffb262557288b7f5ec761de985e58448b67cd1a24a8c5071b9d5",
         "ad8e1a15dd1ab78a6160441b7bbe8f9cbdf106047b03ae5f5765a4036e75ec52"),
        ("dense-hold", 3657, -2.574367947618984, 6.8021929473391936, -11.304399999999987,
         "881189c258ce2ecfc03a4cbfe471e055e11cf29ebb1664b0b0dafda3ecfb354e",
         "21f60d57b255896da6f3219311333ae145ad43ef088db28e1dd6942d364e159e"),
    ])
    def test_hold_episode_outputs_pinned(self, bundled_scenario, tmp_path, name, los_count,
                                         median_db, max_db, mean_return, trace_sha, los_sha):
        """Hold episodes on the bundled scenario and on the benchmark's
        dense-hold set-up (500 flights over every vertiport pair, 10 s
        spacing, seed 0), pinned bit for bit. The trace, the LOS events and
        their count use only IEEE arithmetic and sqrt, so they are compared
        exactly; the noise figures and the return pass through libm log10
        and pow, so they are compared at rel 1e-12. A change meant to move
        these numbers updates the pins and records it in CHANGES.md."""
        scenario = bundled_scenario
        if name == "dense-hold":
            net = scenario.network
            pairs = [(a, b) for a in net.vertiports for b in net.vertiports if a != b]
            scenario = generate_scenario(net, 500, pairs, departure_spacing_s=10.0, seed=0)
        rc = RewardConfig.for_layers(scenario.network.layers, 0.5)
        metrics, trace = M.run_episode(None, scenario, SimConfig(), rc)
        path = tmp_path / "trace.csv"
        M.write_trace(trace, path)
        world = World(scenario, SimConfig())
        while not world.terminal:
            world.step()
        assert metrics.los_count == len(world.los_events) == los_count
        assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha
        assert hashlib.sha256(repr(world.los_events).encode()).hexdigest() == los_sha
        assert metrics.noise_increase_median_db == pytest.approx(median_db, rel=1e-12)
        assert metrics.noise_increase_max_db == pytest.approx(max_db, rel=1e-12)
        assert metrics.mean_return == pytest.approx(mean_return, rel=1e-12)

    def test_policy_episode_outputs_pinned(self, bundled_scenario, tmp_path):
        """A sampled hidden-64 policy episode on the bundled scenario, as the
        benchmark's bundled-policy workload runs it at seed 0, pinned bit for
        bit. Unlike the hold episodes, its aircraft change layers, so dz
        varies within LOS pairs. Exact and rel 1e-12 comparisons as in
        test_hold_episode_outputs_pinned."""
        rc = RewardConfig.for_layers(bundled_scenario.network.layers, 0.5)
        metrics, trace = M.run_episode(nnet.init_params(64, 0), bundled_scenario, SimConfig(),
                                       rc, seed=0, greedy=False)
        path = tmp_path / "trace.csv"
        M.write_trace(trace, path)
        assert metrics.los_count == 324 and len(trace) == 2369
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            "1e19704f628fa5670adf65f8e2bf4b432f72ce1e9b36b2c8c67f1f8e39073965"
        assert metrics.noise_increase_median_db == pytest.approx(-10.322677863105657, rel=1e-12)
        assert metrics.noise_increase_max_db == pytest.approx(0.5699547870834039, rel=1e-12)
        assert metrics.mean_return == pytest.approx(-8.521862351727284, rel=1e-12)

    @pytest.mark.parametrize("horizon_s, los_count, rows, mean_return, trace_sha", [
        (600.0, 212, 1404, -7.940976003570161,
         "15c3cf454f5467ea393a668618bfc4c11b9501226dce03d513e9fae5bd1a59a6"),
        (605.0, 215, 1431, -7.500545850417467,
         "8b4359753838d7cc465d66ffe1a97acc7a43caa52b1ee49bb3d3fa7d79e8dabc"),
    ])
    def test_horizon_cut_episode_outputs_pinned(self, bundled_scenario, tmp_path, horizon_s,
                                                los_count, rows, mean_return, trace_sha):
        """The sampled hidden-64 policy episode of
        test_policy_episode_outputs_pinned, cut by the horizon with aircraft
        still enroute. 600 s is a decision step whose departures are still
        unspawned at the last observation; 605 s is not a decision step.
        Exact and rel 1e-12 comparisons as in test_hold_episode_outputs_pinned."""
        rc = RewardConfig.for_layers(bundled_scenario.network.layers, 0.5)
        metrics, trace = M.run_episode(nnet.init_params(64, 0), bundled_scenario,
                                       SimConfig(max_episode_time_s=horizon_s), rc, seed=0,
                                       greedy=False)
        path = tmp_path / "trace.csv"
        M.write_trace(trace, path)
        assert metrics.los_count == los_count and len(trace) == rows
        assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha
        assert metrics.mean_return == pytest.approx(mean_return, rel=1e-12)

    def test_incompatible_layers_rejected(self, line_scenario):
        with pytest.raises(ValidationError, match="layers"):
            M.check_compatible((1000.0, 2000.0), line_scenario)


class TestExport:
    def make_metrics(self, n):
        from uamnoise.metrics import EpisodeMetrics
        return [EpisodeMetrics(i, -1.5 + i, -1.0, {1000.0: 1.0}, -0.5,
                               seed=i, rho=0.5) for i in range(n)]

    def test_empty_csv_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        M.export_metrics([], path, "csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_row_cardinality(self, tmp_path):
        path = tmp_path / "m.csv"
        M.export_metrics(self.make_metrics(6), path, "csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 7  # header + 6

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        M.export_metrics(self.make_metrics(3), path, "json")
        doc = json.loads(path.read_text())
        assert len(doc) == 3
        assert doc[0]["los_count"] == 0
        assert doc[1]["median_noise_increase_db"] == -0.5

    def test_sentinel_serialized_as_empty(self, tmp_path):
        from uamnoise.metrics import EpisodeMetrics
        m = EpisodeMetrics(0, None, None, {1000.0: 1.0}, 0.0)
        path = tmp_path / "m.csv"
        M.export_metrics([m], path, "csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        idx = rows[0].index("median_noise_increase_db")
        assert rows[1][idx] == ""

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            M.export_metrics([], tmp_path / "m.xml", "xml")


class TestSweep:
    def test_single_rho_row_count(self, tmp_path):
        net = make_corridor_network(length_m=3000.0)
        sc = generate_scenario(net, 1, [("A", "B")], seed=0)
        tc = TrainConfig(iterations=2, hidden=4, seed=0, minibatch_size=32)
        rc = RewardConfig.for_layers(net.layers, 0.5)
        rows = M.sweep_rho([0.0], sc, tc, SimConfig(), rc, seeds=[0, 1])
        assert len(rows) == 2
        path = tmp_path / "sweep.csv"
        M.export_metrics(rows, path, "csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3  # header + |rhos| x |seeds|

    def test_checkpoint_reuse_identical_table(self):
        # sweep_rho trains and scores under the caller's reward config with
        # each rho and train config with each seed, so its rows equal a
        # train + run_episode per (rho, seed) by hand, in that order
        net = make_corridor_network(length_m=3000.0)
        sc = generate_scenario(net, 1, [("A", "B")], seed=0)
        tc = TrainConfig(iterations=2, hidden=4, seed=0, minibatch_size=32)
        rows = M.sweep_rho([0.3, 0.6], sc, tc, SimConfig(),
                           RewardConfig.for_layers(net.layers, 0.0), seeds=[0, 1])
        from uamnoise.rl import train
        expected, flats = [], []
        for rho in (0.3, 0.6):
            rc = RewardConfig.for_layers(net.layers, rho, d_los_m=150.0, d_comm_m=2500.0)
            for seed in (0, 1):
                params, _ = train(sc, replace(tc, seed=seed), SimConfig(), rc)
                expected.append(M.run_episode(params, sc, SimConfig(), rc, seed=seed)[0])
                flats.append(params.flat)
        assert rows == expected
        assert [(m.rho, m.seed) for m in rows] == [(0.3, 0), (0.3, 1), (0.6, 0), (0.6, 1)]
        # the seed is a training seed: each one trains other weights
        assert not np.array_equal(flats[0], flats[1])

    def test_tradeoff_means_over_seeds(self, tmp_path):
        def episode(rho, seed, los, top):
            return M.EpisodeMetrics(los, 1.0, 2.0, {1000.0: 1.0 - top, 3000.0: top}, -1.0,
                                    seed, rho)
        rows = [episode(0.9, 0, 4, 1.0), episode(0.9, 1, 2, 0.5),
                episode(0.0, 0, 1, 0.0), episode(0.0, 1, 0, 0.0)]
        low, high = M.tradeoff(rows)
        assert (low["rho"], low["mean_los"], low["top_layer_fraction"]) == (0.0, 0.5, 0.0)
        assert (high["rho"], high["mean_los"], high["top_layer_fraction"]) == (0.9, 3.0, 0.75)
        assert high["histogram"] == {1000.0: 0.25, 3000.0: 0.75}
        assert low["histogram_entropy"] == 0.0
        assert high["histogram_entropy"] == M.histogram_entropy(high["histogram"]) > 0.0
        path = tmp_path / "tradeoff.csv"
        M.export_tradeoff(rows, path)
        with open(path) as fh:
            table = list(csv.DictReader(fh))
        assert [rec["histogram_entropy"] for rec in table] == [
            "0", f"{M.histogram_entropy(high['histogram']):.6g}"]

    def test_rows_keep_the_callers_layers_and_lam(self):
        # a head-on pair under layers and lam that are not the defaults: a
        # sweep that dropped the layers would score altitudes outside its
        # bounds, and one that dropped lam would score separation otherwise
        layers = AltitudeLayerSet((500.0, 900.0, 1400.0))
        net = replace(make_corridor_network(length_m=3000.0), layers=layers)
        sc = generate_scenario(net, 2, [("A", "B"), ("B", "A")],
                               departure_spacing_s=0.0, seed=0)
        tc = TrainConfig(iterations=2, hidden=4, seed=0, minibatch_size=32)
        rows = M.sweep_rho([0.4], sc, tc, SimConfig(),
                           RewardConfig.for_layers(layers, 0.0, lam=0.3), seeds=[0])
        from uamnoise.rl import train

        def by_hand(lam):
            rc = RewardConfig.for_layers(layers, 0.4, lam=lam)
            params, _ = train(sc, tc, SimConfig(), rc)
            return [M.run_episode(params, sc, SimConfig(), rc, seed=0)[0]]

        assert rows == by_hand(0.3)
        assert rows != by_hand(RewardConfig.lam)  # lam reaches the rows
