import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

import uamnoise
from uamnoise import metrics as M
from uamnoise import nnet
from uamnoise.errors import ValidationError
from uamnoise.mdp import RewardConfig
from uamnoise.network import AltitudeLayerSet, generate_scenario, load_scenario
from uamnoise.rl import TraceRow, TrainConfig
from uamnoise.sim import Action, SimConfig

from conftest import make_corridor_network, make_line_network


def row(t, aid, z, x=0.0, changing=False):
    return TraceRow(t, aid, x, 0.0, z, Action.HOLD, changing)


def scalar_nearest_link(network, x, y):
    """The link closest to (x, y) by a loop over the links in id order,
    keeping the first minimum."""
    best = (math.inf, "")
    for lid in sorted(network.links):
        (ax, ay), (bx, by) = network.link_segment(lid)
        dx, dy = bx - ax, by - ay
        L2 = dx * dx + dy * dy
        s = 0.0 if L2 == 0.0 else max(0.0, min(1.0, ((x - ax) * dx + (y - ay) * dy) / L2))
        d = math.hypot(x - (ax + s * dx), y - (ay + s * dy))
        if d < best[0]:
            best = (d, lid)
    return best[1]


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

    def test_entropy(self):
        flat = {z: 0.2 for z in self.LAYERS.levels_ft}
        peaked = {z: (1.0 if z == 3000.0 else 0.0) for z in self.LAYERS.levels_ft}
        assert M.histogram_entropy(flat) == pytest.approx(math.log(5))
        assert M.histogram_entropy(peaked) == 0.0


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

    def test_nearest_link_attribution(self, line_network):
        # each point is 10 m from a link and its reverse; the lower id wins
        segments = M.link_segments(line_network)
        assert M.nearest_link(segments, [100.0, 23000.0], [10.0, -10.0]) == ["A-B", "B-C"]

    def test_nearest_link_at_vertiport_lowest_id_wins(self, line_network):
        # A-B, B-A, B-C and C-B all pass through B at distance 0
        segments = M.link_segments(line_network)
        assert M.nearest_link(segments, [12000.0, 0.0, 24000.0], [0.0, 0.0, 0.0]) == \
            ["A-B", "A-B", "B-C"]

    def test_nearest_link_matches_scalar_loop(self):
        # diagonal links, so np.hypot and math.hypot disagree in the last bit
        # on some rows; the ranking must still be the scalar loop's
        net = load_scenario(uamnoise.bundled_scenario_path()).network
        rng = np.random.default_rng(0)
        vx = [v.x_m for v in net.vertiports.values()]
        vy = [v.y_m for v in net.vertiports.values()]
        f = rng.uniform(0.0, 1.0, 2000)
        segments = [net.link_segment(lid) for lid in rng.choice(sorted(net.links), 2000)]
        xs = vx + [a[0] + t * (b[0] - a[0]) for t, (a, b) in zip(f, segments)] + \
            list(rng.uniform(min(vx) - 2000.0, max(vx) + 2000.0, 2000))
        ys = vy + [a[1] + t * (b[1] - a[1]) for t, (a, b) in zip(f, segments)] + \
            list(rng.uniform(min(vy) - 2000.0, max(vy) + 2000.0, 2000))
        assert M.nearest_link(M.link_segments(net), xs, ys) == \
            [scalar_nearest_link(net, x, y) for x, y in zip(xs, ys)]


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
            world.step({aid: Action.HOLD for aid in world.enroute_ids()})
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

    def test_metrics_pure_function_of_trace(self, line_scenario, tmp_path):
        rc = RewardConfig.for_layers(line_scenario.network.layers, 0.5)
        path = tmp_path / "trace.csv"
        metrics, trace = M.run_episode(None, line_scenario, SimConfig(), rc, seed=0)
        M.write_trace(trace, path)
        reloaded = M.read_trace(path)
        assert reloaded == trace
        recomputed = M.metrics_from_trace(reloaded, line_scenario.network,
                                          metrics.los_count, metrics.mean_return,
                                          rho=rc.rho)
        assert recomputed == metrics

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
        # each rho, so its row equals a train + run_episode by hand
        net = make_corridor_network(length_m=3000.0)
        sc = generate_scenario(net, 1, [("A", "B")], seed=0)
        tc = TrainConfig(iterations=2, hidden=4, seed=0, minibatch_size=32)
        rows = M.sweep_rho([0.3], sc, tc, SimConfig(), RewardConfig.for_layers(net.layers, 0.0),
                           seeds=[0])
        from uamnoise.rl import train
        rc = RewardConfig.for_layers(net.layers, 0.3,
                                     d_los_m=150.0, d_comm_m=2500.0)
        params, _ = train(sc, tc, SimConfig(), rc)
        assert rows == [M.run_episode(params, sc, SimConfig(), rc, seed=0)[0]]

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
