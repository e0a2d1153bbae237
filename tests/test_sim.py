import dataclasses
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from uamnoise.errors import SimulationError, ValidationError
from uamnoise.mdp import N_MAX_INTRUDERS, RewardConfig, observe_tick
from uamnoise.network import (COORD_LIMIT_M, AltitudeLayerSet, Flight, Link, Network,
                              Scenario, Vertiport, generate_scenario)
from uamnoise.rl import collect_rollout
from uamnoise.sim import (FT_TO_M, Action, AircraftState, LosEvent, Phase, SimConfig, World,
                          action_mask, motion_plan)

from conftest import (HUB, enroute_ids, hub_world, make_corridor_network, make_cross_network,
                      make_line_network, parallel_world, route_position, routes_related,
                      step_with)


def make_world(n=2, od=None, spacing=60.0, net=None, **cfg):
    net = net or make_line_network()
    sc = generate_scenario(net, n, od or [("A", "C"), ("C", "A")],
                           departure_spacing_s=spacing, seed=3)
    return World(sc, SimConfig(**cfg))


class TestSpawn:
    def test_departure_zero_spawns_at_origin(self, solo_scenario):
        world = World(solo_scenario, SimConfig())
        world.spawn_due_aircraft()
        ac = world.aircraft["AC001"]
        assert ac.phase is Phase.ENROUTE
        assert world.position(ac) == (0.0, 0.0, "A")
        assert ac.z_ft == 1000.0 and ac.z_target_ft == 1000.0 and not ac.b_changing

    def test_future_departure_stays_pending(self, line_network):
        sc = generate_scenario(line_network, 2, [("A", "C")], departure_spacing_s=100.0, seed=0)
        world = World(sc, SimConfig())
        for _ in range(50):
            world.step()
        pending = [a for a in world.aircraft.values() if a.phase is Phase.PENDING]
        assert len(pending) == 1

    def test_second_spawn_on_schedule(self, line_network):
        sc = generate_scenario(line_network, 2, [("A", "C")], departure_spacing_s=60.0, seed=0)
        world = World(sc, SimConfig())
        while world.t < 60.0:
            world.step()
        world.spawn_due_aircraft()
        assert len(world.enroute()) == 2

    def test_enroute_is_a_new_list(self, line_network):
        # a caller may keep or mutate it: the world's own list is not shared,
        # and a later spawn, which inserts into that list, leaves a kept one as it is
        sc = generate_scenario(line_network, 2, [("A", "C")], departure_spacing_s=60.0, seed=0)
        world = World(sc, SimConfig())
        world.spawn_due_aircraft()
        kept, mutated = world.enroute(), world.enroute()
        assert kept is not mutated and len(kept) == 1
        mutated.clear()
        assert world.enroute() == kept and not world.terminal
        while world.t < 60.0:
            world.step()
        world.spawn_due_aircraft()
        assert len(kept) == 1 and enroute_ids(world) == ["AC001", "AC002"]


class TestClock:
    @pytest.mark.parametrize("dt_s, interval_s, steps, ticks", [
        (1.0, 10.0, 7200, 720), (0.1, 1.0, 72000, 7200),
        (0.2, 1.0, 36000, 7200), (0.3, 0.9, 24000, 8000)])
    def test_ticks_steps_and_horizon(self, line_network, dt_s, interval_s, steps, ticks):
        # a flight departing after the horizon keeps the episode running to it
        sc = Scenario(line_network, (Flight("AC001", "A", "C", 1e6),))
        config = SimConfig(dt_s=dt_s, decision_interval_s=interval_s)
        world = World(sc, config)
        n_steps = n_ticks = 0
        while not world.terminal:
            n_ticks += world.is_decision_tick()
            world.step()
            n_steps += 1
        assert (n_steps, n_ticks) == (steps, ticks)
        assert world.t == config.max_episode_time_s

    @pytest.mark.parametrize("dt_s, interval_s", [(1.0, 1.5), (1.0, 1e-10)])
    def test_interval_must_be_a_positive_step_multiple(self, dt_s, interval_s):
        with pytest.raises(ValidationError, match="integer multiple"):
            SimConfig(dt_s=dt_s, decision_interval_s=interval_s)


class TestAltitudeCommands:
    def setup_method(self):
        self.world = make_world(n=1, od=[("A", "C")])
        self.world.spawn_due_aircraft()
        self.ac = self.world.aircraft["AC001"]

    def test_climb_sets_target_and_lock(self):
        self.ac.z_ft = self.ac.z_target_ft = 2000.0
        self.world.apply_altitude_command(self.ac, Action.CLIMB)
        assert self.ac.z_target_ft == 2500.0
        assert self.ac.b_changing
        assert self.ac.last_action is Action.CLIMB

    def test_lock_degrades_commands_to_hold(self):
        self.ac.z_ft, self.ac.z_target_ft = 2100.0, 2500.0
        self.ac.b_changing = True
        self.world.apply_altitude_command(self.ac, Action.DESCEND)
        assert self.ac.z_target_ft == 2500.0
        assert self.ac.last_action is Action.HOLD

    def test_climb_at_top_degrades_to_hold(self):
        self.ac.z_ft = self.ac.z_target_ft = 3000.0
        self.world.apply_altitude_command(self.ac, Action.CLIMB)
        assert self.ac.last_action is Action.HOLD
        assert not self.ac.b_changing

    def test_descend_at_bottom_degrades_to_hold(self):
        self.world.apply_altitude_command(self.ac, Action.DESCEND)
        assert self.ac.last_action is Action.HOLD


class TestKinematics:
    def test_climb_rate_per_second(self):
        world = make_world(n=1, od=[("A", "C")])
        world.spawn_due_aircraft()
        ac = world.aircraft["AC001"]
        ac.z_ft, ac.z_target_ft, ac.b_changing = 2400.0, 2500.0, True
        world.advance_kinematics()
        assert ac.z_ft == pytest.approx(2400.0 + 500.0 / 60.0, abs=1e-9)

    def test_snap_to_target_without_overshoot(self):
        world = make_world(n=1, od=[("A", "C")])
        world.spawn_due_aircraft()
        ac = world.aircraft["AC001"]
        ac.z_ft, ac.z_target_ft, ac.b_changing = 2495.0, 2500.0, True
        world.advance_kinematics()
        assert ac.z_ft == 2500.0
        assert not ac.b_changing

    def test_arrival_near_destination(self):
        # a 100 m route: 67 m after one step, 33 m short; the second step's
        # 67 m reach past the end, so it arrives on the destination
        net = make_corridor_network(length_m=100.0)
        sc = generate_scenario(net, 1, [("A", "B")], seed=0)
        world = World(sc, SimConfig())
        ac = world.aircraft["AC001"]
        world.step()
        assert ac.phase is Phase.ENROUTE
        assert world.position(ac) == (67.0, 0.0, "A-B")
        world.step()
        assert ac.phase is Phase.ARRIVED and world.enroute() == []
        assert world.position(ac) == (100.0, 0.0, "B")

    def test_no_position_before_spawn(self, line_network):
        sc = generate_scenario(line_network, 2, [("A", "C")], departure_spacing_s=60.0, seed=0)
        world = World(sc, SimConfig())
        world.spawn_due_aircraft()
        assert world.position(world.aircraft["AC001"]) == (0.0, 0.0, "A")
        with pytest.raises(SimulationError, match="'AC002' has no position before it spawns"):
            world.position(world.aircraft["AC002"])

    def test_planned_arrival_of_an_unspawned_flight_retires_no_one(self):
        # AC001 (30 m, spawn step 1) is planned to arrive at step 2; an
        # advance_kinematics call at step 1 without the spawn that step()
        # makes first leaves it pending and AC002 (2030 m) enroute
        net = make_chain_network([30.0, 2000.0], bend=False)
        world = World(Scenario(net, (Flight("AC001", "V0", "V1", 0.5),
                                     Flight("AC002", "V0", "V2", 0.0))), SimConfig())
        world.step()
        world.advance_kinematics()
        assert world.aircraft["AC001"].phase is Phase.PENDING
        assert enroute_ids(world) == ["AC002"]

    def test_arrival_mid_transition_freezes_the_record(self):
        # a 300 m route takes 5 steps of 67 m; a climb of 500 ft at 500 ft/min
        # takes 60, so the aircraft arrives still changing altitude; a later
        # departure keeps the episode running past the arrival
        net = make_corridor_network(length_m=300.0)
        world = World(Scenario(net, (Flight("AC001", "A", "B", 0.0),
                                     Flight("AC002", "A", "B", 30.0))), SimConfig())
        world.spawn_due_aircraft()
        ac = world.aircraft["AC001"]
        world.apply_altitude_command(ac, Action.CLIMB)
        z, step_ft = ac.z_ft, 500.0 / 60.0
        for _ in range(5):
            assert ac.phase is Phase.ENROUTE
            world.step()
            z += step_ft
        assert ac.phase is Phase.ARRIVED and ac.b_changing
        assert ac.z_ft == z and ac.z_target_ft == 1500.0
        assert "AC001" not in enroute_ids(world)
        frozen = dataclasses.astuple(ac)
        while not world.terminal:
            world.step()
            assert dataclasses.astuple(ac) == frozen and "AC001" not in enroute_ids(world)
        assert world.aircraft["AC002"].phase is Phase.ARRIVED and world.n_steps == 35

    def test_link_handoff_positions_on_second_link(self, line_scenario):
        # 12 km links: 179 steps of 67 m end 7 m short of B, on the first
        # link; the 180th ends 60 m past B, on the second
        world = World(line_scenario, SimConfig())
        ac = world.aircraft["AC001"]
        links = line_scenario.routes["AC001"].link_ids
        for _ in range(179):
            world.step()
        x, y, member = world.position(ac)
        assert abs(x - 12000.0) == 7.0 and y == 0.0 and member == links[0]
        world.step()
        x, y, member = world.position(ac)
        assert abs(x - 12000.0) == 60.0 and y == 0.0 and member == links[1]


def neighbor_lists(world, limit=N_MAX_INTRUDERS):
    """World.neighbors as each enroute id's list of (distance, id), nearest
    first, after checking that its flat rows ascend."""
    row, other, dist = world.neighbors(limit)
    assert len(row) == len(other) == len(dist) and (np.diff(row) >= 0).all()
    ids = enroute_ids(world)
    lists = {aid: [] for aid in ids}
    for r, o, d in zip(row.tolist(), other.tolist(), dist.tolist()):
        lists[ids[r]].append((d, ids[o]))
    return lists


class TestNeighbors:
    def make_pair(self, planar_sep):
        # side by side on related parallel corridors, planar_sep apart
        world = parallel_world([0.0, planar_sep])
        return world, world.aircraft["AC001"], world.aircraft["AC002"]

    def test_in_range_sees_each_other(self):
        world, a, b = self.make_pair(2400.0)
        assert neighbor_lists(world) == {a.id: [(2400.0, b.id)], b.id: [(2400.0, a.id)]}

    def test_out_of_range_empty(self):
        world, a, b = self.make_pair(2600.0)
        assert neighbor_lists(world) == {a.id: [], b.id: []}

    def test_unrelated_routes_filtered(self):
        # two parallel corridors 1 km apart; aircraft within comm range
        from uamnoise.network import (AltitudeLayerSet, Link, Network, Vertiport)
        vp = {"A": Vertiport("A", 0, 0), "B": Vertiport("B", 10000, 0),
              "C": Vertiport("C", 0, 1000), "D": Vertiport("D", 10000, 1000)}
        links = {"A-B": Link("A-B", "A", "B"), "C-D": Link("C-D", "C", "D")}
        net = Network(vp, links, AltitudeLayerSet(), {})
        sc = generate_scenario(net, 2, [("A", "B"), ("C", "D")],
                               departure_spacing_s=0.0, seed=0)
        world = World(sc, SimConfig())
        world.spawn_due_aircraft()
        assert neighbor_lists(world) == {aid: [] for aid in enroute_ids(world)}

    def test_symmetry_over_episode(self, line_scenario):
        world = World(line_scenario, SimConfig())
        while not world.terminal and world.t < 400:
            world.spawn_due_aircraft()
            table = neighbor_lists(world)
            for aid, found in table.items():
                for d, other in found:
                    assert (d, aid) in table[other]
            world.step()

    def test_equal_distances_in_flight_order_not_id_order(self):
        # scenario-flight order AC003, AC001, AC002: two intruders 1 km either
        # side of AC002 come in flight order, against the order of their ids
        world = parallel_world([6000.0, 5000.0, 4000.0], order=(2, 0, 1))
        assert enroute_ids(world) == ["AC003", "AC001", "AC002"]
        for aid, action in (("AC003", Action.CLIMB), ("AC001", Action.DESCEND),
                            ("AC002", Action.HOLD)):
            world.aircraft[aid].last_action = action
        assert neighbor_lists(world)["AC002"] == [(1000.0, "AC003"), (1000.0, "AC001")]
        _, intr, intr_mask = observe_tick(world, RewardConfig())  # AC002's row is 2
        assert intr_mask[2].tolist() == [True, True]
        assert intr[2, :, 2:].tolist() == [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]  # climb, descend

    def test_tie_at_the_cap_keeps_the_earlier_flight(self):
        # 9 intruders at 100..900 m and two at 1000 m, one each side: only
        # N_MAX_INTRUDERS are kept, so of the tied 10th and 11th the earlier
        # flight (ids[1], at +1000 m) stays and the later one (ids[11], at
        # -1000 m, first in x order) goes
        world = parallel_world([5000.0, 6000.0, *(5000.0 + 100.0 * k for k in range(1, 10)),
                                4000.0])
        ids = enroute_ids(world)
        assert N_MAX_INTRUDERS == 10
        found = neighbor_lists(world)[ids[0]]
        assert found == [(100.0 * k, ids[k + 1]) for k in range(1, 10)] + [(1000.0, ids[1])]
        assert neighbor_lists(world, limit=11)[ids[0]][-2:] == [(1000.0, ids[1]),
                                                                 (1000.0, ids[11])]


def planned_pairs(world):
    """The flight-id pairs the world's motion plan gives detect_los to
    measure at the current step."""
    plan = motion_plan(world.scenario, world.config)
    lo, hi = plan.los_steps.get(world.n_steps, (0, 0))
    ids = [fl.id for fl in world.scenario.flights]
    return [(ids[a], ids[b]) for a, b in zip(plan.los_a[lo:hi], plan.los_b[lo:hi])]


class TestDetectLos:
    def make_pair(self, dz_ft, planar_m=0.0):
        # side by side on parallel corridors, planar_m apart, dz_ft vertically
        world = parallel_world([0.0, planar_m])
        a, b = world.enroute()
        b.z_ft = a.z_ft + dz_ft
        return world

    def test_adjacent_layers_not_los(self):
        world = self.make_pair(500.0)
        assert 500.0 * FT_TO_M == pytest.approx(152.4)
        assert world.detect_los() == []

    def test_colocated_same_altitude_is_los(self):
        world = self.make_pair(0.0)
        assert len(world.detect_los()) == 1

    def test_diagonal_euclidean_norm(self):
        world = self.make_pair(100.0 / FT_TO_M, planar_m=100.0)
        violations = world.detect_los()
        assert len(violations) == 1
        assert violations[0][2] == pytest.approx(math.sqrt(2) * 100.0, abs=1e-6)

    def test_contiguous_violation_merges_into_one_event(self):
        world = make_world(n=2, od=[("A", "C"), ("A", "C")], spacing=0.0)
        # co-located same-route aircraft remain in violation the whole flight
        while not world.terminal:
            world.step()
        assert len(world.los_events) == 1
        assert world.los_events[0].duration_s > 100.0


class TestLosBookkeeping:
    """World.step's LOS events from scripted detect_los results, one list
    per step; steps end at t = 1, 2, ..."""

    def events(self, script):
        world = make_world(n=3, spacing=0.0)
        world.detect_los = iter(script).__next__
        for _ in script:
            world.step()
        return world.los_events

    def test_one_pair_ends_as_another_begins(self):
        events = self.events([[("AC001", "AC002", 100.0)], [("AC001", "AC003", 90.0)], []])
        assert events == [LosEvent(("AC001", "AC002"), 1.0, 1.0, 100.0),
                          LosEvent(("AC001", "AC003"), 2.0, 1.0, 90.0)]

    def test_continuing_pair_at_its_running_minimum(self):
        pair = ("AC001", "AC002")
        events = self.events([[(*pair, 100.0)], [(*pair, 120.0)], [(*pair, 100.0)],
                              [(*pair, 100.0)], []])
        assert events == [LosEvent(pair, 1.0, 4.0, 100.0)]


class TestSweepCutoffs:
    """The motion plan's LOS candidates are the pairs with |dx| <= d_los and
    |dy| < d_los: a pair at |dx| == d_los is measured and rejected (LOS needs
    d < d_los), and a pair at |dy| == d_los is not measured. Aircraft side by
    side on parallel corridors stay exactly their corridors' offset apart;
    co-located ones exercise equal positions. The neighbours' range gate
    dx*dx + dy*dy <= d_comm*d_comm admits a pair at |dx| == d_comm."""

    @pytest.mark.parametrize("d_los", [150.0, 400.0])
    def test_los_at_exactly_d_los_is_not_los(self, d_los):
        world = parallel_world([0.0, d_los, 0.0], d_los_m=d_los)
        for _ in range(3):
            assert ("AC001", "AC002") in planned_pairs(world)
            assert world.detect_los() == [("AC001", "AC003", 0.0)]
            world.step()

    @pytest.mark.parametrize("d_los", [150.0, 400.0])
    def test_los_just_below_d_los(self, d_los):
        x = math.nextafter(d_los, 0.0)
        world = parallel_world([0.0, x, 0.0], d_los_m=d_los)
        for _ in range(3):
            assert world.detect_los() == [("AC001", "AC002", x), ("AC001", "AC003", 0.0),
                                          ("AC002", "AC003", x)]
            world.step()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("d_los", [150.0, 400.0])
    def test_los_at_exactly_d_los_in_y(self, d_los, sign):
        # dx == dz == 0: a pair |dy| == d_los apart is no LOS, one just nearer is
        world = parallel_world([0.0, sign * d_los], north=False, d_los_m=d_los)
        assert planned_pairs(world) == [] and world.detect_los() == []
        y = sign * math.nextafter(d_los, 0.0)
        world = parallel_world([0.0, y], north=False, d_los_m=d_los)
        assert world.detect_los() == [("AC001", "AC002", abs(y))]

    def test_los_in_flight_order_not_id_order(self):
        # scenario-flight order AC003, AC001, AC002 and x order AC001, AC002,
        # AC003: the pairs come out in flight order, each pair's ids ascending
        world = parallel_world([0.0, 50.0, 100.0], order=(2, 0, 1))
        assert world.detect_los() == [("AC001", "AC003", 100.0), ("AC002", "AC003", 50.0),
                                      ("AC001", "AC002", 50.0)]

    @pytest.mark.parametrize("d_comm", [2500.0, 900.0])
    def test_neighbor_at_exactly_d_comm_is_returned(self, d_comm):
        world = parallel_world([5000.0, 5000.0 + d_comm, 5000.0 + d_comm], d_comm_m=d_comm)
        for _ in range(3):
            ids = [[other for _, other in found] for found in neighbor_lists(world).values()]
            assert ids == [["AC002", "AC003"], ["AC003", "AC001"], ["AC002", "AC001"]]
            world.step()

    @pytest.mark.parametrize("d_comm", [2500.0, 900.0])
    def test_neighbor_just_beyond_d_comm_is_not(self, d_comm):
        x = math.nextafter(5000.0 + d_comm, math.inf)
        world = parallel_world([5000.0, x, x], d_comm_m=d_comm)
        for _ in range(3):
            ids = [[other for _, other in found] for found in neighbor_lists(world).values()]
            assert ids == [[], ["AC003"], ["AC002"]]
            world.step()


COORD = st.floats(-COORD_LIMIT_M, COORD_LIMIT_M)


def distance(world, a, b):
    """The one distance rule, restated over World.position:
    sqrt((dx*dx + dy*dy) + dz*dz) with dz = (z_a - z_b) * FT_TO_M."""
    (ax, ay, _), (bx, by, _) = world.position(a), world.position(b)
    dx, dy, dz = ax - bx, ay - by, (a.z_ft - b.z_ft) * FT_TO_M
    return math.sqrt((dx * dx + dy * dy) + dz * dz)


def distance_table(world):
    """World.neighbors's distances with no limit, as a dict by (row, other)."""
    row, other, dist = world.neighbors(len(world.aircraft))
    return dict(zip(zip(row.tolist(), other.tolist()), dist.tolist()))


class TestOnePairPass:
    @given(st.tuples(COORD, COORD, COORD), st.tuples(COORD, COORD, COORD))
    @example((1e7, -1e7, 5e-324), (-1e7, 5e-324, -1e7))
    def test_distance_is_bitwise_symmetric(self, p, q):
        assume(HUB not in (p[:2], q[:2]))
        world = hub_world([p[:2], q[:2]], d_comm_m=1e9)
        a, b = world.enroute()
        a.z_ft, b.z_ft = p[2], q[2]
        table = distance_table(world)
        assert sorted(table) == [(0, 1), (1, 0)]
        assert struct.pack("<d", table[0, 1]) == struct.pack("<d", table[1, 0])
        assert struct.pack("<d", table[0, 1]) == struct.pack("<d", distance(world, a, b))


class TestDistanceRuleProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(COORD, COORD, COORD), min_size=2, max_size=8))
    def test_python_and_numpy_distances_bitwise_equal(self, points):
        """The rule over World.position in Python, its NumPy
        expression, and World.neighbors's distances agree bit for bit, and
        neighbors gives each pair's distance in both rows alike."""
        # every route related and every pair in range, so every pair is measured
        assume(all((x, y) != HUB for x, y, _ in points))
        world = hub_world([(x, y) for x, y, _ in points], d_comm_m=1e9)
        acs = world.enroute()
        for ac, (_, _, z) in zip(acs, points):
            ac.z_ft = z
        p = np.array(points)
        dx, dy = p[:, None, 0] - p[:, 0], p[:, None, 1] - p[:, 1]
        dz = (p[:, None, 2] - p[:, 2]) * FT_TO_M
        expr = np.sqrt((dx * dx + dy * dy) + dz * dz)
        python = np.array([[distance(world, a, b) for b in acs] for a in acs])
        assert python.tobytes() == expr.tobytes()
        table = distance_table(world)
        off = ~np.eye(len(acs), dtype=bool)
        assert sorted(table) == list(zip(*np.nonzero(off)))
        dist = np.zeros_like(python)
        for (i, j), d in table.items():
            dist[i, j] = d
        assert dist[off].tobytes() == python[off].tobytes()
        assert dist.tobytes() == dist.T.tobytes()


class TestStep:
    def test_empty_world_terminal(self, line_network):
        world = World(Scenario(line_network, ()), SimConfig())
        assert world.terminal

    def test_single_aircraft_hold_arrives_without_los(self, solo_scenario):
        world = World(solo_scenario, SimConfig())
        while not world.terminal:
            world.step()
        assert world.aircraft["AC001"].phase is Phase.ARRIVED
        assert world.los_events == []

    def test_deterministic_replay(self, line_scenario):
        def run():
            world = World(line_scenario, SimConfig())
            log = []
            while not world.terminal:
                world.spawn_due_aircraft()
                actions = {}
                for i, aid in enumerate(enroute_ids(world)):
                    actions[aid] = Action.CLIMB if (int(world.t) // 10 + i) % 3 == 0 \
                        else Action.HOLD
                step_with(world, actions)
                for ac in world.aircraft.values():
                    spawned = ac.phase is not Phase.PENDING
                    log.append((world.t, dataclasses.astuple(ac),
                                spawned and world.position(ac)))
            return log, world.los_events

        log1, ev1 = run()
        log2, ev2 = run()
        assert log1 == log2
        assert ev1 == ev2

    def test_lock_safety_and_bounds_over_episode(self, line_scenario):
        import numpy as np
        rng = np.random.default_rng(0)
        world = World(line_scenario, SimConfig())
        layers = line_scenario.network.layers
        locked_target: dict[str, float] = {}
        while not world.terminal:
            world.spawn_due_aircraft()
            actions = {aid: Action(int(rng.integers(0, 3))) for aid in enroute_ids(world)}
            step_with(world, actions)
            for ac in world.aircraft.values():
                if ac.phase is not Phase.ENROUTE:
                    continue
                assert layers.z_min <= ac.z_ft <= layers.z_max
                assert ac.z_target_ft in layers.levels_ft
                assert ac.b_changing == (ac.z_ft != ac.z_target_ft)
                if ac.b_changing:
                    if ac.id in locked_target:
                        assert locked_target[ac.id] == ac.z_target_ft
                    locked_target[ac.id] = ac.z_target_ft
                else:
                    locked_target.pop(ac.id, None)


class TestCommandValues:
    """World.apply_altitude_command takes an Action or a value equal to one,
    such as its wire integer, and rejects any other value."""

    def command(self, solo_scenario, z_ft, action):
        world = World(solo_scenario, SimConfig())
        world.spawn_due_aircraft()
        ac = world.aircraft["AC001"]
        ac.z_ft = ac.z_target_ft = z_ft
        step_with(world, {"AC001": action})
        return ac.z_target_ft, ac.last_action

    # targets after hold, descend and climb at the bottom, middle and top layers
    @pytest.mark.parametrize("z_ft, targets", [(1000.0, (1000.0, 1000.0, 1500.0)),
                                               (2000.0, (2000.0, 1500.0, 2500.0)),
                                               (3000.0, (3000.0, 2500.0, 3000.0))])
    @pytest.mark.parametrize("value", [0, 1, 2, *Action])
    def test_int_and_member_command_alike(self, solo_scenario, z_ft, targets, value):
        target, last = self.command(solo_scenario, z_ft, value)
        assert target == targets[value]
        # a masked command is executed, and stored, as hold
        assert last is (Action(value) if target != z_ft else Action.HOLD)
        assert (target, last) == self.command(solo_scenario, z_ft, Action(value))

    @pytest.mark.parametrize("value", [3, -1, "climb", 1.5, None])
    def test_other_values_rejected(self, solo_scenario, value):
        with pytest.raises(SimulationError, match=f"'AC001'.*{re.escape(repr(value))}"):
            self.command(solo_scenario, 2000.0, value)


def scan_enroute(world):
    return [a for a in world.aircraft.values() if a.phase is Phase.ENROUTE]


def scan_related(world, ac):
    """(distance, flight index, aircraft) of every enroute aircraft on a route
    related to ac's within planar d_comm, ascending."""
    d_comm, routes = world.config.d_comm_m, world.scenario.routes
    index = {fl.id: i for i, fl in enumerate(world.scenario.flights)}
    found = []
    x, y, _ = world.position(ac)
    for other in scan_enroute(world):
        ox, oy, _ = world.position(other)
        dx, dy = x - ox, y - oy
        if (other is not ac and dx * dx + dy * dy <= d_comm * d_comm
                and routes_related(world.net, routes[ac.id], routes[other.id])):
            found.append((distance(world, ac, other), index[other.id], other))
    return sorted(found, key=lambda rec: rec[:2])


def scan_neighbors(world, ac_id):
    return [(d, other.id) for d, _, other in scan_related(world, world.aircraft[ac_id])]


def scan_los(world):
    enroute = scan_enroute(world)
    out = []
    for i, a in enumerate(enroute):
        for b in enroute[i + 1:]:
            d = distance(world, a, b)
            if d < world.config.d_los_m:
                out.append((*sorted((a.id, b.id)), d))
    return out


def draw_network(draw, line_od, link_len_m):
    """The line network with link_len_m and the O-D pairs line_od, where y is
    always 0 and every route is related to every other, or the 2-D cross
    network with its O-D pairs: routes related by a crossing only, and one
    unrelated corridor."""
    if draw(st.booleans()):
        return make_cross_network()
    return make_line_network(link_len_m=link_len_m), line_od


@st.composite
def index_cases(draw):
    n = draw(st.integers(1, 40))
    net, od = draw_network(draw, [("A", "C"), ("C", "A"), ("A", "B")], 1500.0)
    # 0.3 and 0.9 s give departure times that are not exact in binary
    spacing = draw(st.sampled_from([0.0, 0.3, 0.9, 7.0, 25.0]))
    sc = generate_scenario(net, n, od, departure_spacing_s=spacing,
                           seed=draw(st.integers(0, 99)))
    # scenario-flight order need not follow departure order
    flights = tuple(sc.flights[i] for i in draw(st.permutations(range(n))))
    dt_s, interval_s = draw(st.sampled_from([(1.0, 10.0), (0.5, 1.0), (2.0, 10.0),
                                             (0.3, 0.9)]))
    config = SimConfig(dt_s=dt_s, decision_interval_s=interval_s,
                       max_episode_time_s=draw(st.sampled_from([60.0, 250.0, 7200.0])),
                       d_los_m=draw(st.sampled_from([150.0, 40.0, 700.0, 3000.0])),
                       d_comm_m=draw(st.sampled_from([2500.0, 300.0, 1200.0, 9000.0])))
    return Scenario(net, flights), config, draw(st.integers(0, 2**16))


#: Departures k * 0.9 s against steps n * 0.3 s: in binary 0.9 / 0.3 == 3 but
#: 3 * 0.3 < 0.9, so a flight departing at 0.9 spawns at step 4, not 3.
INEXACT_SPAWN_CASE = (generate_scenario(make_line_network(link_len_m=1500.0), 12,
                                        [("A", "C"), ("C", "A"), ("A", "B")],
                                        departure_spacing_s=0.9, seed=0),
                      SimConfig(dt_s=0.3, decision_interval_s=0.9, max_episode_time_s=250.0), 0)


class TestEnrouteIndexProperty:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(index_cases())
    @example(INEXACT_SPAWN_CASE)
    def test_index_matches_full_scan(self, case):
        """Drawn worlds, run with random commands to the end, horizon cuts
        included, checked right after each spawn and after each step."""
        scenario, config, seed = case
        world = World(scenario, config)
        rng = np.random.default_rng(seed)
        horizon_steps = math.ceil(config.max_episode_time_s / config.dt_s - 1e-9)

        reward_config = RewardConfig(d_comm_m=config.d_comm_m)

        def check():
            """The index, and neighbors with no limit and at N_MAX_INTRUDERS,
            observe_tick and detect_los, against full scans of the records.
            After a step, departures of the new step are not spawned yet."""
            enroute = [a.id for a in scan_enroute(world)]
            assert enroute_ids(world) == enroute
            all_arrived = all(a.phase is Phase.ARRIVED for a in world.aircraft.values())
            assert world.terminal == (world.n_steps >= horizon_steps or all_arrived)
            table = neighbor_lists(world, limit=len(world.aircraft))
            capped = neighbor_lists(world)
            own, intr, intr_mask = observe_tick(world, reward_config)
            for b, aid in enumerate(enroute):
                found = scan_related(world, world.aircraft[aid])
                assert table[aid] == [(d, other.id) for d, _, other in found]
                assert capped[aid] == table[aid][:N_MAX_INTRUDERS]
                assert (own[b].tolist(), intr[b, intr_mask[b]].tolist()) == \
                    scan_observe(world, aid, reward_config, found)
            assert world.detect_los() == scan_los(world)

        departures = {fl.id: fl.departure_s for fl in scenario.flights}
        check()
        while not world.terminal:
            world.spawn_due_aircraft()
            assert all((a.phase is Phase.PENDING) == (departures[a.id] > world.t)
                       for a in world.aircraft.values())
            check()
            actions = {aid: Action(int(rng.integers(0, 3))) for aid in enroute_ids(world)}
            step_with(world, actions)
            check()

    @settings(max_examples=30, deadline=None)
    @given(index_cases())
    def test_records_carry_flight_index(self, case):
        # index_cases permutes the flights, so flight index and id order differ
        scenario, config, _ = case
        world = World(scenario, config)
        for i, f in enumerate(scenario.flights):
            assert world.aircraft[f.id].flight_index == i


@st.composite
def los_cases(draw):
    """Networks in 1-D and 2-D, layer sets, time steps, separation minima and
    dense departures."""
    base, od = draw_network(draw, [("A", "C"), ("C", "A"), ("A", "B"), ("B", "C")],
                            draw(st.sampled_from([1500.0, 4000.0])))
    levels = draw(st.sampled_from([AltitudeLayerSet().levels_ft, (1000.0, 1100.0, 1200.0),
                                   (400.0, 900.0, 1400.0, 1900.0)]))
    net = Network(base.vertiports, base.links, AltitudeLayerSet(levels), base.zones)
    sc = generate_scenario(net, draw(st.integers(2, 30)), od,
                           departure_spacing_s=draw(st.sampled_from([0.0, 0.0, 7.0, 25.0])),
                           seed=draw(st.integers(0, 99)))
    dt_s, interval_s = draw(st.sampled_from([(1.0, 10.0), (0.5, 1.0), (2.0, 10.0),
                                             (0.3, 0.9)]))
    config = SimConfig(dt_s=dt_s, decision_interval_s=interval_s,
                       d_los_m=draw(st.sampled_from([150.0, 40.0, 400.0, 1600.0])),
                       climb_rate_fpm=draw(st.sampled_from([500.0, 1300.0])))
    return sc, config, draw(st.integers(0, 2**16))


class TestLosEventsProperty:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(los_cases())
    def test_events_match_brute_force_oracle(self, case):
        """World.los_events against an all-pairs scan of every aircraft's
        phase after each step, with its own onset, duration and
        minimum-distance bookkeeping, run to episode end."""
        scenario, config, seed = case
        world = World(scenario, config)
        rng = np.random.default_rng(seed)
        active: dict[tuple[str, str], tuple[float, float]] = {}  # pair -> (onset, min d)
        events = []
        while not world.terminal:
            world.spawn_due_aircraft()
            actions = {aid: Action(int(rng.integers(0, 3))) for aid in enroute_ids(world)}
            step_with(world, actions)
            now = {}
            enroute = scan_enroute(world)
            for i, a in enumerate(enroute):
                for b in enroute[i + 1:]:
                    d = distance(world, a, b)
                    if d < config.d_los_m:
                        now[tuple(sorted((a.id, b.id)))] = d
            for pair, d in now.items():
                onset, dmin = active.get(pair, (world.t, d))
                active[pair] = (onset, min(dmin, d))
            for pair in [p for p in active if p not in now]:
                onset, dmin = active.pop(pair)
                events.append(LosEvent(pair, onset, world.t - onset, dmin))
        events += [LosEvent(pair, onset, world.t - onset, dmin)
                   for pair, (onset, dmin) in sorted(active.items())]
        assert world.los_events == events


def make_chain_network(lengths, bend):
    """Vertiports V0..Vn joined by links of the given lengths in both
    directions, no zones; with bend, every second link runs north, not east."""
    x, y, vp = 0.0, 0.0, {"V0": Vertiport("V0", 0.0, 0.0)}
    for i, length in enumerate(lengths, 1):
        x, y = (x, y + length) if bend and i % 2 == 0 else (x + length, y)
        vp[f"V{i}"] = Vertiport(f"V{i}", x, y)
    links = {}
    for i in range(1, len(lengths) + 1):
        a, b = f"V{i - 1}", f"V{i}"
        links[f"{a}-{b}"] = Link(f"{a}-{b}", a, b)
        links[f"{b}-{a}"] = Link(f"{b}-{a}", b, a)
    return Network(vp, links, AltitudeLayerSet(), {})


@st.composite
def chain_cases(draw):
    """Chains whose links range from shorter than one 67 m step, through
    exactly one step, to kilometres, straight or bent; traffic both ways and
    between inner vertiports, often departing together; a seed for the commands."""
    lengths = draw(st.lists(st.sampled_from([30.0, 67.0, 100.0, 450.0, 2000.0]),
                            min_size=1, max_size=6))
    n = len(lengths)
    od = [("V0", f"V{n}"), (f"V{n}", "V0")] + ([("V1", f"V{n}")] if n > 1 else [])
    net = make_chain_network(lengths, draw(st.booleans()))
    sc = generate_scenario(net, draw(st.integers(1, 12)), od,
                           departure_spacing_s=draw(st.sampled_from([0.0, 3.0, 20.0])),
                           seed=draw(st.integers(0, 99)))
    return sc, draw(st.sampled_from([150.0, 700.0])), draw(st.integers(0, 2**16))


def random_commands(world, rng):
    """step_with's actions: a random command per enroute aircraft."""
    return {aid: Action(int(rng.integers(0, 3))) for aid in enroute_ids(world)}


def record(ac):
    """ac's fields in dataclasses.astuple's order, not copied."""
    return tuple(getattr(ac, f.name) for f in dataclasses.fields(ac))


class TestPositionCacheProperty:
    """World reads positions, arrivals and LOS candidates from the
    scenario's motion plan; each must give what fresh computation gives."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(chain_cases())
    def test_positions_and_members_match_bisect_oracle(self, case):
        """Right after each spawn and after each step, under random
        commands, every spawned aircraft sits where route_position puts it
        at k sequential additions of cruise_speed_mps * dt_s, k the steps
        since its spawn, and counts for the member it gives; once the sum
        reaches the route's length, on its destination vertiport, arrived."""
        scenario, _, seed = case
        net, routes = scenario.network, scenario.routes
        config = SimConfig()
        step_m = config.cruise_speed_mps * config.dt_s
        world = World(scenario, config)
        rng = np.random.default_rng(seed)
        along = {}  # by spawned aircraft id, capped at its route's length

        def check():
            for aid, d in along.items():
                ac, route = world.aircraft[aid], routes[aid]
                if d == sum(map(net.link_length_m, route.link_ids)):
                    end = net.vertiports[route.destination]
                    assert world.position(ac) == (end.x_m, end.y_m, end.id)
                    assert ac.phase is Phase.ARRIVED
                else:
                    assert world.position(ac) == route_position(net, route, d)
                    assert ac.phase is Phase.ENROUTE

        while not world.terminal:
            world.spawn_due_aircraft()
            for aid in enroute_ids(world):
                along.setdefault(aid, 0.0)
            check()
            step_with(world, random_commands(world, rng))
            for aid, d in along.items():
                along[aid] = min(d + step_m, sum(map(net.link_length_m, routes[aid].link_ids)))
            check()

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(chain_cases())
    def test_step_changes_only_altitudes_and_arrivals(self, case):
        """Under random commands, right after each spawn at step n the
        enroute index holds the flights with spawn <= n < spawn + K, and
        after the step to n + 1 those with spawn <= n and n + 1 < spawn + K,
        where spawn is the first step at or after the departure and K the
        first count of sequential one-step additions that reaches the
        route's length, both found without the motion plan. The step leaves
        every record's fields as they were, but for the altitude (z_ft,
        b_changing) of each aircraft changing layer and the phase of each
        arrival, which reads ARRIVED."""
        scenario, _, seed = case
        net = scenario.network
        config = SimConfig()
        world = World(scenario, config)
        rng = np.random.default_rng(seed)
        span = {}  # flight id -> (spawn, spawn + K)
        for fl in scenario.flights:
            length = sum(map(net.link_length_m, scenario.routes[fl.id].link_ids))
            d, k = 0.0, 0
            while k == 0 or d < length:
                d, k = d + config.cruise_speed_mps * config.dt_s, k + 1
            spawn = 0
            while spawn * config.dt_s < fl.departure_s:
                spawn += 1
            span[fl.id] = (spawn, spawn + k)

        def expected(last_spawn, n):
            return [fl.id for fl in scenario.flights
                    if span[fl.id][0] <= last_spawn and n < span[fl.id][1]]

        while not world.terminal:
            n = world.n_steps
            world.spawn_due_aircraft()
            assert enroute_ids(world) == expected(n, n)
            if world.is_decision_tick():
                for ac in world.enroute():
                    world.apply_altitude_command(ac, Action(int(rng.integers(0, 3))))
            before = {aid: record(ac) for aid, ac in world.aircraft.items()}
            changing = {ac.id for ac in world.enroute() if ac.b_changing}
            world.step()
            assert enroute_ids(world) == expected(n, n + 1)
            for aid, ac in world.aircraft.items():
                moved = {f.name for f, old, new in zip(dataclasses.fields(ac), before[aid],
                                                      record(ac)) if old != new}
                arrived = span[aid][1] == n + 1
                assert moved <= ({"z_ft", "b_changing"} if aid in changing else set()) | (
                    {"phase"} if arrived else set())
                assert (ac.phase is Phase.ARRIVED) == (span[aid][1] <= n + 1)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(chain_cases())
    def test_planned_los_matches_brute_force(self, case):
        """detect_los, run twice, equals the all-pairs scan right after each
        spawn and after each step, under random commands, on chains whose
        links are shorter than, equal to or longer than one step."""
        scenario, d_los, seed = case
        world = World(scenario, SimConfig(d_los_m=d_los))
        rng = np.random.default_rng(seed)
        while not world.terminal:
            world.spawn_due_aircraft()
            assert world.detect_los() == world.detect_los() == scan_los(world)
            assert step_with(world, random_commands(world, rng)) == scan_los(world)


class TestMotionPlanReuse:
    """One Scenario object serves worlds of several configs in turn, each
    with the plan of its own (dt_s, cruise_speed_mps, d_los_m), and within
    a plan the neighbour pairs of its own d_comm_m."""

    def los_events(self, scenario, config):
        world = World(scenario, config)
        while not world.terminal:
            assert world.step() == scan_los(world)
        return world.los_events

    def test_each_key_field_selects_its_own_plan(self, line_network):
        # the base config's plan comes first; a key without one of the three
        # fields would hand it to the config that differs only there
        flights = generate_scenario(line_network, 12, [("A", "C"), ("C", "A")],
                                    departure_spacing_s=50.0, seed=3).flights
        shared = Scenario(line_network, flights)
        base = self.los_events(shared, SimConfig())
        for field, value in (("d_los_m", 400.0), ("cruise_speed_mps", 80.0), ("dt_s", 0.5)):
            config = SimConfig(**{field: value})
            events = self.los_events(shared, config)
            assert events == self.los_events(Scenario(line_network, flights), config)
            assert events and events != base
        assert len(shared.motion_plans) == 4

    def test_worlds_differing_only_in_d_comm_each_match_the_scan(self, line_network):
        # d_comm_m is not in the plan's key, so these worlds share one plan;
        # its neighbour pairs must still be kept per d_comm
        flights = generate_scenario(line_network, 12, [("A", "C"), ("C", "A")],
                                    departure_spacing_s=50.0, seed=3).flights
        shared = Scenario(line_network, flights)
        sizes = []
        for d_comm in (2500.0, 900.0, 6000.0, 2500.0):
            world = World(shared, SimConfig(d_comm_m=d_comm))
            size = 0
            while not world.terminal:
                world.spawn_due_aircraft()
                if world.is_decision_tick():
                    table = neighbor_lists(world, limit=len(flights))
                    assert table == {aid: scan_neighbors(world, aid) for aid in table}
                    size += sum(map(len, table.values()))
                world.step()
            sizes.append(size)
        assert len(shared.motion_plans) == 1
        assert sizes[1] < sizes[0] < sizes[2] and sizes[3] == sizes[0]


def test_tracer_step_contract(bundled_scenario, monkeypatch):
    """bench/run.py --trace 1 counts aircraft steps from exactly one
    spawn_due_aircraft, advance_kinematics and detect_los call per World.step,
    and from each arriving aircraft reading ARRIVED once its advance_kinematics
    call returns: checked over a bundled-scenario hold rollout."""
    inside = []  # the calls of the current World.step, or None outside one

    def wrap(name, after=None):
        fn = getattr(World, name)

        def wrapper(world, *args):
            before = enroute_ids(world)
            if inside[-1] is not None:
                inside[-1].append(name)
            result = fn(world, *args)
            if after:
                after(world, before)
            return result
        monkeypatch.setattr(World, name, wrapper)

    def arrivals_read_arrived(world, before):
        enroute = set(enroute_ids(world))
        assert all((world.aircraft[i].phase is Phase.ENROUTE) == (i in enroute) for i in before)
        assert all(world.aircraft[i].phase is Phase.ARRIVED for i in set(before) - enroute)

    step = World.step

    def counted_step(world):
        inside.append([])
        result = step(world)
        assert inside.pop() == ["spawn_due_aircraft", "advance_kinematics", "detect_los"]
        return result

    inside.append(None)
    wrap("spawn_due_aircraft")
    wrap("advance_kinematics", arrivals_read_arrived)
    wrap("detect_los")
    monkeypatch.setattr(World, "step", counted_step)
    episode = collect_rollout(bundled_scenario, None, SimConfig(),
                              RewardConfig.for_layers(bundled_scenario.network.layers, 0.5))
    assert inside == [None] and episode.trace


def test_neighbor_pairs_planned_at_observed_steps_only(bundled_scenario):
    """After a hold rollout, the plan keeps the neighbour pairs of exactly
    the steps the world observed, each under (d_comm, step, last step
    spawned): each decision tick, after its spawn, and the final step,
    before it; none past the last arrival. A horizon that cuts the episode
    at a step with departures keeps that step's pairs without them. A
    second episode on the scenario adds no key."""
    plan = motion_plan(Scenario(bundled_scenario.network, bundled_scenario.flights), SimConfig())
    cut = sorted(plan.departures)[10]  # the eleventh departure step
    assert 0 < cut < max(plan.arrivals) < 7200.0 / SimConfig().dt_s
    # the last arrival ends the first episode, and the horizon the second
    for last, horizon_s in [(max(plan.arrivals), 7200.0), (cut, cut * SimConfig().dt_s)]:
        scenario = Scenario(bundled_scenario.network, bundled_scenario.flights)  # a plan of its own
        config = SimConfig(max_episode_time_s=horizon_s)
        plan = motion_plan(scenario, config)
        reward_config = RewardConfig.for_layers(scenario.network.layers, 0.5)
        collect_rollout(scenario, None, config, reward_config)
        ticks = range(0, last, round(config.decision_interval_s / config.dt_s))
        keys = [(config.d_comm_m, n, n) for n in ticks] + [(config.d_comm_m, last, last - 1)]
        assert sorted(plan._pairs) == keys
        collect_rollout(scenario, None, config, reward_config)
        assert sorted(plan._pairs) == keys


def one_hot(action):
    return [float(action == a) for a in Action]


def scan_observe(world, ac_id, config, found=None):
    """observe_tick's row of ac_id, unmasked intruders only, recomputed
    from the aircraft states, as nested lists; found, if given, is
    scan_related's list for ac_id."""
    ac = world.aircraft[ac_id]
    z_min, span = world.net.layers.z_min, world.net.layers.z_max - world.net.layers.z_min
    own = [(ac.z_ft - z_min) / span, float(ac.b_changing),
           (ac.z_target_ft - z_min) / span, *one_hot(ac.last_action)]
    rows = [[(other.z_ft - ac.z_ft) / span, d / config.d_comm_m, *one_hot(other.last_action)]
            for d, _, other in (scan_related(world, ac) if found is None else found)]
    return own, rows[:N_MAX_INTRUDERS]


@st.composite
def command_cases(draw):
    """Layer sets, climb rates and routes long enough for many completed
    layer transitions."""
    base = make_line_network(link_len_m=draw(st.sampled_from([3000.0, 12000.0])))
    levels = draw(st.sampled_from([AltitudeLayerSet().levels_ft, (1000.0, 1300.0, 2200.0),
                                   (400.0, 900.0, 1400.0, 1900.0)]))
    net = Network(base.vertiports, base.links, AltitudeLayerSet(levels), base.zones)
    sc = generate_scenario(net, draw(st.integers(1, 25)), [("A", "C"), ("C", "A"), ("A", "B")],
                           departure_spacing_s=draw(st.sampled_from([0.0, 7.0, 25.0])),
                           seed=draw(st.integers(0, 99)))
    dt_s, interval_s = draw(st.sampled_from([(1.0, 10.0), (0.5, 1.0), (2.0, 10.0)]))
    config = SimConfig(dt_s=dt_s, decision_interval_s=interval_s,
                       climb_rate_fpm=draw(st.sampled_from([500.0, 700.0, 1300.0])))
    return sc, config, draw(st.integers(0, 2**16))


class TestCommandAndObservationProperty:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command_cases())
    def test_commands_layers_and_observations(self, case):
        scenario, config, seed = case
        layers = scenario.network.layers
        reward_config = RewardConfig.for_layers(layers, 0.5, d_comm_m=config.d_comm_m)
        # the range gate is planar, so d_o may exceed 1 by the vertical offset
        max_d_o = math.hypot(config.d_comm_m, (layers.z_max - layers.z_min) * FT_TO_M) \
            / config.d_comm_m
        world = World(scenario, config)
        rng = np.random.default_rng(seed)
        while not world.terminal:
            world.spawn_due_aircraft()
            actions = {}
            if world.is_decision_tick():
                # one observation of the tick; row b is world.enroute()[b]'s
                own, intr, intr_mask = observe_tick(world, reward_config)
                acs = world.enroute()
                assert own.shape[0] == intr.shape[0] == intr_mask.shape[0] == len(acs)
                for b, ac in enumerate(acs):
                    found = intr[b, intr_mask[b]]
                    assert found.shape[0] <= N_MAX_INTRUDERS
                    d_o = found[:, 1]
                    assert (np.diff(d_o) >= 0).all() and (d_o >= 0).all()
                    assert (d_o <= max_d_o).all()
                    assert (own[b].tolist(), found.tolist()) == scan_observe(world, ac.id,
                                                                             reward_config)
                actions = {aid: Action(int(rng.integers(0, 3))) for aid in enroute_ids(world)}
            masks = {aid: action_mask(world.aircraft[aid], layers) for aid in actions}
            step_with(world, actions)
            for aid, requested in actions.items():
                executed = world.aircraft[aid].last_action
                assert masks[aid][executed]
                assert executed == (requested if masks[aid][requested] else Action.HOLD)
            for ac in scan_enroute(world):
                assert layers.z_min <= ac.z_ft <= layers.z_max
                assert ac.z_target_ft in layers.levels_ft
                if not ac.b_changing:
                    assert ac.z_ft in layers.levels_ft

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="neighbors gates on planar range, so an intruder at the "
                       "range edge on another layer has d_o > 1")
    def test_intruder_distance_within_comm_range(self):
        world, a, b = TestNeighbors().make_pair(2490.0)
        b.z_ft = a.z_ft + 2000.0  # 3-D distance 2563 m
        _, intr, _ = observe_tick(world, RewardConfig())  # a's row is 0
        assert intr[0, 0, 1] <= 1.0
