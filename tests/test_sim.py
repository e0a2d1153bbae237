import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from uamnoise.errors import SimulationError, ValidationError
from uamnoise.mdp import N_MAX_INTRUDERS, RewardConfig, observe
from uamnoise.network import (AltitudeLayerSet, Flight, Network, Scenario, build_route,
                              generate_scenario, routes_related)
from uamnoise.sim import (FT_TO_M, Action, AircraftState, LosEvent, Phase, SimConfig, World,
                          action_mask)

from conftest import make_corridor_network, make_line_network


def hold_all(world):
    world.spawn_due_aircraft()
    return {aid: Action.HOLD for aid in world.enroute_ids()}


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
        assert (ac.x_m, ac.y_m) == (0.0, 0.0)
        assert ac.z_ft == 1000.0 and ac.z_target_ft == 1000.0 and not ac.b_changing

    def test_future_departure_stays_pending(self, line_network):
        sc = generate_scenario(line_network, 2, [("A", "C")], departure_spacing_s=100.0, seed=0)
        world = World(sc, SimConfig())
        for _ in range(50):
            world.step(hold_all(world))
        pending = [a for a in world.aircraft.values() if a.phase is Phase.PENDING]
        assert len(pending) == 1

    def test_second_spawn_on_schedule(self, line_network):
        sc = generate_scenario(line_network, 2, [("A", "C")], departure_spacing_s=60.0, seed=0)
        world = World(sc, SimConfig())
        while world.t < 60.0:
            world.step(hold_all(world))
        world.spawn_due_aircraft()
        assert len(world.enroute_ids()) == 2


class TestClock:
    @pytest.mark.parametrize("dt_s, interval_s, steps, ticks", [
        (1.0, 10.0, 7200, 720), (0.1, 1.0, 72000, 7200),
        (0.2, 1.0, 36000, 7200), (0.3, 0.9, 24000, 8000)])
    def test_ticks_steps_and_horizon(self, line_network, dt_s, interval_s, steps, ticks):
        # a flight departing after the horizon keeps the episode running to it
        sc = Scenario(line_network, (Flight("AC001", "A", "C", 1e6),),
                      {"AC001": build_route(line_network, "A", "C")})
        config = SimConfig(dt_s=dt_s, decision_interval_s=interval_s)
        world = World(sc, config)
        n_steps = n_ticks = 0
        while not world.terminal:
            n_ticks += world.is_decision_tick()
            world.step({})
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
        world.advance_kinematics(1.0)
        assert ac.z_ft == pytest.approx(2400.0 + 500.0 / 60.0, abs=1e-9)

    def test_snap_to_target_without_overshoot(self):
        world = make_world(n=1, od=[("A", "C")])
        world.spawn_due_aircraft()
        ac = world.aircraft["AC001"]
        ac.z_ft, ac.z_target_ft, ac.b_changing = 2495.0, 2500.0, True
        world.advance_kinematics(1.0)
        assert ac.z_ft == 2500.0
        assert not ac.b_changing

    def test_arrival_near_destination(self):
        net = make_corridor_network(length_m=100.0)
        sc = generate_scenario(net, 1, [("A", "B")], seed=0)
        world = World(sc, SimConfig())
        world.spawn_due_aircraft()
        ac = world.aircraft["AC001"]
        ac.dist_along_m = 50.0
        world.advance_kinematics(1.0)  # 67 m > 50 m remaining
        assert ac.phase is Phase.ARRIVED
        assert (ac.x_m, ac.y_m) == (100.0, 0.0)

    def test_link_handoff_positions_on_second_link(self, line_scenario):
        world = World(line_scenario, SimConfig())
        world.spawn_due_aircraft()
        ac = world.aircraft["AC001"]
        ac.dist_along_m = 12000.0 + 500.0
        world.advance_kinematics(1.0)
        # 12567 m along the route: 567 m past B, on the second link
        assert abs(ac.x_m - 12000.0) == pytest.approx(567.0)
        assert ac.y_m == 0.0


class TestNeighbors:
    def make_pair(self, planar_sep):
        world = make_world(n=2, od=[("A", "C"), ("C", "A")], spacing=0.0)
        world.spawn_due_aircraft()
        a, b = world.aircraft["AC001"], world.aircraft["AC002"]
        a.x_m, a.y_m = 0.0, 0.0
        b.x_m, b.y_m = planar_sep, 0.0
        return world, a, b

    def test_in_range_sees_each_other(self):
        world, a, b = self.make_pair(2400.0)
        assert world.neighbors(a.id) == [(2400.0, b)]
        assert world.neighbors(b.id) == [(2400.0, a)]

    def test_out_of_range_empty(self):
        world, a, b = self.make_pair(2600.0)
        assert world.neighbors(a.id) == []
        assert world.neighbors(b.id) == []

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
        for aid in world.enroute_ids():
            assert world.neighbors(aid) == []

    def test_symmetry_over_episode(self, line_scenario):
        world = World(line_scenario, SimConfig())
        while not world.terminal and world.t < 400:
            world.spawn_due_aircraft()
            for aid in world.enroute_ids():
                for d, other in world.neighbors(aid):
                    assert (d, world.aircraft[aid]) in world.neighbors(other.id)
            world.step(hold_all(world))


class TestDetectLos:
    def make_pair(self, dz_ft, planar_m=0.0):
        world, a, b = TestNeighbors().make_pair(planar_m)
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
            world.step(hold_all(world))
        assert len(world.los_events) == 1
        assert world.los_events[0].duration_s > 100.0


class TestSweepCutoffs:
    """The x-order sweep keeps every pair with |dx| <= its reach: a pair at
    |dx| == d_los is measured and rejected (LOS needs d < d_los), one at
    |dx| == d_comm is in range (d <= d_comm); equal x exercise the sort's ties."""

    def place(self, xs, **cfg):
        world = make_world(n=len(xs), od=[("A", "C"), ("C", "A")], spacing=0.0, **cfg)
        world.spawn_due_aircraft()
        for aid, x in zip(world.enroute_ids(), xs):
            world.aircraft[aid].x_m, world.aircraft[aid].y_m = x, 0.0
        return world

    @pytest.mark.parametrize("d_los", [150.0, 400.0])
    def test_los_at_exactly_d_los_is_not_los(self, d_los):
        world = self.place([1000.0, 1000.0 + d_los, 1000.0], d_los_m=d_los)
        assert world.detect_los() == [("AC001", "AC003", 0.0)]

    @pytest.mark.parametrize("d_los", [150.0, 400.0])
    def test_los_just_below_d_los(self, d_los):
        x = math.nextafter(1000.0 + d_los, 0.0)
        world = self.place([1000.0, x, 1000.0], d_los_m=d_los)
        assert world.detect_los() == [("AC001", "AC002", x - 1000.0), ("AC001", "AC003", 0.0),
                                      ("AC002", "AC003", x - 1000.0)]

    @pytest.mark.parametrize("d_comm", [2500.0, 900.0])
    def test_neighbor_at_exactly_d_comm_is_returned(self, d_comm):
        world = self.place([5000.0, 5000.0 + d_comm, 5000.0 + d_comm], d_comm_m=d_comm)
        ids = [[other.id for _, other in world.neighbors(aid)] for aid in world.enroute_ids()]
        assert ids == [["AC002", "AC003"], ["AC003", "AC001"], ["AC002", "AC001"]]

    @pytest.mark.parametrize("d_comm", [2500.0, 900.0])
    def test_neighbor_just_beyond_d_comm_is_not(self, d_comm):
        x = math.nextafter(5000.0 + d_comm, math.inf)
        world = self.place([5000.0, x, x], d_comm_m=d_comm)
        ids = [[other.id for _, other in world.neighbors(aid)] for aid in world.enroute_ids()]
        assert ids == [[], ["AC003"], ["AC002"]]


class TestOnePairPass:
    def test_each_pair_measured_once_per_world_state(self, monkeypatch):
        world = make_world(n=14, spacing=0.0)
        world.spawn_due_aircraft()
        for k, aid in enumerate(world.enroute_ids()):
            world.aircraft[aid].x_m = 150.0 * k
        calls = []
        measure = World.distance_3d_m
        monkeypatch.setattr(World, "distance_3d_m",
                            lambda self, a, b, *planar: calls.append((a, b, *planar))
                            or measure(self, a, b, *planar))
        found = sum(len(world.neighbors(aid)) for aid in world.enroute_ids())
        assert found == 14 * 13  # all related (A-C and C-A share vertiports), all in range
        assert len(calls) == found // 2
        assert len({frozenset((a.id, b.id)) for a, b, _ in calls}) == found // 2
        # each measurement reuses the planar distance of the d_comm gate
        assert all(planar == math.hypot(a.x_m - b.x_m, a.y_m - b.y_m)
                   for a, b, planar in calls)
        calls.clear()
        assert sum(len(world.neighbors(aid)) for aid in world.enroute_ids()) == found
        assert calls == []

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6))
    @example([1e308, -1e308, 5e-324, -1e308, 1e308, -5e-324])
    def test_distance_is_bitwise_symmetric(self, coords):
        world = make_world()
        world.spawn_due_aircraft()
        a, b = (world.aircraft[aid] for aid in world.enroute_ids())
        (a.x_m, a.y_m, a.z_ft), (b.x_m, b.y_m, b.z_ft) = coords[:3], coords[3:]
        d_ab, d_ba = world.distance_3d_m(a, b), world.distance_3d_m(b, a)
        assert struct.pack("<d", d_ab) == struct.pack("<d", d_ba)


class TestStep:
    def test_empty_world_terminal(self, line_network):
        sc = generate_scenario(line_network, 1, [("A", "C")], seed=0)
        sc = type(sc)(sc.network, (), {})
        world = World(sc, SimConfig())
        assert world.terminal

    def test_single_aircraft_hold_arrives_without_los(self, solo_scenario):
        world = World(solo_scenario, SimConfig())
        while not world.terminal:
            world.step(hold_all(world))
        assert world.aircraft["AC001"].phase is Phase.ARRIVED
        assert world.los_events == []

    def test_missing_action_is_contract_error(self, solo_scenario):
        world = World(solo_scenario, SimConfig())
        world.spawn_due_aircraft()
        with pytest.raises(SimulationError, match="AC001"):
            world.step({})

    def test_deterministic_replay(self, line_scenario):
        def run():
            world = World(line_scenario, SimConfig())
            log = []
            while not world.terminal:
                world.spawn_due_aircraft()
                actions = {}
                for i, aid in enumerate(world.enroute_ids()):
                    actions[aid] = Action.CLIMB if (int(world.t) // 10 + i) % 3 == 0 \
                        else Action.HOLD
                world.step(actions)
                for ac in world.aircraft.values():
                    log.append((world.t, ac.id, ac.x_m, ac.y_m, ac.z_ft, ac.b_changing))
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
            actions = {aid: Action(int(rng.integers(0, 3))) for aid in world.enroute_ids()}
            world.step(actions)
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


def scan_enroute(world):
    return [a for a in world.aircraft.values() if a.phase is Phase.ENROUTE]


def scan_neighbors(world, ac_id):
    own = world.aircraft[ac_id]
    found = []
    for other in scan_enroute(world):
        planar = math.hypot(own.x_m - other.x_m, own.y_m - other.y_m)
        if (other is not own and planar <= world.config.d_comm_m
                and routes_related(world.net, own.route, other.route)):
            found.append((world.distance_3d_m(own, other), other.id))
    return sorted(found)


def scan_los(world):
    enroute = scan_enroute(world)
    out = []
    for i, a in enumerate(enroute):
        for b in enroute[i + 1:]:
            d = world.distance_3d_m(a, b)
            if d < world.config.d_los_m:
                out.append((*sorted((a.id, b.id)), d))
    return out


@st.composite
def index_cases(draw):
    n = draw(st.integers(1, 40))
    net = make_line_network(link_len_m=1500.0)
    sc = generate_scenario(net, n, [("A", "C"), ("C", "A"), ("A", "B")],
                           departure_spacing_s=draw(st.sampled_from([0.0, 7.0, 25.0])),
                           seed=draw(st.integers(0, 99)))
    # scenario-flight order need not follow departure order
    flights = tuple(sc.flights[i] for i in draw(st.permutations(range(n))))
    dt_s, interval_s = draw(st.sampled_from([(1.0, 10.0), (0.5, 1.0), (2.0, 10.0),
                                             (0.3, 0.9)]))
    config = SimConfig(dt_s=dt_s, decision_interval_s=interval_s,
                       max_episode_time_s=draw(st.sampled_from([60.0, 250.0, 7200.0])),
                       d_los_m=draw(st.sampled_from([150.0, 40.0, 700.0, 3000.0])),
                       d_comm_m=draw(st.sampled_from([2500.0, 300.0, 1200.0, 9000.0])))
    return Scenario(net, flights, sc.routes), config, draw(st.integers(0, 2**16))


class TestEnrouteIndexProperty:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(index_cases())
    def test_index_matches_full_scan(self, case):
        scenario, config, seed = case
        world = World(scenario, config)
        rng = np.random.default_rng(seed)
        horizon_steps = math.ceil(config.max_episode_time_s / config.dt_s - 1e-9)

        def check():
            enroute = [a.id for a in scan_enroute(world)]
            assert world.enroute_ids() == enroute
            all_arrived = all(a.phase is Phase.ARRIVED for a in world.aircraft.values())
            assert world.terminal == (world.n_steps >= horizon_steps or all_arrived)
            for aid in enroute:
                assert [(d, n.id) for d, n in world.neighbors(aid)] == \
                    scan_neighbors(world, aid)
            assert world.detect_los() == scan_los(world)

        departures = {fl.id: fl.departure_s for fl in scenario.flights}
        check()
        while not world.terminal:
            world.spawn_due_aircraft()
            assert all((a.phase is Phase.PENDING) == (departures[a.id] > world.t)
                       for a in world.aircraft.values())
            check()
            actions = {aid: Action(int(rng.integers(0, 3))) for aid in world.enroute_ids()}
            world.step(actions if world.is_decision_tick() else {})
            check()


@st.composite
def los_cases(draw):
    """Layer sets, time steps, separation minima and dense departures."""
    base = make_line_network(link_len_m=draw(st.sampled_from([1500.0, 4000.0])))
    levels = draw(st.sampled_from([AltitudeLayerSet().levels_ft, (1000.0, 1100.0, 1200.0),
                                   (400.0, 900.0, 1400.0, 1900.0)]))
    net = Network(base.vertiports, base.links, AltitudeLayerSet(levels), base.zones)
    sc = generate_scenario(net, draw(st.integers(2, 30)),
                           [("A", "C"), ("C", "A"), ("A", "B"), ("B", "C")],
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
            actions = {aid: Action(int(rng.integers(0, 3))) for aid in world.enroute_ids()}
            world.step(actions if world.is_decision_tick() else {})
            now = {}
            enroute = scan_enroute(world)
            for i, a in enumerate(enroute):
                for b in enroute[i + 1:]:
                    d = world.distance_3d_m(a, b)
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


def one_hot(action):
    return [float(action == a) for a in Action]


def scan_observe(world, ac_id, config):
    """observe recomputed from the aircraft states, as nested lists."""
    ac = world.aircraft[ac_id]
    z_min, span = world.net.layers.z_min, world.net.layers.z_max - world.net.layers.z_min
    own = [(ac.z_ft - z_min) / span, float(ac.b_changing),
           (ac.z_target_ft - z_min) / span, *one_hot(ac.last_action)]
    rows = []
    for other in scan_enroute(world):
        planar = math.hypot(ac.x_m - other.x_m, ac.y_m - other.y_m)
        if (other is ac or planar > world.config.d_comm_m
                or not routes_related(world.net, ac.route, other.route)):
            continue
        d = math.hypot(planar, (ac.z_ft - other.z_ft) * FT_TO_M)
        rows.append((d, other.id, [(other.z_ft - ac.z_ft) / span, d / config.d_comm_m,
                                   *one_hot(other.last_action)]))
    rows.sort(key=lambda rec: rec[:2])
    return own, [rec[2] for rec in rows[:N_MAX_INTRUDERS]]


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
                for aid in world.enroute_ids():
                    own, intr = observe(world, aid, reward_config)
                    assert intr.shape[0] <= N_MAX_INTRUDERS
                    d_o = intr[:, 1]
                    assert (np.diff(d_o) >= 0).all() and (d_o >= 0).all()
                    assert (d_o <= max_d_o).all()
                    assert (own.tolist(), intr.tolist()) == scan_observe(world, aid,
                                                                         reward_config)
                actions = {aid: Action(int(rng.integers(0, 3))) for aid in world.enroute_ids()}
            masks = {aid: action_mask(world.aircraft[aid], layers) for aid in actions}
            world.step(actions)
            for aid, requested in actions.items():
                executed = world.aircraft[aid].last_action
                assert masks[aid][executed]
                assert executed == (requested if masks[aid][requested] else Action.HOLD)
            for ac in scan_enroute(world):
                assert layers.z_min <= ac.z_ft <= layers.z_max
                assert ac.z_target_ft in layers.levels_ft
                if not ac.b_changing:
                    assert ac.z_ft in layers.levels_ft

    @pytest.mark.xfail(strict=True, reason="neighbors gates on planar range, so an "
                       "intruder at the range edge on another layer has d_o > 1")
    def test_intruder_distance_within_comm_range(self):
        world, a, b = TestNeighbors().make_pair(2490.0)
        b.z_ft = a.z_ft + 2000.0  # 3-D distance 2563 m
        _, intr = observe(world, a.id, RewardConfig())
        assert intr[0, 1] <= 1.0
