import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uamnoise.errors import SimulationError, ValidationError
from uamnoise.mdp import (INTRUDER_DIM, N_MAX_INTRUDERS, OWN_DIM, RewardConfig, observe_tick,
                          reward_noise, reward_total, separation_rewards, tick_rewards)
from uamnoise.network import generate_scenario
from uamnoise.sim import FT_TO_M, Action, Phase, SimConfig, World, action_mask

from conftest import enroute_ids, make_line_network, step_with

CFG = RewardConfig(rho=0.5)


def intruders(*dz_ft, d_o=0.1):
    """One-row intruder batch and its mask, one holding intruder per
    altitude difference in ft."""
    intr = np.zeros((1, len(dz_ft), INTRUDER_DIM))
    for row, dz in zip(intr[0], dz_ft):
        row[0] = dz / 2000.0
        row[1] = d_o
        row[2 + int(Action.HOLD)] = 1.0
    return intr, np.ones((1, len(dz_ft)), dtype=bool)


class TestObserve:
    def make_world(self):
        net = make_line_network()
        sc = generate_scenario(net, 2, [("A", "C"), ("C", "A")],
                               departure_spacing_s=0.0, seed=3)
        world = World(sc, SimConfig())
        world.spawn_due_aircraft()
        return world

    def test_lone_aircraft_no_intruders(self, solo_scenario):
        world = World(solo_scenario, SimConfig())
        world.spawn_due_aircraft()
        own, intr, intr_mask = observe_tick(world, CFG)
        # the empty intruder set is padded to one masked row
        assert own.shape == (1, OWN_DIM) and intr.shape == (1, 1, INTRUDER_DIM)
        assert intr_mask.tolist() == [[False]] and not intr.any()

    def test_normalization_endpoints(self, solo_scenario):
        world = World(solo_scenario, SimConfig())
        world.spawn_due_aircraft()
        own, _, _ = observe_tick(world, CFG)
        assert own[0, 0] == 0.0  # spawned at z_min
        world.aircraft["AC001"].z_ft = 3000.0
        world.aircraft["AC001"].z_target_ft = 3000.0
        assert observe_tick(world, CFG)[0][0, 0] == 1.0

    def test_intruder_fields(self):
        world = self.make_world()
        a, b = world.aircraft["AC001"], world.aircraft["AC002"]
        b.x_m, b.y_m = a.x_m, a.y_m
        b.z_ft = a.z_ft + 500.0
        planar = 0.0
        d3 = math.hypot(planar, 500.0 * FT_TO_M)
        _, intr, intr_mask = observe_tick(world, CFG)  # rows AC001, AC002
        assert intr.shape == (2, 1, INTRUDER_DIM) and intr_mask.tolist() == [[True], [True]]
        assert intr[0, 0, 0] == pytest.approx(0.25)
        assert intr[0, 0, 1] == pytest.approx(d3 / 2500.0)

    def test_intruder_at_1km_normalized(self):
        world = self.make_world()
        a, b = world.aircraft["AC001"], world.aircraft["AC002"]
        # place intruder so the full 3-D separation is 1000 m
        dz_m = 500.0 * FT_TO_M
        b.z_ft = a.z_ft + 500.0
        b.x_m = a.x_m + math.sqrt(1000.0 ** 2 - dz_m ** 2)
        b.y_m = a.y_m
        _, intr, _ = observe_tick(world, CFG)  # AC001's row is 0
        assert intr[0, 0, 0] == pytest.approx(0.25)
        assert intr[0, 0, 1] == pytest.approx(0.4)

    def test_intruders_sorted_and_capped(self):
        sc = generate_scenario(make_line_network(), 14, [("A", "C"), ("C", "A")],
                               departure_spacing_s=0.0, seed=3)
        world = World(sc, SimConfig())
        world.spawn_due_aircraft()
        # 13 intruders on a line, 150 m apart in reverse flight order
        for k, ac_id in enumerate(enroute_ids(world)):
            world.aircraft[ac_id].x_m = 150.0 * (14 - k)
        _, intr, intr_mask = observe_tick(world, CFG)
        assert enroute_ids(world)[13] == "AC014"
        assert intr.shape == (14, N_MAX_INTRUDERS, INTRUDER_DIM) and intr_mask[13].all()
        assert intr[13, :, 1].tolist() == [150.0 * k / 2500.0 for k in range(1, 11)]

    def test_pending_and_arrived_aircraft_are_not_observed(self, solo_scenario):
        world = World(solo_scenario, SimConfig())
        shapes = [(0, OWN_DIM), (0, 1, INTRUDER_DIM), (0, 1)]
        assert [a.shape for a in observe_tick(world, CFG)] == shapes  # pending
        while not world.terminal:
            world.spawn_due_aircraft()
            world.step()
        assert world.aircraft["AC001"].phase is Phase.ARRIVED
        assert [a.shape for a in observe_tick(world, CFG)] == shapes


@st.composite
def tick_cases(draw):
    """A world state reached by a hold or a randomly sampled rollout of a
    line scenario, and a number of padding rows."""
    scenario = generate_scenario(make_line_network(), draw(st.integers(3, 12)),
                                 [("A", "C"), ("C", "A")],
                                 departure_spacing_s=draw(st.floats(0.0, 40.0)),
                                 seed=draw(st.integers(0, 99)))
    world = World(scenario, SimConfig())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    sampled = draw(st.booleans())
    for _ in range(draw(st.integers(0, 340))):  # before the first arrival, at 358 s
        world.spawn_due_aircraft()
        actions = {}
        if world.is_decision_tick():
            actions = {aid: Action(int(rng.integers(0, 3))) if sampled else Action.HOLD
                       for aid in enroute_ids(world)}
        step_with(world, actions)
    world.spawn_due_aircraft()
    return world, draw(st.integers(1, 4))


class TestTickObservationProperty:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(tick_cases())
    def test_rows_are_independent_of_the_batch(self, case):
        world, extra_k = case
        _, intr, intr_mask = observe_tick(world, CFG)
        n = len(world.enroute())
        assert intr.shape[0] == intr_mask.shape[0] == n
        # padding to a larger K with masked rows leaves the separation term as it is
        k = intr.shape[1]
        padded = np.zeros((n, k + extra_k, INTRUDER_DIM))
        padded[:, :k] = intr
        padded_mask = np.zeros((n, k + extra_k), dtype=bool)
        padded_mask[:, :k] = intr_mask
        assert separation_rewards(padded, padded_mask, CFG).tobytes() == \
            separation_rewards(intr, intr_mask, CFG).tobytes()


class TestRewardNoise:
    def test_zero_at_top_layer(self):
        assert reward_noise(3000.0, CFG) == 0.0

    def test_minus_one_at_bottom_layer(self):
        assert reward_noise(1000.0, CFG) == -1.0

    def test_mid_layer_value(self):
        assert reward_noise(2000.0, CFG) == pytest.approx(-0.390, abs=0.005)

    def test_monotone_over_layers(self):
        vals = [reward_noise(z, CFG) for z in (1000, 1500, 2000, 2500, 3000)]
        assert vals == sorted(vals)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValidationError):
            reward_noise(500.0, CFG)


class TestRewardSeparation:
    def test_no_intruders(self):
        assert separation_rewards(*intruders(), CFG)[0] == 0.0

    def test_four_violating_intruders(self):
        assert separation_rewards(*intruders(*[0.0] * 4), CFG)[0] == pytest.approx(-0.4)

    def test_twelve_intruders_clamped(self):
        assert separation_rewards(*intruders(*[0.0] * 12), CFG)[0] == -1.0

    def test_adjacent_layer_knife_edge(self):
        # 500 ft = 152.4 m > 150 m: adjacent layers never trigger the penalty
        assert separation_rewards(*intruders(500.0, -500.0), CFG)[0] == 0.0
        # just inside 150 m vertically does trigger
        dz_ft = 149.9 / FT_TO_M
        assert separation_rewards(*intruders(dz_ft), CFG)[0] == pytest.approx(-0.1)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        intr, intr_mask = intruders(*rng.uniform(-2000, 2000, size=8))
        base = separation_rewards(intr, intr_mask, CFG)[0]
        for _ in range(10):
            rng.shuffle(intr[0])
            assert separation_rewards(intr, intr_mask, CFG)[0] == base


@pytest.mark.parametrize("field, value", [
    ("d_los_m", -5.0), ("d_los_m", 0.0), ("d_comm_m", math.nan), ("d_comm_m", math.inf),
])
def test_reward_config_rejects_non_finite_or_non_positive_distance(field, value):
    with pytest.raises(ValidationError, match=f"RewardConfig.{field} must be finite and positive"):
        RewardConfig(**{field: value})


class TestRewardTotal:
    def test_endpoints(self):
        assert reward_total(-0.3, -0.7, 0.0) == -0.7
        assert reward_total(-0.3, -0.7, 1.0) == -0.3

    def test_blend(self):
        assert reward_total(-0.390, -0.4, 0.5) == pytest.approx(-0.395)

    def test_affine_in_rho(self):
        rn, rs = -0.37, -0.81
        mid = reward_total(rn, rs, 0.5)
        assert mid == (reward_total(rn, rs, 0.0) + reward_total(rn, rs, 1.0)) / 2.0

    def test_bounds(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            rn, rs, rho = -rng.random(), -rng.random(), rng.random()
            assert -1.0 <= reward_total(rn, rs, rho) <= 0.0


class TestTickRewards:
    def test_every_aircraft_not_arrived_must_be_observed(self):
        # six aircraft at one point of one layer: each has five close intruders
        scenario = generate_scenario(make_line_network(), 6, [("A", "C")],
                                     departure_spacing_s=0.0, seed=0)
        world = World(scenario, SimConfig())
        world.spawn_due_aircraft()
        acs = world.enroute()
        r_noise = reward_noise(acs[0].z_ft, CFG)
        expected = reward_total(r_noise, -5 * CFG.lam, CFG.rho)
        _, intr, intr_mask = observe_tick(world, CFG)
        rewards = tick_rewards(acs, CFG, (acs, intr, intr_mask))
        assert rewards.tolist() == [expected] * 6
        # an observation of one aircraft does not score the other five
        with pytest.raises(SimulationError, match=f"'{acs[1].id}' has not arrived"):
            tick_rewards(acs, CFG, (acs[:1], intr[:1], intr_mask[:1]))


class TestActionMask:
    def make_state(self, z, changing=False, z_target=None):
        from uamnoise.sim import AircraftState
        return AircraftState(id="X", flight_index=0, geometry=(), z_ft=z,
                             z_target_ft=z_target if z_target else z, b_changing=changing)

    def test_mid_layer_all_allowed(self, line_network):
        st = self.make_state(2000.0)
        assert action_mask(st, line_network.layers) == (True, True, True)

    def test_locked_only_hold(self, line_network):
        st = self.make_state(2100.0, changing=True, z_target=2500.0)
        assert action_mask(st, line_network.layers) == (True, False, False)

    def test_top_boundary(self, line_network):
        st = self.make_state(3000.0)
        assert action_mask(st, line_network.layers) == (True, True, False)

    def test_bottom_boundary(self, line_network):
        st = self.make_state(1000.0)
        assert action_mask(st, line_network.layers) == (True, False, True)


class TestEncode:
    def test_shapes_and_one_hot(self):
        world = TestObserve().make_world()
        a, b = world.aircraft["AC001"], world.aircraft["AC002"]
        a.z_ft, a.z_target_ft, a.b_changing, a.last_action = 2000.0, 2500.0, True, Action.CLIMB
        b.x_m, b.y_m, b.z_ft, b.last_action = a.x_m, a.y_m, 2500.0, Action.DESCEND
        own, intr, intr_mask = observe_tick(world, CFG)  # rows AC001, AC002
        assert own.shape == (2, 6) and intr.shape == (2, 1, 5) and intr_mask.all()
        assert own[0].tolist() == [0.5, 1.0, 0.75, 0.0, 0.0, 1.0]
        assert intr[0, 0].tolist() == [0.25, 500.0 * FT_TO_M / 2500.0, 0.0, 1.0, 0.0]
