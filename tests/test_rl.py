import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import uamnoise
from uamnoise import mdp, nnet, rl
from uamnoise.mdp import (RewardConfig, observe_tick, reward_noise, reward_total,
                          separation_rewards)
from uamnoise.network import AltitudeLayerSet, generate_scenario, load_scenario
from uamnoise.noise import Condition
from uamnoise.rl import (RolloutResult, TraceRow, TrainConfig, collect_rollout,
                         compute_advantages, load_checkpoint, ppo_update,
                         save_checkpoint, train)
from uamnoise.sim import Action, Phase, SimConfig, World, action_mask

from conftest import make_corridor_network, make_line_network


def small_train_config(iters, hidden=8, seed=0):
    return TrainConfig(iterations=iters, hidden=hidden, seed=seed,
                       learning_rate=1e-3, minibatch_size=64)


def fake_batch(rewards, values, lengths=None):
    """A batch of the given rewards and values; one agent's slice per entry
    of lengths (default: one agent over every row)."""
    n = len(rewards)
    lengths = lengths or [n]
    ends = np.cumsum(lengths).tolist()
    z = np.zeros
    return RolloutResult(
        own=z((n, 6)), intr=z((n, 1, 5)), intr_mask=z((n, 1), dtype=bool),
        act_mask=np.ones((n, 3), dtype=bool), actions=z(n, dtype=int),
        old_logp=z(n), rewards=np.asarray(rewards, dtype=float),
        values=np.asarray(values, dtype=float),
        agent_slices={f"A{k}": slice(end - m, end)
                      for k, (m, end) in enumerate(zip(lengths, ends))},
        trace=[], los_count=0, mean_return=0.0)


class TestCollectRollout:
    def test_single_aircraft_transition_count(self, solo_scenario):
        params = nnet.init_params(8, 0)
        cfg = SimConfig()
        rc = RewardConfig.for_layers(solo_scenario.network.layers, 1.0)
        batch = collect_rollout(solo_scenario, params, cfg, rc,
                                rng=np.random.default_rng(0))
        # 30 km at 67 m/s, one decision every 10 s
        assert 0 < len(batch.actions) <= 46
        assert batch.agent_slices == {solo_scenario.flights[0].id: slice(0, len(batch.actions))}

    def test_non_interacting_aircraft_have_empty_intruder_sets(self):
        net = make_corridor_network(length_m=5000.0)
        # same direction, spaced beyond d_comm the whole flight
        sc = generate_scenario(net, 2, [("A", "B")], departure_spacing_s=60.0, seed=0)
        rc = RewardConfig.for_layers(net.layers, 0.5)
        batch = collect_rollout(sc, nnet.init_params(8, 1), SimConfig(), rc,
                                rng=np.random.default_rng(1))
        assert not batch.intr_mask.any()

    def test_seeded_rollout_identical(self, line_scenario):
        params = nnet.init_params(8, 2)
        rc = RewardConfig.for_layers(line_scenario.network.layers, 0.5)

        def run():
            return collect_rollout(line_scenario, params, SimConfig(), rc,
                                   rng=np.random.default_rng(5))

        b1, b2 = run(), run()
        assert np.array_equal(b1.actions, b2.actions)
        assert np.array_equal(b1.rewards, b2.rewards)
        assert np.array_equal(b1.old_logp, b2.old_logp)

    def test_masked_actions_never_executed(self, line_scenario):
        # over a seeded stochastic episode the trace contains no
        # climb-at-top, descend-at-bottom, or non-hold-while-locked entries
        rc = RewardConfig.for_layers(line_scenario.network.layers, 0.5)
        batch = collect_rollout(line_scenario, nnet.init_params(8, 3), SimConfig(),
                                rc, rng=np.random.default_rng(7))
        layers = line_scenario.network.layers
        idx = np.arange(len(batch.actions))
        assert batch.act_mask[idx, batch.actions].all()
        for i in idx:
            z, b_chg, zt = batch.own[i, 0], batch.own[i, 1], batch.own[i, 2]
            if b_chg == 1.0:
                assert batch.actions[i] == 0
            if zt == 1.0:
                assert batch.actions[i] != 2
            if zt == 0.0:
                assert batch.actions[i] != 1


def reference_rollout(scenario, params, sim_config, reward_config, rng=None):
    """collect_rollout one agent at a time: an observe_tick of [id], a
    policy_batch of that one row and a sample_actions of its probabilities
    per agent, and a fresh one-agent observe_tick inside every reward.
    Returns (per-agent transition lists, trace, LOS event count)."""
    world = World(scenario, sim_config)
    layers = scenario.network.layers
    records = {fl.id: [] for fl in scenario.flights}
    pending = {}
    trace = []

    def agent_reward(ac):
        """Blended reward of one aircraft, scored on its own; arrived
        aircraft see an empty intruder set."""
        r_sep = (float(separation_rewards(*observe_tick(world, [ac.id], reward_config)[1:],
                                          reward_config)[0])
                 if ac.phase is Phase.ENROUTE else 0.0)
        return reward_total(reward_noise(ac.z_ft, reward_config), r_sep, reward_config.rho)

    def finalize(ac_id, done):
        if ac_id in pending:
            rec = records[ac_id][pending.pop(ac_id)]
            rec["reward"] = agent_reward(world.aircraft[ac_id])
            rec["done"] = done

    while not world.terminal:
        joint = {}
        if world.is_decision_tick():
            world.spawn_due_aircraft()
            enroute = world.enroute_ids()
            for ac_id in records:
                if ac_id not in enroute:
                    finalize(ac_id, done=True)
            obs_list = [observe_tick(world, [i], reward_config) for i in enroute]
            for ac_id in enroute:
                finalize(ac_id, done=False)
            for ac_id, (own, intr, intr_mask) in zip(enroute, obs_list):
                ac = world.aircraft[ac_id]
                mask = action_mask(ac, layers)
                if params is None:
                    probs, value = np.array([[1.0, 0.0, 0.0]]), np.zeros(1)
                else:
                    probs, value = nnet.policy_batch(params, own, intr, intr_mask,
                                                     np.array([mask]))
                action, logp = nnet.sample_actions(probs, rng)
                action = int(action[0])
                joint[ac_id] = Action(action)
                records[ac_id].append({"own": own[0], "intr": intr[0, intr_mask[0]],
                                       "act_mask": mask, "action": action,
                                       "logp": float(logp[0]), "value": float(value[0])})
                pending[ac_id] = len(records[ac_id]) - 1
                trace.append(TraceRow(world.t, ac_id, ac.x_m, ac.y_m, ac.z_ft,
                                      Action(action), ac.b_changing))
        world.step(joint)
    for ac_id in list(pending):
        finalize(ac_id, done=True)
    return {k: v for k, v in records.items() if v}, trace, len(world.los_events)


@pytest.fixture(scope="module")
def bundled_scenario():
    return load_scenario(uamnoise.bundled_scenario_path())


class TestBatchedTickMatchesReference:
    @pytest.mark.parametrize("mode", ["hold", "greedy", "sampled"])
    # line-cut: the horizon ends the episode with aircraft still enroute
    @pytest.mark.parametrize("which", ["line", "bundled", "line-cut"])
    def test_collect_rollout_equals_per_agent_loop(self, which, mode, line_scenario,
                                                   request):
        scenario = line_scenario if which != "bundled" else request.getfixturevalue(
            "bundled_scenario")
        sim = SimConfig(max_episode_time_s=400.0) if which == "line-cut" else SimConfig()
        params = None if mode == "hold" else nnet.init_params(8, 21)
        rc = RewardConfig.for_layers(scenario.network.layers, 0.5)

        def run(fn):
            return fn(scenario, params, sim, rc,
                      rng=None if mode == "greedy" else np.random.default_rng(4))

        batch = run(collect_rollout)
        assert_equals_reference(batch, *run(reference_rollout))
        if mode == "sampled":
            assert len(set(batch.actions.tolist())) > 1  # sampling must not be vacuous

    def test_one_observe_and_one_forward_per_tick(self, line_scenario, monkeypatch):
        observed, forwards = [], []

        def recording(fn):
            def wrapper(world, ids, config):
                observed.append((world.t, list(ids)))
                return fn(world, ids, config)
            return wrapper

        def counting(*args):
            forwards.append(args[1].shape[0])
            return forward(*args)

        forward = nnet.forward
        monkeypatch.setattr(rl, "observe_tick", recording(mdp.observe_tick))
        monkeypatch.setattr(mdp, "observe_tick", recording(mdp.observe_tick))
        monkeypatch.setattr(nnet, "forward", counting)
        rc = RewardConfig.for_layers(line_scenario.network.layers, 0.5)
        # at 400 s the horizon ends the episode with aircraft still enroute
        for sim in (SimConfig(), SimConfig(max_episode_time_s=400.0)):
            observed.clear()
            forwards.clear()
            batch = collect_rollout(line_scenario, nnet.init_params(8, 3), sim, rc,
                                    rng=np.random.default_rng(7))
            ticks = sorted({row.t for row in batch.trace})
            assert len(ticks) < len(batch.trace)  # several agents share a tick
            # one observe_tick per decision tick, over its enroute agents ...
            *per_tick, (end_t, at_end) = observed
            assert len(per_tick) == count_decision_ticks(line_scenario, sim)
            assert [(t, ids) for t, ids in per_tick if ids] == \
                [(t, [row.id for row in batch.trace if row.t == t]) for t in ticks]
            # ... and one at episode end, over the last tick's agents still enroute
            assert end_t > ticks[-1]
            last = [row.id for row in batch.trace if row.t == ticks[-1]]
            assert at_end == [i for i in last if i in at_end]
            assert bool(at_end) == (sim.max_episode_time_s == 400.0)
            # one forward per tick with enroute agents, over all of them
            assert forwards == [len(ids) for _, ids in per_tick if ids]


def count_decision_ticks(scenario, sim_config):
    """Decision ticks of an episode; arrivals, and so the episode's end, do
    not depend on the altitude actions."""
    world, ticks = World(scenario, sim_config), 0
    while not world.terminal:
        ticks += world.is_decision_tick()
        world.spawn_due_aircraft()
        world.step({i: Action.HOLD for i in world.enroute_ids()})
    return ticks


def assert_equals_reference(batch, records, trace, los_count):
    """A collect_rollout batch holds exactly reference_rollout's transitions."""
    assert batch.trace == trace and batch.los_count == los_count
    assert list(batch.agent_slices) == list(records)
    assert sum(len(recs) for recs in records.values()) == len(batch.actions)
    for ac_id, recs in records.items():
        rows = range(len(batch.actions))[batch.agent_slices[ac_id]]
        assert len(rows) == len(recs)
        # done exactly at an agent's last transition, where GAE bootstraps 0
        assert [rec["done"] for rec in recs] == [False] * (len(recs) - 1) + [True]
        for i, rec in zip(rows, recs):
            n = rec["intr"].shape[0]
            assert np.array_equal(batch.own[i], rec["own"])
            assert np.array_equal(batch.intr[i, :n], rec["intr"])
            assert batch.intr_mask[i].sum() == n and batch.intr_mask[i, :n].all()
            assert not batch.intr[i, n:].any()
            assert tuple(batch.act_mask[i]) == rec["act_mask"]
            assert batch.actions[i] == rec["action"]
            assert batch.rewards[i] == rec["reward"]
            # float64 GEMM may sum a batch in another order than one row
            assert batch.old_logp[i] == pytest.approx(rec["logp"], rel=0, abs=1e-12)
            assert batch.values[i] == pytest.approx(rec["value"], rel=0, abs=1e-12)


@st.composite
def rollout_cases(draw):
    """Valid simulator configs, and line scenarios of a drawn size and
    departure spacing, under each policy mode."""
    dt_s = draw(st.floats(0.5, 4.0))
    d_los_m = draw(st.floats(10.0, 400.0))
    sim = SimConfig(dt_s=dt_s, decision_interval_s=dt_s * draw(st.integers(1, 15)),
                    climb_rate_fpm=draw(st.floats(100.0, 3000.0)),
                    d_comm_m=draw(st.floats(d_los_m, 5000.0)), d_los_m=d_los_m,
                    max_episode_time_s=draw(st.floats(20.0, 900.0)))
    scenario = generate_scenario(make_line_network(), draw(st.integers(2, 12)),
                                 [("A", "C"), ("C", "A")],
                                 departure_spacing_s=draw(st.floats(0.0, 120.0)),
                                 seed=draw(st.integers(0, 99)))
    return sim, scenario, draw(st.sampled_from(["hold", "greedy", "sampled"])), \
        draw(st.integers(0, 2**16))


class TestRolloutProperty:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rollout_cases())
    def test_collect_rollout_equals_per_agent_loop(self, case):
        sim, scenario, mode, seed = case
        params = None if mode == "hold" else nnet.init_params(8, seed)
        rc = RewardConfig.for_layers(scenario.network.layers, 0.5, d_los_m=sim.d_los_m,
                                     d_comm_m=sim.d_comm_m)

        def run(fn):
            return fn(scenario, params, sim, rc,
                      rng=None if mode == "greedy" else np.random.default_rng(seed))

        assert_equals_reference(run(collect_rollout), *run(reference_rollout))


class TestComputeAdvantages:
    def test_single_done_transition(self):
        batch = fake_batch([2.5], [1.0])
        adv, ret = compute_advantages(batch, 0.99, 0.95)
        # normalized advantage is 0 for a single sample; return target = adv_raw + v
        assert ret[0] == pytest.approx(2.5)

    def test_all_zero_rewards_and_values(self):
        batch = fake_batch([0, 0, 0], [0, 0, 0])
        adv, ret = compute_advantages(batch, 0.99, 0.95)
        assert np.allclose(ret, 0.0)

    def test_telescoping_gamma_lambda_one(self):
        # gamma = lambda = 1: advantage_t = sum of rewards from t - value_t
        rewards = [1.0, 2.0, 3.0]
        values = [0.5, -0.25, 0.125]
        batch = fake_batch(rewards, values)
        adv, ret = compute_advantages(batch, 1.0, 1.0)
        raw = ret - np.array(values)
        expected = [sum(rewards[t:]) - values[t] for t in range(3)]
        assert np.allclose(raw, expected)

    def test_normalization(self):
        rng = np.random.default_rng(0)
        n = 50
        batch = fake_batch(rng.normal(size=n), rng.normal(size=n))
        adv, _ = compute_advantages(batch, 0.99, 0.95)
        assert adv.mean() == pytest.approx(0.0, abs=1e-9)
        assert adv.std() == pytest.approx(1.0, abs=1e-6)


def reference_advantages(rewards, values, dones, gamma, gae_lambda):
    """GAE over one flat buffer with an explicit done flag per row: no
    bootstrap from, and no accumulation across, a done row."""
    adv = np.zeros_like(rewards)
    acc = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        nxt = 0.0 if dones[i] else values[i + 1]
        delta = rewards[i] + gamma * nxt - values[i]
        acc = delta + gamma * gae_lambda * (0.0 if dones[i] else acc)
        adv[i] = acc
    return (adv - adv.mean()) / (adv.std() + 1e-8), adv + values


@st.composite
def advantage_cases(draw):
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=6))
    n = sum(lengths)
    finite = st.floats(-10.0, 10.0)
    rewards = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    values = np.array(draw(st.lists(finite, min_size=n, max_size=n)))
    return lengths, rewards, values, draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))


class TestAdvantagesProperty:
    @settings(max_examples=200, deadline=None)
    @given(advantage_cases())
    def test_equals_done_flag_reference(self, case):
        lengths, rewards, values, gamma, gae_lambda = case
        dones = np.zeros(len(rewards), dtype=bool)
        dones[np.cumsum(lengths) - 1] = True  # each agent's last row
        adv, ret = compute_advantages(fake_batch(rewards, values, lengths), gamma, gae_lambda)
        ref_adv, ref_ret = reference_advantages(rewards, values, dones, gamma, gae_lambda)
        assert np.array_equal(adv, ref_adv) and np.array_equal(ret, ref_ret)


class TestTrain:
    def test_zero_iterations_returns_initial_params(self, solo_scenario):
        cfg = small_train_config(0)
        rc = RewardConfig.for_layers(solo_scenario.network.layers, 1.0)
        params, rows = train(solo_scenario, cfg, SimConfig(), rc)
        init = nnet.init_params(cfg.hidden, cfg.seed)
        for key in nnet.PARAM_KEYS:
            assert np.array_equal(params[key], init[key])
        assert rows == []

    def test_deterministic_metrics(self, solo_scenario):
        cfg = small_train_config(3)
        rc = RewardConfig.for_layers(solo_scenario.network.layers, 1.0)
        _, rows1 = train(solo_scenario, cfg, SimConfig(), rc)
        _, rows2 = train(solo_scenario, cfg, SimConfig(), rc)
        assert rows1 == rows2

    def test_checkpoints_written(self, solo_scenario, tmp_path):
        cfg = small_train_config(2)
        cfg.checkpoint_interval = 1
        rc = RewardConfig.for_layers(solo_scenario.network.layers, 1.0)
        train(solo_scenario, cfg, SimConfig(), rc, checkpoint_dir=str(tmp_path))
        assert (tmp_path / "checkpoint_000001.json").exists()
        assert (tmp_path / "checkpoint_000002.json").exists()


class TestCheckpointFile:
    def test_round_trip(self, tmp_path, line_network):
        params = nnet.init_params(8, 11)
        tc = small_train_config(5)
        rc = RewardConfig.for_layers(line_network.layers, 0.25)
        path = tmp_path / "ck.json"
        save_checkpoint(path, params, tc, rc)
        p2, tc2, rc2 = load_checkpoint(path)
        for key in nnet.PARAM_KEYS:
            assert np.array_equal(params[key], p2[key])
        assert tc2 == tc
        assert rc2.rho == 0.25
        assert rc2.layers == line_network.layers

    def test_forward_preserved_bit_exact(self, tmp_path, line_network):
        rng = np.random.default_rng(14)
        params = nnet.init_params(8, 12)
        path = tmp_path / "ck.json"
        save_checkpoint(path, params, small_train_config(1),
                        RewardConfig.for_layers(line_network.layers, 0.5))
        restored, *_ = load_checkpoint(path)
        # one observation as a one-row batch: own (1, 6), intr (1, 4, 5)
        own, intr = rng.normal(size=(1, 6)), rng.normal(size=(1, 4, 5))
        masks = np.ones((1, 4), dtype=bool), np.ones((1, 3), dtype=bool)
        p1, v1 = nnet.policy_batch(params, own, intr, *masks)
        p2, v2 = nnet.policy_batch(restored, own, intr, *masks)
        assert np.array_equal(p1, p2) and np.array_equal(v1, v2)

    def test_every_reward_field_saved(self, tmp_path, line_network):
        # a RewardConfig field that save_checkpoint does not write would load
        # back as its default, or be accepted from a file without being saved
        path = tmp_path / "ck.json"
        save_checkpoint(path, nnet.init_params(4, 0), small_train_config(1, hidden=4),
                        RewardConfig.for_layers(line_network.layers, 0.5))
        saved = set(json.loads(path.read_text())["reward_config"]) - {"z_min_ft", "z_max_ft"}
        assert saved == {f.name for f in fields(RewardConfig)}


@st.composite
def checkpoint_cases(draw):
    """Params of a random hidden size with values over the whole float64
    exponent range, and random train and reward configs and layer sets."""
    hidden = draw(st.integers(1, 16))
    params = nnet.init_params(hidden, draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    size = params.flat.size
    params.flat[:] = rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
    unit = st.floats(0.0, 1.0)
    positive = st.floats(1e-6, 1e3)
    tc = TrainConfig(gamma=draw(unit), gae_lambda=draw(unit), clip_eps=draw(positive),
                     learning_rate=draw(positive), epochs=draw(st.integers(1, 9)),
                     minibatch_size=draw(st.integers(1, 512)),
                     iterations=draw(st.integers(0, 5000)),
                     entropy_coef=draw(st.floats(-1.0, 1.0)),
                     value_coef=draw(st.floats(-1.0, 1.0)), hidden=hidden,
                     seed=draw(st.integers(0, 2**31)),
                     checkpoint_interval=draw(st.integers(0, 100)))
    # Within the NPD domain (from 200 ft), and apart, so that noise falls
    # from the lowest layer to the highest, as RewardConfig requires.
    levels = draw(st.lists(st.floats(200.0, 10000.0), min_size=2, max_size=7, unique_by=round))
    layers = AltitudeLayerSet(tuple(sorted(levels)))
    rc = RewardConfig.for_layers(layers, draw(unit), lam=draw(st.floats(0.0, 10.0)),
                                 d_los_m=draw(positive), d_comm_m=draw(positive),
                                 condition=draw(st.sampled_from(list(Condition))))
    return params, tc, rc, layers


class TestCheckpointRoundTripProperty:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(checkpoint_cases())
    def test_load_of_save_is_exact_and_resaves_byte_identical(self, tmp_path_factory, case):
        params, tc, rc, layers = case
        path = tmp_path_factory.mktemp("ck") / "ck.json"
        save_checkpoint(path, params, tc, rc)
        loaded, tc2, rc2 = load_checkpoint(path)
        assert loaded.hidden == params.hidden
        assert loaded.flat.tobytes() == params.flat.tobytes()
        assert tc2 == tc and rc2 == rc
        assert rc2.layers == layers
        again = path.with_name("again.json")
        save_checkpoint(again, loaded, tc2, rc2)
        assert again.read_bytes() == path.read_bytes()


class TestPpoUpdate:
    def test_updates_change_params(self, solo_scenario):
        params = nnet.init_params(8, 0)
        before = params.flat.copy()
        cfg = small_train_config(1)
        rc = RewardConfig.for_layers(solo_scenario.network.layers, 1.0)
        rng = np.random.default_rng(0)
        batch = collect_rollout(solo_scenario, params, SimConfig(), rc, rng=rng)
        adam = nnet.Adam(params, lr=cfg.learning_rate)
        params, stats = ppo_update(params, batch, cfg, adam, rng)
        assert not np.array_equal(before, params.flat)
        assert np.isfinite(stats["policy_loss"])
