"""Acceptance gate: ten criteria covering the noise model, the simulator, the
policy network, training, and end-to-end determinism. Each test prints one
pass/fail line; run with -s (or read captured output) to see them.
"""
import contextlib
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from uamnoise import metrics as M
from uamnoise import nnet, rl
from uamnoise.cli import main as cli_main
from uamnoise.mdp import (INTRUDER_DIM, RewardConfig, reward_noise, reward_total,
                          separation_rewards)
from uamnoise.network import generate_scenario, save_scenario
from uamnoise.noise import (COEFFICIENTS, Condition, NoiseSample, cumulative_increase,
                            fit_npd, single_event_level)
from uamnoise.rl import TrainConfig
from uamnoise.sim import Action, Phase, SimConfig, World

from conftest import make_corridor_network, make_line_network


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def test_criterion_01_noise_golden_values():
    with criterion(1, "noise golden values at 200/1000/3000/20000 ft"):
        for z_ft, expected in ((1000.0, 74.14), (3000.0, 67.57),
                               (200.0, 81.60), (20000.0, 53.43)):
            level = single_event_level(Condition.L_CENTERLINE, z_ft)
            assert level == pytest.approx(expected, abs=0.01), (z_ft, level)


def test_criterion_02_npd_fit_recovery():
    with criterion(2, "fit recovers all six coefficient rows within 1e-6"):
        distances = np.geomspace(200.0, 20000.0, 12)
        for cond, (c0, c1, c2) in COEFFICIENTS.items():
            samples = []
            for z in distances:
                lz = math.log10(z)
                samples.append(NoiseSample(z, c0 + c1 * lz + c2 * lz * lz))
            f0, f1, f2, rms = fit_npd(samples)
            assert abs(f0 - c0) <= 1e-6, cond
            assert abs(f1 - c1) <= 1e-6, cond
            assert abs(f2 - c2) <= 1e-6, cond
            assert rms <= 1e-6


def test_criterion_03_cumulative_noise_laws():
    with criterion(3, "duplication law exact to 1e-9; pipeline value -1.42 dB"):
        base = 74.14
        one = cumulative_increase([base], 40.0)
        for k in (2, 4, 10):
            many = cumulative_increase([base] * k, 40.0)
            assert abs(many - one - 10.0 * math.log10(k)) <= 1e-9, k
        assert one == pytest.approx(-1.42, abs=0.01)


def test_criterion_04_los_matches_brute_force_oracle():
    with criterion(4, "detect_los equals brute-force oracle over a 20-aircraft"
                      " 600-tick episode"):
        start = time.perf_counter()
        net = make_line_network()
        sc = generate_scenario(net, 20, [("A", "C"), ("C", "A")],
                               departure_spacing_s=20.0, seed=1)
        world = World(sc, SimConfig())
        rng = np.random.default_rng(11)
        saw_violation = False
        for _ in range(600):
            if world.terminal:
                break
            world.spawn_due_aircraft()
            actions = {aid: Action(int(rng.integers(0, 3)))
                       for aid in world.enroute_ids()}
            reported = {(a, b) for a, b, _ in world.step(actions)}
            oracle = set()
            enroute = [a for a in world.aircraft.values()
                       if a.phase is Phase.ENROUTE]
            for i, a in enumerate(enroute):
                for b in enroute[i + 1:]:
                    d = math.sqrt((a.x_m - b.x_m) ** 2 + (a.y_m - b.y_m) ** 2
                                  + ((a.z_ft - b.z_ft) * 0.3048) ** 2)
                    if d < 150.0:
                        oracle.add(tuple(sorted((a.id, b.id))))
            assert reported == oracle, world.t
            saw_violation = saw_violation or bool(oracle)
        assert saw_violation  # the comparison must not be vacuous
        assert time.perf_counter() - start < 10.0


def test_criterion_05_reward_contract():
    with criterion(5, "reward endpoints, separation steps, rho affinity, and"
                      " the 152.4 m knife-edge"):
        cfg = RewardConfig(rho=0.5)
        assert reward_noise(3000.0, cfg) == 0.0
        assert reward_noise(1000.0, cfg) == -1.0

        def obs_with(z_rels):
            """One-row intruder batch and mask: z_rel, d_o = 0.1, last action
            HOLD per intruder."""
            intr = np.zeros((1, len(z_rels), INTRUDER_DIM))
            intr[0, :, 0], intr[0, :, 1], intr[0, :, 2 + int(Action.HOLD)] = z_rels, 0.1, 1.0
            return intr, np.ones((1, len(z_rels)), dtype=bool)

        for count, expected in ((0, 0.0), (4, -0.4), (12, -1.0)):
            assert separation_rewards(*obs_with([0.0] * count), cfg)[0] == expected

        # adjacent layer: |dz| = 0.25 * 2000 ft * 0.3048 = 152.4 m >= 150 m
        assert separation_rewards(*obs_with([0.25]), cfg)[0] == 0.0
        assert separation_rewards(*obs_with([-0.25]), cfg)[0] == 0.0
        assert separation_rewards(*obs_with([0.07]), cfg)[0] == -0.1

        for rho in (0.0, 0.3, 1.0):
            assert reward_total(-0.6, -0.2, rho) == rho * -0.6 + (1 - rho) * -0.2


def test_criterion_06_gradient_check():
    with criterion(6, "analytic gradients match central finite differences"):
        start = time.perf_counter()
        rng = np.random.default_rng(21)
        params = nnet.init_params(4, 5)
        flat = params.flat
        assert len(flat) <= 200

        b, k = 20, 6
        own = rng.normal(size=(b, 6))
        intr = rng.normal(size=(b, k, 5))
        intr_mask = rng.random((b, k)) < 0.6
        intr_mask[0] = False
        act_mask = np.ones((b, 3), dtype=bool)
        act_mask[1, 2] = False
        actions = rng.integers(0, 3, size=b)
        actions = np.where(act_mask[np.arange(b), actions], actions, 0)
        logits, _, _ = nnet.forward(params, own, intr, intr_mask, act_mask)
        lp = nnet.masked_log_softmax(logits)
        batch = {
            "own": own, "intr": intr, "intr_mask": intr_mask,
            "act_mask": act_mask, "actions": actions,
            "old_logp": lp[np.arange(b), actions] + rng.normal(0, 0.01, b),
            "advantages": rng.normal(size=b), "returns": rng.normal(size=b),
        }
        _, grads, _ = nnet.ppo_loss_and_grads(params, batch, 0.2, 0.5, 0.01)
        gflat = grads.flat

        def loss_at(x):
            p = nnet.Params(params.hidden)
            p.flat[:] = x
            return nnet.ppo_loss_and_grads(p, batch, 0.2, 0.5, 0.01)[0]

        eps = 1e-5
        for i in range(len(flat)):
            xp, xm = flat.copy(), flat.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = (loss_at(xp) - loss_at(xm)) / (2 * eps)
            diff = abs(fd - gflat[i])
            assert diff <= 1e-7 or diff / max(abs(fd), abs(gflat[i])) <= 1e-4, i
        assert time.perf_counter() - start < 60.0


def test_criterion_07_permutation_invariance():
    with criterion(7, "intruder permutation changes outputs by <= 1e-6"):
        rng = np.random.default_rng(31)
        params = nnet.init_params(16, 2)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            # one observation as a one-row batch: own (1, 6), intr (1, n, 5)
            own = rng.normal(size=(1, 6))
            intr = rng.normal(size=(1, n, 5))
            masks = np.ones((1, n), dtype=bool), np.ones((1, 3), dtype=bool)
            p1, v1 = nnet.policy_batch(params, own, intr, *masks)
            p2, v2 = nnet.policy_batch(params, own, intr[:, rng.permutation(n)], *masks)
            assert np.max(np.abs(p1 - p2)) <= 1e-6
            assert abs(v1[0] - v2[0]) <= 1e-6


def test_criterion_08_forced_optimum_convergence():
    with criterion(8, "rho=1 solo aircraft climbs to and holds the top layer"):
        start = time.perf_counter()
        net = make_corridor_network(length_m=30000.0)
        sc = generate_scenario(net, 1, [("A", "B")], seed=0)
        sim_cfg = SimConfig(climb_rate_fpm=1000.0)
        train_cfg = TrainConfig(iterations=300, seed=0, hidden=16,
                                learning_rate=1e-3, minibatch_size=64)
        assert train_cfg.iterations <= 500
        reward_cfg = RewardConfig.for_layers(net.layers, 1.0)
        params, _ = rl.train(sc, train_cfg, sim_cfg, reward_cfg)
        _, trace = M.run_episode(params, sc, sim_cfg, reward_cfg, seed=0)
        top = net.layers.z_max
        first_top = next(i for i, row in enumerate(trace) if row.z_ft == top)
        post = trace[first_top:]
        frac = sum(1 for row in post if row.z_ft == top) / len(post)
        assert frac > 0.9, frac
        assert time.perf_counter() - start < 300.0


@pytest.mark.slow
def test_criterion_09_noise_separation_tradeoff_trend():
    with criterion(9, "rho=0.9 vs rho=0.0: higher top-layer occupancy, lower"
                      " noise, >= LOS, lower entropy"):
        start = time.perf_counter()
        net = make_line_network()
        sc = generate_scenario(net, 12, [("A", "C"), ("C", "A")],
                               departure_spacing_s=50.0, seed=3)
        sim_cfg = SimConfig(climb_rate_fpm=1000.0)
        train_cfg = TrainConfig(iterations=2000, seed=0, hidden=16,
                                learning_rate=1e-3, minibatch_size=128)
        rows = M.sweep_rho([0.0, 0.9], sc, train_cfg, sim_cfg,
                           RewardConfig.for_layers(net.layers, 0.0), seeds=[0, 1, 2, 3, 4])
        low, high = M.tradeoff(rows)  # sorted by rho
        assert low["rho"] == 0.0 and high["rho"] == 0.9

        assert high["top_layer_fraction"] - low["top_layer_fraction"] >= 0.2
        assert high["median_noise_increase_db"] < low["median_noise_increase_db"]
        assert high["mean_los"] >= low["mean_los"]
        ent_low = M.histogram_entropy(low["histogram"])
        ent_high = M.histogram_entropy(high["histogram"])
        assert ent_low > ent_high, (ent_low, ent_high)
        assert time.perf_counter() - start < 1800.0


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "train and simulate metrics logs are byte-identical"
                       " across repeated runs"):
        net = make_line_network(link_len_m=3000.0)
        sc = generate_scenario(net, 2, [("A", "C"), ("C", "A")],
                               departure_spacing_s=30.0, seed=3)
        scenario_path = tmp_path / "scenario.json"
        save_scenario(sc, scenario_path)
        runner = CliRunner()

        train_logs, sim_outs = [], []
        for run in ("one", "two"):
            log = tmp_path / f"train_{run}.csv"
            result = runner.invoke(cli_main, [
                "train", "--scenario", str(scenario_path), "--rho", "0.5",
                "--iterations", "3", "--seed", "5",
                "--out", str(tmp_path / f"ck_{run}.json"),
                "--hidden", "8", "--minibatch_size", "64",
                "--metrics-log", str(log)])
            assert result.exit_code == 0, result.output
            train_logs.append(log.read_bytes())

            out = tmp_path / f"sim_{run}.json"
            result = runner.invoke(cli_main, [
                "simulate", "--scenario", str(scenario_path),
                "--policy", str(tmp_path / f"ck_{run}.json"),
                "--seed", "5", "--out", str(out)])
            assert result.exit_code == 0, result.output
            sim_outs.append(out.read_bytes())

        assert train_logs[0] == train_logs[1]
        assert sim_outs[0] == sim_outs[1]
        doc = json.loads(sim_outs[0])
        assert doc[0]["seed"] == 5
