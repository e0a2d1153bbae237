"""The benchmark's three workloads, built on the public uamnoise API.

Each workload is set up once from a seed (scenario plus parameters) and then
runs one closed-loop operation at a time: a 50-iteration ``rl.train`` call on
``line-train``, one ``metrics.run_episode`` call on the other two. Every
operation of a run repeats the same inputs, so every operation must give the
same outputs; the first one is also compared with the stored references.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import uamnoise
from uamnoise import metrics, nnet, rl
from uamnoise.mdp import RewardConfig
from uamnoise.network import (AltitudeLayerSet, Link, Network, NoiseZone, Scenario,
                              Vertiport, generate_scenario, load_scenario)
from uamnoise.rl import TrainConfig
from uamnoise.sim import SimConfig

WORKLOADS = ("line-train", "bundled-policy", "dense-hold")

REFS_PATH = Path(__file__).with_name("refs.json")

#: Training iterations per line-train operation; the reference rows are
#: taken at every tenth iteration of it.
LINE_ITERATIONS = 50
LINE_REF_ITERATIONS = (9, 19, 29, 39, 49)

DENSE_FLIGHTS = 500
DENSE_SPACING_S = 10.0


@dataclass
class OpResult:
    """One operation: its timed samples and the outputs to check.

    ``iter_s`` holds one entry per loop iteration (a training iteration, or a
    whole ``run_episode`` call) and ``outputs`` one checked record each.
    """

    iter_s: list[float]
    outputs: list[tuple]


@dataclass
class Workload:
    name: str
    seed: int
    scenario: Scenario
    sim_config: SimConfig
    run: object  # (now: () -> seconds) -> OpResult
    network_s: dict[str, float] = field(default_factory=dict)


def load_refs(path=REFS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Set-up


def line_network() -> Network:
    """A -- B -- C, 12 km links in both directions, and one 50 dB zone."""
    vp = {"A": Vertiport("A", 0.0, 0.0),
          "B": Vertiport("B", 12000.0, 0.0),
          "C": Vertiport("C", 24000.0, 0.0)}
    links = {}
    for a, b in (("A", "B"), ("B", "C")):
        links[f"{a}-{b}"] = Link(f"{a}-{b}", a, b)
        links[f"{b}-{a}"] = Link(f"{b}-{a}", b, a)
    zones = {"Z1": NoiseZone("Z1", tuple(sorted(links)) + ("A", "B", "C"), 50.0)}
    return Network(vp, links, AltitudeLayerSet(), zones)


def _reward_config(network: Network, sim: SimConfig, rho: float) -> RewardConfig:
    return RewardConfig.for_layers(network.layers, rho,
                                   d_los_m=sim.d_los_m, d_comm_m=sim.d_comm_m)


def setup(name: str, seed: int, line_iterations: int = LINE_ITERATIONS) -> Workload:
    """Build a workload's inputs from its seed; the timed part of set-up."""
    network_s = {}
    if name == "line-train":
        net = line_network()
        t0 = time.perf_counter()
        scenario = generate_scenario(net, 12, [("A", "C"), ("C", "A")],
                                     departure_spacing_s=50.0, seed=seed)
        network_s["network.generate_s"] = time.perf_counter() - t0
        sim = SimConfig(climb_rate_fpm=1000.0)
        reward = _reward_config(net, sim, 0.9)
        train_config = TrainConfig(iterations=line_iterations, seed=seed, hidden=16,
                                   learning_rate=1e-3, minibatch_size=128)

        def run(now) -> OpResult:
            stamps = [now()]
            _, rows = rl.train(scenario, train_config, sim, reward,
                               progress=lambda _row: stamps.append(now()))
            return OpResult([b - a for a, b in zip(stamps, stamps[1:])], rows)

        return Workload(name, seed, scenario, sim, run, network_s)

    t0 = time.perf_counter()
    bundled = load_scenario(uamnoise.bundled_scenario_path())
    network_s["network.load_s"] = time.perf_counter() - t0
    sim = SimConfig()
    reward = _reward_config(bundled.network, sim, 0.5)
    if name == "bundled-policy":
        scenario = bundled
        params = nnet.init_params(64, seed)
        greedy = False
    elif name == "dense-hold":
        net = bundled.network
        pairs = [(a, b) for a in net.vertiports for b in net.vertiports if a != b]
        t0 = time.perf_counter()
        scenario = generate_scenario(net, DENSE_FLIGHTS, pairs,
                                     departure_spacing_s=DENSE_SPACING_S, seed=seed)
        network_s["network.generate_s"] = time.perf_counter() - t0
        params = None
        greedy = True
    else:
        raise ValueError(f"unknown workload '{name}'; choose from {', '.join(WORKLOADS)}")

    def run(now) -> OpResult:
        t0 = now()
        episode, trace = metrics.run_episode(params, scenario, sim, reward,
                                             seed=seed, greedy=greedy)
        elapsed = now() - t0
        hist_sum = math.fsum(episode.histogram.values())
        return OpResult([elapsed], [(episode.los_count, len(trace), episode.mean_return,
                                     hist_sum)])

    return Workload(name, seed, scenario, sim, run, network_s)


# ---------------------------------------------------------------------------
# Work counts


def aircraft_steps(scenario: Scenario, config: SimConfig) -> int:
    """Enroute aircraft x physics steps of one episode.

    Altitude does not change along-track motion, so the count depends only on
    the scenario: each flight is enroute from the first step at or after its
    departure until the step that carries it past its route length, and the
    episode stops at the horizon. Distances and times accumulate in the same
    order as in ``World`` so that the counts agree exactly.
    """
    net = scenario.network
    spans = []
    for fl in scenario.flights:
        length = 0.0
        for lid in scenario.routes[fl.id].link_ids:
            length += net.link_length_m(lid)
        step, t = 0, 0.0
        while t < fl.departure_s:
            step, t = step + 1, t + config.dt_s
        n, dist = 0, 0.0
        while True:
            n += 1
            dist += config.cruise_speed_mps * config.dt_s
            if dist >= length:
                break
        spans.append((step, step + n))
    horizon, t = 0, 0.0
    while t < config.max_episode_time_s:
        horizon, t = horizon + 1, t + config.dt_s
    end = min(horizon, max(stop for _, stop in spans))
    return sum(max(0, min(stop, end) - start) for start, stop in spans)


# ---------------------------------------------------------------------------
# Output checks


def _close(a: float, b: float, rel_tol: float) -> bool:
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=0.0)


def check_outputs(name: str, seed: int, outputs: list[tuple], first: list[tuple] | None,
                  refs: dict) -> list[bool]:
    """One pass/fail per output record.

    A record fails if it breaks an invariant, differs from the record at the
    same position of the run's first operation (runs are deterministic), or,
    where ``refs`` holds this seed, differs from the reference: integers
    exactly, floats within ``refs["rel_tol"]``.
    """
    rel_tol = refs["rel_tol"]
    ref = refs.get(name, {}).get(str(seed))
    ok = []
    if name == "line-train":
        ref_rows = {row[0]: row for row in ref} if ref is not None else {}
        for i, row in enumerate(outputs):
            it, mean_return, los, top = row
            good = (it == i and los >= 0 and 0.0 <= top <= 1.0
                    and math.isfinite(mean_return) and mean_return <= 0.0)
            if first is not None and i < len(first):
                good = good and row == first[i]
            if i in ref_rows:
                _, r_ret, r_los, r_top = ref_rows[i]
                good = (good and los == r_los and _close(mean_return, r_ret, rel_tol)
                        and _close(top, r_top, rel_tol))
            ok.append(good)
        return ok
    for i, rec in enumerate(outputs):
        los, decisions, mean_return, hist_sum = rec
        good = (los >= 0 and decisions > 0 and mean_return <= 0.0
                and math.isfinite(mean_return) and abs(hist_sum - 1.0) < 1e-9)
        if first is not None:
            good = good and rec == first[i]
        if ref is not None:
            r_los, r_dec, r_ret = ref
            good = (good and los == r_los and decisions == r_dec
                    and _close(mean_return, r_ret, rel_tol))
        ok.append(good)
    return ok


def reference_record(name: str, result: OpResult) -> list:
    """The stored reference for one seed, taken from one operation."""
    if name == "line-train":
        return [list(result.outputs[i]) for i in LINE_REF_ITERATIONS]
    los, decisions, mean_return, _ = result.outputs[0]
    return [los, decisions, mean_return]
