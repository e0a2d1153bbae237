"""Rollout collection, generalized advantage estimation, PPO updates, and the
training loop.

One shared policy acts for every aircraft (centralized learning, decentralized
execution). One training iteration = one full-episode rollout followed by one
PPO update over the collected batch.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from . import nnet
from .errors import ValidationError, check_number, check_object, check_type, read_json
from .mdp import INTRUDER_DIM, OWN_DIM, RewardConfig, observe_tick, tick_rewards
from .network import AltitudeLayerSet, Scenario
from .sim import Action, AircraftState, SimConfig, World, action_mask


@dataclass
class TrainConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    learning_rate: float = 3e-4
    epochs: int = 4
    minibatch_size: int = 256
    iterations: int = 1000
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    hidden: int = 64
    seed: int = 0
    checkpoint_interval: int = 0  # 0 disables periodic checkpoints

    def __post_init__(self):
        # check_number's (low, high, above) per field; the others need only be finite.
        rules = {"gamma": (0, 1), "gae_lambda": (0, 1), "clip_eps": (0, None, True),
                 "learning_rate": (0, None, True), "epochs": (1,), "minibatch_size": (1,),
                 "iterations": (0,), "hidden": (1,), "seed": (0,), "checkpoint_interval": (0,)}
        for f in fields(self):
            check_number(f"TrainConfig.{f.name}", getattr(self, f.name), *rules.get(f.name, ()),
                         integer=type(f.default) is int)


@dataclass(slots=True)
class TraceRow:
    t: float
    id: str
    x_m: float
    y_m: float
    z_ft: float
    action: Action
    b_changing: bool
    member: str  # World.position: the link or vertiport the row counts for


@dataclass
class RolloutResult:
    """An episode's PPO batch (_pack): per-agent transition arrays. Agent id's
    transitions are the rows agent_slices[id], in time order; the bootstrap
    after its last one is 0, whether it arrived or was cut off by the horizon."""

    own: np.ndarray          # (B, OWN_DIM)
    intr: np.ndarray         # (B, K, INTRUDER_DIM)
    intr_mask: np.ndarray    # (B, K)
    act_mask: np.ndarray     # (B, 3)
    actions: np.ndarray      # (B,)
    old_logp: np.ndarray     # (B,)
    rewards: np.ndarray      # (B,)
    values: np.ndarray       # (B,)
    agent_slices: dict[str, slice]


def altitude_histogram(trace: list[TraceRow], layers: AltitudeLayerSet) -> dict[float, float]:
    """Fraction of enroute aircraft-ticks per layer; fractions sum to 1. A
    mid-transition row counts for the layer the aircraft departed (its last
    level layer)."""
    if not trace:
        raise ValidationError("cannot build a histogram from an empty trace")
    hist = {z: 0.0 for z in layers.levels_ft}
    last_level: dict[str, float] = {}
    for row in sorted(trace, key=attrgetter("t")):  # stable: each aircraft's rows in time order
        if row.z_ft in hist:
            last_level[row.id] = row.z_ft
        hist[last_level.get(row.id, layers.z_min)] += 1.0
    return {z: c / len(trace) for z, c in hist.items()}


class _Block(NamedTuple):
    """One decision tick's transitions, one row per enroute agent."""

    flight: np.ndarray     # (b,) the agents' scenario flight indices, ascending
    own: np.ndarray
    intr: np.ndarray       # (b, k, INTRUDER_DIM), k of this tick
    intr_mask: np.ndarray
    act_mask: np.ndarray
    actions: np.ndarray
    old_logp: np.ndarray
    values: np.ndarray


@dataclass
class Episode:
    """One episode as collect_rollout returns it: what evaluation reads (the
    trace, the LOS count and the mean return), and the per-tick blocks and
    rewards that _pack turns into the PPO batch."""

    trace: list[TraceRow]
    los_count: int
    mean_return: float       # mean over the agents that acted; 0 with none
    blocks: list[_Block]
    order: np.ndarray        # (B,) the blocks' concatenated rows, agent-major
    rewards: np.ndarray      # (B,) agent-major, aligned with order
    agent_slices: dict[str, slice]


def collect_rollout(
    scenario: Scenario,
    params: dict | None,
    sim_config: SimConfig,
    reward_config: RewardConfig,
    rng: np.random.Generator | None = None,
) -> Episode:
    """Run one full episode with every enroute aircraft acting from the shared
    params. params=None means the hold-only baseline. Actions are sampled
    from rng, or are the argmax without one (nnet.sample_actions).

    A decision tick's agents are world.enroute(), the enroute records in
    flight order, read once. The tick is one set of array operations over
    them: one observe_tick, whose row b is agent b's, one batched policy
    pass, one sample_actions and one stored block; then each agent's trace
    row and its command. The rewards that close a block come at the next
    tick, from tick_rewards of the block's records against the observe_tick
    that tick makes, as an array aligned with the block's rows; at episode
    end, from one last observe_tick, which closes the last block the same way.

    The episode's rows are put in agent-major order (agents in flight order,
    each agent's rows in time order) by one stable sort on flight index. The
    episode keeps that order, the rewards in it and each agent's slice of
    them; the mean return is the mean of the per-agent sums. The other
    columns stay in their tick blocks: only training packs them (_pack).
    """
    world = World(scenario, sim_config)
    layers = scenario.network.layers
    members = tuple(Action)  # indexed by a sampled action's wire integer
    blocks: list[_Block] = []
    rewards: list[np.ndarray] = []  # rewards[i] closes blocks[i]
    acted: list[AircraftState] = []  # the agents of the last block
    trace: list[TraceRow] = []

    while not world.terminal:
        if world.is_decision_tick():
            world.spawn_due_aircraft()
            acs = world.enroute()
            own, intr, intr_mask = observe_tick(world, reward_config)
            if acted:
                rewards.append(tick_rewards(acted, reward_config, (acs, intr, intr_mask)))
            acted = acs
            if acs:
                masks = np.array([action_mask(ac, layers) for ac in acs])
                if params is not None:
                    probs, values = nnet.policy_batch(params, own, intr, intr_mask, masks)
                else:
                    probs = np.tile([1.0, 0.0, 0.0], (len(acs), 1))
                    values = np.zeros(len(acs))
                actions, logp = nnet.sample_actions(probs, rng)
                blocks.append(_Block(np.array([ac.flight_index for ac in acs]), own,
                                     intr, intr_mask, masks, actions, logp, values))
                t, position, command = world.t, world.position, world.apply_altitude_command
                for ac, action in zip(acs, map(members.__getitem__, actions.tolist())):
                    x, y, member = position(ac)
                    trace.append(TraceRow(t, ac.id, x, y, ac.z_ft, action, ac.b_changing, member))
                    command(ac, action)
        world.step()
    if acted:
        _, intr, intr_mask = observe_tick(world, reward_config)
        rewards.append(tick_rewards(acted, reward_config, (world.enroute(), intr, intr_mask)))
    flight = np.concatenate([np.zeros(0, dtype=int), *(blk.flight for blk in blocks)])
    order = np.argsort(flight, kind="stable")
    r = np.concatenate([np.zeros(0), *rewards])[order]
    counts = np.bincount(flight, minlength=len(scenario.flights)).tolist()
    ends = np.cumsum(counts).tolist()
    agent_slices = {fl.id: slice(end - n, end)
                    for fl, n, end in zip(scenario.flights, counts, ends) if n}
    mean_return = (sum(float(r[sl].sum()) for sl in agent_slices.values()) / len(agent_slices)
                   if agent_slices else 0.0)
    return Episode(trace, len(world.los_events), mean_return, blocks, order, r, agent_slices)


def _pack(episode: Episode) -> RolloutResult:
    """The episode's PPO batch: its tick blocks concatenated in the episode's
    agent-major order, intruders zero-padded to the batch's K. Each block's
    intruders are written straight to their batch rows."""
    empty = _Block(np.zeros(0, dtype=int), np.zeros((0, OWN_DIM)), np.zeros((0, 1, INTRUDER_DIM)),
                   np.zeros((0, 1), dtype=bool), np.zeros((0, 3), dtype=bool),
                   np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))
    blocks = [empty, *episode.blocks]
    order = episode.order

    def column(name):
        return np.concatenate([getattr(blk, name) for blk in blocks])[order]

    batch_row = np.empty_like(order)
    batch_row[order] = np.arange(len(order))
    k = max(blk.intr.shape[1] for blk in blocks)
    intr = np.zeros((len(order), k, INTRUDER_DIM))
    intr_mask = np.zeros((len(order), k), dtype=bool)
    start = 0
    for blk in blocks:
        rows = batch_row[start:start + len(blk.flight)]
        start += len(rows)
        intr[rows, :blk.intr.shape[1]] = blk.intr
        intr_mask[rows, :blk.intr.shape[1]] = blk.intr_mask
    return RolloutResult(column("own"), intr, intr_mask, column("act_mask"), column("actions"),
                         column("old_logp"), episode.rewards, column("values"),
                         episode.agent_slices)


def compute_advantages(batch: RolloutResult, gamma: float, gae_lambda: float):
    """Per-agent GAE over each agent's trajectory. The bootstrap after an
    agent's last transition is 0, whether it arrived or was cut off by the
    horizon. Advantages are normalized to zero mean / unit variance over the
    batch."""
    adv = np.zeros_like(batch.rewards)
    for sl in batch.agent_slices.values():
        r = batch.rewards[sl]
        v = batch.values[sl]
        acc = 0.0
        out = np.zeros_like(r)
        for i in range(len(r) - 1, -1, -1):
            nxt = v[i + 1] if i + 1 < len(r) else 0.0
            delta = r[i] + gamma * nxt - v[i]
            acc = delta + gamma * gae_lambda * acc
            out[i] = acc
        adv[sl] = out
    returns = adv + batch.values
    std = adv.std()
    norm = (adv - adv.mean()) / (std + 1e-8)
    return norm, returns


def ppo_update(params, batch: RolloutResult, config: TrainConfig, adam: nnet.Adam,
               rng: np.random.Generator):
    """Minibatched clipped-surrogate update of params in place; returns
    (params, stats of the last minibatch)."""
    advantages, returns = compute_advantages(batch, config.gamma, config.gae_lambda)
    b = len(batch.actions)
    stats = {}
    for _ in range(config.epochs):
        order = rng.permutation(b)
        for start in range(0, b, config.minibatch_size):
            idx = order[start:start + config.minibatch_size]
            mb = {
                "own": batch.own[idx], "intr": batch.intr[idx],
                "intr_mask": batch.intr_mask[idx], "act_mask": batch.act_mask[idx],
                "actions": batch.actions[idx], "old_logp": batch.old_logp[idx],
                "advantages": advantages[idx], "returns": returns[idx],
            }
            loss, grads, stats = nnet.ppo_loss_and_grads(
                params, mb, config.clip_eps, config.value_coef, config.entropy_coef)
            adam.step(params, grads)
    return params, stats


def train(
    scenario: Scenario,
    train_config: TrainConfig,
    sim_config: SimConfig,
    reward_config: RewardConfig,
    checkpoint_dir=None,
    progress=None,
):
    """collect -> pack -> advantages -> update loop.

    Returns (params, metrics rows); each row is (iteration, mean episode
    return, LOS event count, top-layer occupancy). Fully reproducible for a
    fixed seed.
    """
    params = nnet.init_params(train_config.hidden, train_config.seed)
    adam = nnet.Adam(params, lr=train_config.learning_rate)
    rng = np.random.default_rng(train_config.seed + 1)
    layers = scenario.network.layers
    metrics: list[tuple[int, float, int, float]] = []

    for it in range(train_config.iterations):
        episode = collect_rollout(scenario, params, sim_config, reward_config, rng=rng)
        batch = _pack(episode)
        if len(batch.actions):
            ppo_update(params, batch, train_config, adam, rng)
        top = altitude_histogram(episode.trace, layers)[layers.z_max] if episode.trace else 0.0
        row = (it, episode.mean_return, episode.los_count, top)
        metrics.append(row)
        if progress is not None:
            progress(row)
        if (checkpoint_dir is not None and train_config.checkpoint_interval
                and (it + 1) % train_config.checkpoint_interval == 0):
            save_checkpoint(f"{checkpoint_dir}/checkpoint_{it + 1:06d}.json",
                            params, train_config, reward_config)
    return params, metrics


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, params, train_config: TrainConfig,
                    reward_config: RewardConfig) -> None:
    """Writes both configs, the reward config with its layers, and params as
    the flat vector; train_config.hidden is the params' hidden size."""
    doc = {
        "version": 2,
        "train_config": asdict(train_config),
        "reward_config": asdict(reward_config) | {
            "layers_ft": list(reward_config.layers.levels_ft)},
        "params": params.flat.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path):
    """Returns (params, train_config, reward_config)."""
    doc = read_json(path, "checkpoint")
    try:
        return _checkpoint_from_doc(doc)
    except ValidationError as exc:
        raise ValidationError(f"bad checkpoint {path}: {exc}") from exc


def _checkpoint_from_doc(doc):
    if check_type("", doc, dict).get("version") != 2:
        raise ValidationError(f"unsupported version {doc.get('version')!r}")
    check_object("", doc, ("version", "train_config", "reward_config", "params"), closed=True)
    tc = TrainConfig(**check_object("train_config", doc["train_config"],
                                    [f.name for f in fields(TrainConfig)], closed=True))
    params = nnet.params_from_list(doc["params"], tc.hidden)
    rc_doc = dict(check_object("reward_config", doc["reward_config"],
                               [f.name for f in fields(RewardConfig)] + ["layers_ft"], closed=True))
    levels = check_type("reward_config.layers_ft", rc_doc.pop("layers_ft"), list)
    return params, tc, RewardConfig(**rc_doc, layers=AltitudeLayerSet(tuple(levels)))
