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
from .errors import ValidationError, check_number
from .mdp import INTRUDER_DIM, OWN_DIM, RewardConfig, observe_tick, tick_rewards
from .network import AltitudeLayerSet, Scenario
from .noise import Condition
from .sim import Action, SimConfig, World, action_mask


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


@dataclass
class TraceRow:
    t: float
    id: str
    x_m: float
    y_m: float
    z_ft: float
    action: Action
    b_changing: bool
    member: str  # World.member_of: the link or vertiport the row counts for


@dataclass
class RolloutResult:
    """Per-agent transition arrays plus episode bookkeeping. Agent id's
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
    trace: list[TraceRow]
    los_count: int
    mean_return: float       # mean over the agents that acted; 0 with none


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


def collect_rollout(
    scenario: Scenario,
    params: dict | None,
    sim_config: SimConfig,
    reward_config: RewardConfig,
    rng: np.random.Generator | None = None,
) -> RolloutResult:
    """Run one full episode with every enroute aircraft acting from the shared
    params. params=None means the hold-only baseline. Actions are sampled
    from rng, or are the argmax without one (nnet.sample_actions).

    Each decision tick is one set of array operations over its enroute
    agents: one observe_tick, one batched policy pass, one sample_actions
    and one stored block; then each agent's trace row and its command. The
    rewards that close a block come at the next tick, as an array aligned
    with the block's rows, from the observe_tick that tick makes; at episode
    end, from one last observe_tick of the enroute aircraft, which closes the
    last block the same way.
    """
    world = World(scenario, sim_config)
    layers = scenario.network.layers
    members = tuple(Action)  # indexed by a sampled action's wire integer
    blocks: list[_Block] = []
    rewards: list[np.ndarray] = []  # rewards[i] closes blocks[i]
    acted: list[str] = []  # the agents of the last block
    trace: list[TraceRow] = []

    while not world.terminal:
        if world.is_decision_tick():
            world.spawn_due_aircraft()
            enroute = world.enroute_ids()
            own, intr, intr_mask = observe_tick(world, enroute, reward_config)
            if acted:
                rewards.append(tick_rewards(world, acted, reward_config,
                                            (enroute, intr, intr_mask)))
            acted = enroute
            if enroute:
                acs = [world.aircraft[i] for i in enroute]
                masks = np.array([action_mask(ac, layers) for ac in acs])
                if params is not None:
                    probs, values = nnet.policy_batch(params, own, intr, intr_mask, masks)
                else:
                    probs = np.tile([1.0, 0.0, 0.0], (len(enroute), 1))
                    values = np.zeros(len(enroute))
                actions, logp = nnet.sample_actions(probs, rng)
                blocks.append(_Block(np.array([ac.flight_index for ac in acs]), own,
                                     intr, intr_mask, masks, actions, logp, values))
                t, member_of, command = world.t, world.member_of, world.apply_altitude_command
                for ac, action in zip(acs, map(members.__getitem__, actions.tolist())):
                    trace.append(TraceRow(t, ac.id, ac.x_m, ac.y_m, ac.z_ft,
                                          action, ac.b_changing, member_of(ac)))
                    command(ac, action)
        world.step()
    if acted:
        enroute = world.enroute_ids()
        _, intr, intr_mask = observe_tick(world, enroute, reward_config)
        rewards.append(tick_rewards(world, acted, reward_config, (enroute, intr, intr_mask)))
    return _pack(blocks, rewards, trace, world)


def _pack(blocks: list[_Block], rewards: list[np.ndarray], trace, world) -> RolloutResult:
    """Concatenate the tick blocks, intruders zero-padded to the batch's K,
    and reorder the rows agent-major (agents in flight order, each agent's
    rows in time order) with one stable sort on flight index. Each block's
    intruders are written straight to their batch rows."""
    empty = _Block(np.zeros(0, dtype=int), np.zeros((0, OWN_DIM)), np.zeros((0, 1, INTRUDER_DIM)),
                   np.zeros((0, 1), dtype=bool), np.zeros((0, 3), dtype=bool),
                   np.zeros(0, dtype=int), np.zeros(0), np.zeros(0))
    blocks = [empty, *blocks]

    def column(name):
        return np.concatenate([getattr(blk, name) for blk in blocks])

    flight = column("flight")
    order = np.argsort(flight, kind="stable")
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
    r = np.concatenate([np.zeros(0), *rewards])[order]
    counts = np.bincount(flight, minlength=len(world.scenario.flights)).tolist()
    ends = np.cumsum(counts).tolist()
    agent_slices = {fl.id: slice(end - n, end)
                    for fl, n, end in zip(world.scenario.flights, counts, ends) if n}
    mean_return = (sum(float(r[sl].sum()) for sl in agent_slices.values()) / len(agent_slices)
                   if agent_slices else 0.0)
    return RolloutResult(column("own")[order], intr, intr_mask, column("act_mask")[order],
                         column("actions")[order], column("old_logp")[order], r,
                         column("values")[order], agent_slices, trace, len(world.los_events),
                         mean_return)


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
    """collect -> advantages -> update loop.

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
        batch = collect_rollout(scenario, params, sim_config, reward_config, rng=rng)
        if len(batch.actions):
            ppo_update(params, batch, train_config, adam, rng)
        top = altitude_histogram(batch.trace, layers)[layers.z_max] if batch.trace else 0.0
        row = (it, batch.mean_return, batch.los_count, top)
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
    """Writes params and both configs; the layers are reward_config's."""
    doc = {
        "version": 1,
        "hidden": params.hidden,
        "layers_ft": list(reward_config.layers.levels_ft),
        "train_config": asdict(train_config),
        "reward_config": {
            "rho": reward_config.rho, "lam": reward_config.lam,
            "d_los_m": reward_config.d_los_m, "d_comm_m": reward_config.d_comm_m,
            "z_min_ft": reward_config.layers.z_min, "z_max_ft": reward_config.layers.z_max,
            "condition": reward_config.condition.value,
        },
        "params": nnet.params_to_doc(params),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_checkpoint(path):
    """Returns (params, train_config, reward_config)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        return _checkpoint_from_doc(doc)
    except ValidationError as exc:
        raise ValidationError(f"bad checkpoint {path}: {exc}") from exc


def _checkpoint_from_doc(doc):
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object, got {type(doc).__name__}")
    if doc.get("version") != 1:
        raise ValidationError(f"unsupported version {doc.get('version')!r}")
    missing = [k for k in ("hidden", "layers_ft", "train_config", "reward_config", "params")
               if k not in doc]
    if missing:
        raise ValidationError(f"missing section(s) {', '.join(missing)}")
    tc = TrainConfig(**_section(doc, "train_config", TrainConfig))
    if doc["hidden"] != tc.hidden:
        raise ValidationError(f"hidden {doc['hidden']!r} differs from "
                              f"train_config.hidden {tc.hidden}")
    params = nnet.params_from_doc(_section(doc, "params"), tc.hidden)
    levels = doc["layers_ft"]
    if not isinstance(levels, list):
        raise ValidationError(f"layers_ft must be a list, got {levels!r}")
    layers = AltitudeLayerSet(tuple(levels))
    rc_doc = _section(doc, "reward_config", RewardConfig,
                      derived=("z_min_ft", "z_max_ft"))  # bounds of layers_ft
    try:
        rc_doc["condition"] = Condition(rc_doc.get("condition"))
    except ValueError as exc:
        raise ValidationError(f"reward_config: {exc}") from exc
    return params, tc, RewardConfig(**rc_doc, layers=layers)


def _section(doc: dict, name: str, cls=None, derived=()) -> dict:
    """doc[name], a JSON object, less its derived keys; with cls, every other
    key must be a field of cls, which checks the values."""
    if not isinstance(doc[name], dict):
        raise ValidationError(f"{name} must be a JSON object, got {doc[name]!r}")
    section = {k: v for k, v in doc[name].items() if k not in derived}
    unknown = sorted(set(section) - {f.name for f in fields(cls)}) if cls else []
    if unknown:
        raise ValidationError(f"unknown {name} field(s) {', '.join(unknown)}")
    return section
