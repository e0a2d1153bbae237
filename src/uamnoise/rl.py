"""Rollout collection, generalized advantage estimation, PPO updates, and the
training loop.

One shared policy acts for every aircraft (centralized learning, decentralized
execution). One training iteration = one full-episode rollout followed by one
PPO update over the collected batch.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from itertools import accumulate

import numpy as np

from . import nnet
from .errors import ValidationError
from .mdp import OWN_DIM, RewardConfig, agent_reward, observe
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
        if not 0.0 <= self.gamma <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise ValidationError("gamma and gae_lambda must lie in [0, 1]")
        for name in ("entropy_coef", "value_coef"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValidationError(f"TrainConfig.{name} must be finite, got {value}")
        for name in ("clip_eps", "learning_rate"):
            if not (math.isfinite(value := getattr(self, name)) and value > 0):
                raise ValidationError(f"TrainConfig.{name} must be finite and positive, "
                                      f"got {value}")
        for name in ("hidden", "epochs", "minibatch_size"):
            if getattr(self, name) < 1:
                raise ValidationError(f"TrainConfig.{name} must be at least 1")
        for name in ("iterations", "checkpoint_interval"):
            if getattr(self, name) < 0:
                raise ValidationError(f"TrainConfig.{name} must not be negative")


@dataclass
class TraceRow:
    t: float
    id: str
    x_m: float
    y_m: float
    z_ft: float
    action: Action
    b_changing: bool


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


def attribute_layers(trace: list[TraceRow], layers: AltitudeLayerSet) -> list[float]:
    """Layer attributed to each trace row; mid-transition rows go to the layer
    the aircraft departed (its last level layer)."""
    levels = set(layers.levels_ft)
    last_level: dict[str, float] = {}
    out = []
    for row in sorted(trace, key=lambda r: (r.t, r.id)):
        if row.z_ft in levels:
            last_level[row.id] = row.z_ft
            out.append(row.z_ft)
        else:
            out.append(last_level.get(row.id, layers.z_min))
    return out


def collect_rollout(
    scenario: Scenario,
    params: dict | None,
    sim_config: SimConfig,
    reward_config: RewardConfig,
    rng: np.random.Generator | None = None,
    greedy: bool = False,
) -> RolloutResult:
    """Run one full episode with every enroute aircraft acting from the shared
    params. params=None means the hold-only baseline. greedy (or baseline)
    episodes take argmax actions; otherwise actions are sampled from rng.

    Each decision appends (own, intr, act_mask, action, logp, value) to its
    agent's steps. The reward closing it comes at the agent's next tick, from
    the observation the policy reads there, or afresh once the agent arrived
    or the episode ended. The policy runs as one batched nnet.forward over the
    tick's agents, and actions are then sampled per agent in enroute order.
    """
    world = World(scenario, sim_config)
    layers = scenario.network.layers
    steps: dict[str, list[tuple]] = {fl.id: [] for fl in scenario.flights}
    rewards: dict[str, list[float]] = {fl.id: [] for fl in scenario.flights}
    acted: list[str] = []  # the agents of the last decision tick
    trace: list[TraceRow] = []

    def close(ac_id: str, intr=None) -> None:
        rewards[ac_id].append(agent_reward(world, world.aircraft[ac_id], reward_config, intr))

    while not world.terminal:
        joint: dict[str, Action] = {}
        if world.is_decision_tick():
            world.spawn_due_aircraft()
            enroute = world.enroute_ids()
            obs = {i: observe(world, i, reward_config) for i in enroute}
            for ac_id in acted:
                close(ac_id, obs[ac_id][1] if ac_id in obs else None)
            acted = enroute
            if enroute:
                owns, intrs = zip(*obs.values())
                masks = np.array([action_mask(world.aircraft[i], layers) for i in enroute])
                if params is not None:
                    intr, intr_mask = nnet.pad_intruders(intrs)
                    probs, values = nnet.policy_batch(
                        params, np.stack(owns), intr, intr_mask, masks)
                else:
                    probs = np.tile([1.0, 0.0, 0.0], (len(enroute), 1))
                    values = np.zeros(len(enroute))
                sample_rng = None if (greedy or params is None) else rng
                for j, (ac_id, own_vec, intr_mat) in enumerate(zip(enroute, owns, intrs)):
                    action, logp = nnet.sample_action(probs[j], sample_rng)
                    joint[ac_id] = Action(action)
                    steps[ac_id].append((own_vec, intr_mat, masks[j], action, logp,
                                         float(values[j])))
                    ac = world.aircraft[ac_id]
                    trace.append(TraceRow(world.t, ac_id, ac.x_m, ac.y_m, ac.z_ft,
                                          Action(action), ac.b_changing))
        world.step(joint)
    for ac_id in acted:
        close(ac_id)
    return _pack(steps, rewards, trace, world)


def _pack(steps, rewards, trace, world) -> RolloutResult:
    """Stack the agents' records, in flight order, into the batch columns."""
    ids = [i for i, recs in steps.items() if recs]
    ends = list(accumulate(len(steps[i]) for i in ids))
    agent_slices = {i: slice(end - len(steps[i]), end) for i, end in zip(ids, ends)}
    rows = [rec for i in ids for rec in steps[i]]
    b = len(rows)
    own, intrs, act_mask, actions, logp, values = zip(*rows) if rows else [()] * 6
    intr, intr_mask = nnet.pad_intruders(intrs)
    r = np.array([x for i in ids for x in rewards[i]], dtype=float)
    mean_return = (sum(float(r[sl].sum()) for sl in agent_slices.values()) / len(ids)
                   if ids else 0.0)
    return RolloutResult(np.array(own, dtype=float).reshape(b, OWN_DIM), intr, intr_mask,
                         np.array(act_mask, dtype=bool).reshape(b, 3),
                         np.array(actions, dtype=int), np.array(logp, dtype=float), r,
                         np.array(values, dtype=float), agent_slices, trace,
                         len(world.los_events), mean_return)


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
        attributed = attribute_layers(batch.trace, layers)
        top = attributed.count(layers.z_max) / len(attributed) if attributed else 0.0
        row = (it, batch.mean_return, batch.los_count, top)
        metrics.append(row)
        if progress is not None:
            progress(row)
        if (checkpoint_dir is not None and train_config.checkpoint_interval
                and (it + 1) % train_config.checkpoint_interval == 0):
            save_checkpoint(f"{checkpoint_dir}/checkpoint_{it + 1:06d}.json",
                            params, train_config, reward_config, layers)
    return params, metrics


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(path, params, train_config: TrainConfig,
                    reward_config: RewardConfig, layers) -> None:
    doc = {
        "version": 1,
        "hidden": params.hidden,
        "layers_ft": list(layers.levels_ft),
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
    """Returns (params, train_config, reward_config, layers_ft)."""
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
    tc = TrainConfig(**_known_fields(TrainConfig, _section(doc, "train_config"), "train_config"))
    if doc["hidden"] != tc.hidden:
        raise ValidationError(f"hidden {doc['hidden']!r} differs from "
                              f"train_config.hidden {tc.hidden}")
    params = nnet.params_from_doc(_section(doc, "params"), tc.hidden)
    levels = doc["layers_ft"]
    if not isinstance(levels, list) or not all(map(_is_number, levels)):
        raise ValidationError(f"layers_ft must be a list of numbers, got {levels!r}")
    layers = AltitudeLayerSet(tuple(levels))
    rc_doc = {k: v for k, v in _section(doc, "reward_config").items()
              if k not in ("z_min_ft", "z_max_ft")}  # bounds of layers_ft
    rc_doc = _known_fields(RewardConfig, rc_doc, "reward_config")
    try:
        rc_doc["condition"] = Condition(rc_doc.get("condition"))
    except ValueError as exc:
        raise ValidationError(f"reward_config: {exc}") from exc
    rc = RewardConfig(**rc_doc, layers=layers)
    return params, tc, rc, layers.levels_ft


def _section(doc: dict, name: str) -> dict:
    if not isinstance(doc[name], dict):
        raise ValidationError(f"{name} must be a JSON object, got {doc[name]!r}")
    return doc[name]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _known_fields(cls, section: dict, name: str) -> dict:
    """The section, once every key is a field of cls and every value of a
    numeric field has the field's type (an int is also a float)."""
    unknown = sorted(set(section) - {f.name for f in fields(cls)})
    if unknown:
        raise ValidationError(f"unknown {name} field(s) {', '.join(unknown)}")
    for f in fields(cls):
        kind = type(f.default)
        if f.name in section and kind in (int, float):
            value = section[f.name]
            if not _is_number(value) or (kind is int and not isinstance(value, int)):
                noun = "an integer" if kind is int else "a number"
                raise ValidationError(f"{name}.{f.name} must be {noun}, got {value!r}")
    return section
