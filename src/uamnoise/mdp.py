"""Per-agent observations, the action alphabet, and the blended reward.

The noise term pays for flying high (0 at the top layer, -1 at the bottom);
the separation term penalizes same-altitude traffic among route-related
neighbors. A single tradeoff weight rho blends the two.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .network import AltitudeLayerSet
from .noise import Condition, NpdModel, single_event_level
from .sim import FT_TO_M, Action, AircraftState, World

#: Nearest intruders kept in an observation; bounds compute and input size.
N_MAX_INTRUDERS = 10

OWN_DIM = 6  # z, b_changing, z_target, one-hot last action
INTRUDER_DIM = 5  # z_rel, d_o, one-hot last action


@dataclass(frozen=True)
class OwnObservation:
    z: float  # normalized to [0, 1] over the layer span
    b_changing: float  # 0 or 1
    z_target: float  # same normalization as z
    last_action: Action


@dataclass(frozen=True)
class IntruderObservation:
    z_rel: float  # signed, normalized by layer span
    d_o: float  # 3-D distance normalized by d_comm, in [0, 1]
    last_action: Action


@dataclass(frozen=True)
class Observation:
    own: OwnObservation
    intruders: tuple[IntruderObservation, ...]  # ascending by d_o, capped


@dataclass
class RewardConfig:
    rho: float = 0.5
    lam: float = 0.1
    d_los_m: float = 150.0
    d_comm_m: float = 2500.0
    z_min_ft: float = 1000.0
    z_max_ft: float = 3000.0
    condition: Condition = Condition.L_CENTERLINE
    npd: NpdModel = field(default_factory=NpdModel)

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must be in [0, 1], got {self.rho}")
        if self.z_min_ft >= self.z_max_ft:
            raise ValidationError("z_min_ft must be below z_max_ft")
        # Loudest/quietest single-event levels over the layer range, cached.
        self.n_max_noise = single_event_level(self.npd, self.condition, self.z_min_ft)
        self.n_min_noise = single_event_level(self.npd, self.condition, self.z_max_ft)
        if not self.n_max_noise > self.n_min_noise:
            raise ValidationError("noise level must decrease from z_min to z_max")

    @property
    def span_ft(self) -> float:
        return self.z_max_ft - self.z_min_ft

    @classmethod
    def for_layers(cls, layers: AltitudeLayerSet, rho: float, **kw) -> "RewardConfig":
        return cls(rho=rho, z_min_ft=layers.z_min, z_max_ft=layers.z_max, **kw)


def observe(world: World, ac_id: str, config: RewardConfig) -> Observation:
    """Own state plus the nearest route-related in-range intruders, normalized."""
    ac = world.aircraft[ac_id]
    span = config.span_ft
    own = OwnObservation(
        z=(ac.z_ft - config.z_min_ft) / span,
        b_changing=1.0 if ac.b_changing else 0.0,
        z_target=(ac.z_target_ft - config.z_min_ft) / span,
        last_action=ac.last_action,
    )
    intruders = []
    for other in world.neighbors(ac_id)[:N_MAX_INTRUDERS]:
        intruders.append(IntruderObservation(
            z_rel=(other.z_ft - ac.z_ft) / span,
            d_o=world.distance_3d_m(ac, other) / config.d_comm_m,
            last_action=other.last_action,
        ))
    return Observation(own, tuple(intruders))


def reward_noise(z_ft: float, config: RewardConfig) -> float:
    """Normalized single-event noise penalty in [-1, 0]; 0 at the top layer.

    The underlying normalized-noise formula is a positive quantity describing
    a cost; it is negated here so that a reward-maximizing agent minimizes
    noise impact.
    """
    if not config.z_min_ft <= z_ft <= config.z_max_ft:
        raise ValidationError(f"altitude {z_ft} ft outside layer bounds")
    n = single_event_level(config.npd, config.condition, z_ft)
    return -(n - config.n_min_noise) / (config.n_max_noise - config.n_min_noise)


def reward_separation(obs: Observation, config: RewardConfig) -> float:
    """-min(lam * count of vertically-close intruders, 1).

    Vertical proximity is judged in meters: with 500 ft (152.4 m) layer gaps
    and d_los = 150 m, only same-layer intruders can trigger the penalty.
    """
    count = 0
    for intr in obs.intruders:
        dz_m = abs(intr.z_rel) * config.span_ft * FT_TO_M
        if dz_m < config.d_los_m:
            count += 1
    return -min(config.lam * count, 1.0)


def reward_total(r_noise: float, r_sep: float, rho: float) -> float:
    """Affine blend of the two objectives."""
    if not 0.0 <= rho <= 1.0:
        raise ValidationError(f"rho must be in [0, 1], got {rho}")
    return rho * r_noise + (1.0 - rho) * r_sep


def agent_reward(world: World, ac: AircraftState, config: RewardConfig,
                 obs: Observation | None = None) -> float:
    """Blended reward at the aircraft's current state. Arrived aircraft see an
    empty intruder set. obs, if given, is the aircraft's observation at this
    state, reused instead of observing again."""
    rn = reward_noise(ac.z_ft, config)
    if ac.phase.value == "enroute":
        if obs is None:
            obs = observe(world, ac.id, config)
        rs = reward_separation(obs, config)
    else:
        rs = 0.0
    return reward_total(rn, rs, config.rho)


def action_mask(state: AircraftState, layers: AltitudeLayerSet) -> tuple[bool, bool, bool]:
    """(hold, descend, climb) allowed flags; hold is always allowed."""
    if state.b_changing:
        return (True, False, False)
    idx = layers.index_of(state.z_target_ft)
    return (True, idx > 0, idx < len(layers.levels_ft) - 1)


def encode_observation(obs: Observation) -> tuple[np.ndarray, np.ndarray]:
    """Observation as (own vector, intruder matrix) for the policy network."""
    own = np.zeros(OWN_DIM)
    own[0] = obs.own.z
    own[1] = obs.own.b_changing
    own[2] = obs.own.z_target
    own[3 + int(obs.own.last_action)] = 1.0
    intr = np.zeros((len(obs.intruders), INTRUDER_DIM))
    for i, it in enumerate(obs.intruders):
        intr[i, 0] = it.z_rel
        intr[i, 1] = it.d_o
        intr[i, 2 + int(it.last_action)] = 1.0
    return own, intr
