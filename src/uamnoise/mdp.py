"""Per-agent observations and the blended reward.

The noise term pays for flying high (0 at the top layer, -1 at the bottom);
the separation term penalizes same-altitude traffic among route-related
neighbors. A single tradeoff weight rho blends the two.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ValidationError
from .network import AltitudeLayerSet
from .noise import Condition, single_event_level
from .sim import FT_TO_M, AircraftState, Phase, World

#: Nearest intruders kept in an observation; bounds compute and input size.
N_MAX_INTRUDERS = 10

# Layout of the arrays observe returns and the network reads. Altitudes are
# normalized over the layer span: z_min maps to 0, z_max to 1.
OWN_DIM = 6  # z, b_changing (0 or 1), z_target, one-hot last action
# One row per intruder, ascending by d_o: z_rel (signed altitude difference
# over the span), d_o (3-D distance over d_comm), one-hot last action.
INTRUDER_DIM = 5


@dataclass
class RewardConfig:
    """Reward weights and ranges; the altitude bounds are those of layers."""

    rho: float = 0.5
    lam: float = 0.1
    d_los_m: float = 150.0
    d_comm_m: float = 2500.0
    condition: Condition = Condition.L_CENTERLINE
    layers: InitVar[AltitudeLayerSet] = AltitudeLayerSet()

    def __post_init__(self, layers):
        if not 0.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must be in [0, 1], got {self.rho}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValidationError(f"RewardConfig.lam must be finite and non-negative, "
                                  f"got {self.lam}")
        for name in ("d_los_m", "d_comm_m"):
            if not (math.isfinite(value := getattr(self, name)) and value > 0):
                raise ValidationError(f"RewardConfig.{name} must be finite and positive, "
                                      f"got {value}")
        self.layers = layers
        # Loudest/quietest single-event levels over the layer range, cached.
        self.n_max_noise = single_event_level(self.condition, layers.z_min)
        self.n_min_noise = single_event_level(self.condition, layers.z_max)
        if not self.n_max_noise > self.n_min_noise:
            raise ValidationError("noise level must decrease from z_min to z_max")

    @property
    def span_ft(self) -> float:
        return self.layers.z_max - self.layers.z_min

    @classmethod
    def for_layers(cls, layers: AltitudeLayerSet, rho: float, **kw) -> "RewardConfig":
        return cls(rho=rho, layers=layers, **kw)


def observe(world: World, ac_id: str, config: RewardConfig) -> tuple[np.ndarray, np.ndarray]:
    """(own, intr): the aircraft's own vector, shape (OWN_DIM,), and one row
    per nearest route-related in-range intruder, shape (n <= N_MAX_INTRUDERS,
    INTRUDER_DIM), in the layout above."""
    ac = world.aircraft[ac_id]
    z_min, span = config.layers.z_min, config.span_ft
    own = np.zeros(OWN_DIM)
    own[0] = (ac.z_ft - z_min) / span
    own[1] = 1.0 if ac.b_changing else 0.0
    own[2] = (ac.z_target_ft - z_min) / span
    own[3 + int(ac.last_action)] = 1.0
    nearest = world.neighbors(ac_id)[:N_MAX_INTRUDERS]
    intr = np.zeros((len(nearest), INTRUDER_DIM))
    for row, (distance_m, other) in zip(intr, nearest):
        row[0] = (other.z_ft - ac.z_ft) / span
        row[1] = distance_m / config.d_comm_m
        row[2 + int(other.last_action)] = 1.0
    return own, intr


def reward_noise(z_ft: float, config: RewardConfig) -> float:
    """Normalized single-event noise penalty in [-1, 0]; 0 at the top layer.

    The underlying normalized-noise formula is a positive quantity describing
    a cost; it is negated here so that a reward-maximizing agent minimizes
    noise impact.
    """
    if not config.layers.z_min <= z_ft <= config.layers.z_max:
        raise ValidationError(f"altitude {z_ft} ft outside layer bounds")
    n = single_event_level(config.condition, z_ft)
    return -(n - config.n_min_noise) / (config.n_max_noise - config.n_min_noise)


def reward_separation(intr: np.ndarray, config: RewardConfig) -> float:
    """-min(lam * count of vertically-close intruders, 1), over the rows of
    an intruder matrix as observe returns it.

    Vertical proximity is judged in meters: with 500 ft (152.4 m) layer gaps
    and d_los = 150 m, only same-layer intruders can trigger the penalty.
    """
    span, d_los = config.span_ft, config.d_los_m
    count = 0
    for z_rel in intr[:, 0].tolist():
        if abs(z_rel) * span * FT_TO_M < d_los:
            count += 1
    return -min(config.lam * count, 1.0)


def reward_total(r_noise: float, r_sep: float, rho: float) -> float:
    """Affine blend of the two objectives."""
    if not 0.0 <= rho <= 1.0:
        raise ValidationError(f"rho must be in [0, 1], got {rho}")
    return rho * r_noise + (1.0 - rho) * r_sep


def agent_reward(world: World, ac: AircraftState, config: RewardConfig,
                 intr: np.ndarray | None = None) -> float:
    """Blended reward at the aircraft's current state. Arrived aircraft see an
    empty intruder set. intr, if given, is the intruder matrix of the
    aircraft's observation at this state, reused instead of observing again."""
    rn = reward_noise(ac.z_ft, config)
    if ac.phase is Phase.ENROUTE:
        if intr is None:
            intr = observe(world, ac.id, config)[1]
        rs = reward_separation(intr, config)
    else:
        rs = 0.0
    return reward_total(rn, rs, config.rho)
