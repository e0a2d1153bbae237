"""Observations of a decision tick's agents, and the blended reward.

The noise term pays for flying high (0 at the top layer, -1 at the bottom);
the separation term penalizes same-altitude traffic among route-related
neighbors. A single tradeoff weight rho blends the two.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import SimulationError, ValidationError, check_number
from .network import AltitudeLayerSet
from .noise import Condition, single_event_level
from .sim import FT_TO_M, Phase, World

#: Nearest intruders kept in an observation; bounds compute and input size.
N_MAX_INTRUDERS = 10

# Layout of the arrays observe_tick returns and the network reads. Altitudes are
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
        check_number("RewardConfig.rho", self.rho, 0, 1)
        check_number("RewardConfig.lam", self.lam, 0)
        for name in ("d_los_m", "d_comm_m"):
            check_number(f"RewardConfig.{name}", getattr(self, name), 0, above=True)
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


def observe_tick(world: World, ids: list[str],
                 config: RewardConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(own, intr, intr_mask) of the enroute aircraft ids at one world state:
    own (B, OWN_DIM); intr (B, K, INTRUDER_DIM), row b holding aircraft b's
    nearest route-related in-range intruders (at most N_MAX_INTRUDERS) in
    the layout above, zero-padded to K = max(1, largest count); intr_mask
    (B, K) marks the filled rows. The neighbour table is read once."""
    table = world.neighbor_table()
    try:
        nearest = [table[i][:N_MAX_INTRUDERS] for i in ids]
    except KeyError as exc:
        raise SimulationError(f"aircraft {exc} is not enroute") from None
    acs = [world.aircraft[i] for i in ids]
    z_min, span = config.layers.z_min, config.span_ft
    b = len(acs)
    z = np.array([ac.z_ft for ac in acs], dtype=float)
    own = np.zeros((b, OWN_DIM))
    own[:, 0] = (z - z_min) / span
    own[:, 1] = [ac.b_changing for ac in acs]
    own[:, 2] = (np.array([ac.z_target_ft for ac in acs], dtype=float) - z_min) / span
    own[np.arange(b), 3 + np.array([int(ac.last_action) for ac in acs], dtype=int)] = 1.0
    counts = np.array([len(found) for found in nearest], dtype=int)
    k = max(1, counts.max(initial=0))
    intr_mask = np.arange(k) < counts[:, None]
    intr = np.zeros((b, k, INTRUDER_DIM))
    rows, cols = np.nonzero(intr_mask)  # row-major, as nearest is flattened below
    flat = [rec for found in nearest for rec in found]
    intr[rows, cols, 0] = (np.array([o.z_ft for _, o in flat], dtype=float) - z[rows]) / span
    intr[rows, cols, 1] = np.array([d for d, _ in flat], dtype=float) / config.d_comm_m
    intr[rows, cols, 2 + np.array([int(o.last_action) for _, o in flat], dtype=int)] = 1.0
    return own, intr, intr_mask


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


def separation_rewards(intr: np.ndarray, intr_mask: np.ndarray,
                       config: RewardConfig) -> np.ndarray:
    """-min(lam * count of vertically-close intruders, 1) per row of a padded
    intruder batch, as observe_tick returns it.

    Vertical proximity is judged in meters: with 500 ft (152.4 m) layer gaps
    and d_los = 150 m, only same-layer intruders can trigger the penalty.
    """
    close = (np.abs(intr[..., 0]) * config.span_ft * FT_TO_M < config.d_los_m) & intr_mask
    return -np.minimum(config.lam * close.sum(axis=1), 1.0)


def reward_total(r_noise, r_sep, rho: float):
    """Affine blend of the two objectives, of numbers or elementwise."""
    return rho * r_noise + (1.0 - rho) * r_sep


def tick_rewards(world: World, ids: list[str], config: RewardConfig,
                 observed) -> np.ndarray:
    """Blended reward of each aircraft of ids at the world's current state,
    aligned with ids; arrived aircraft see an empty intruder set. observed is
    (enroute ids, intr, intr_mask) from this state's observe_tick, and must
    cover every aircraft of ids that has not arrived, or SimulationError names
    the first that it misses. The noise term is evaluated once per distinct
    altitude."""
    enroute, intr, intr_mask = observed
    r_sep = dict(zip(enroute, separation_rewards(intr, intr_mask, config).tolist()))
    for i in ids:
        if i not in r_sep and world.aircraft[i].phase is not Phase.ARRIVED:
            raise SimulationError(f"aircraft '{i}' has not arrived and is not observed")
    z_ft = [world.aircraft[i].z_ft for i in ids]
    r_noise = {z: reward_noise(z, config) for z in set(z_ft)}
    return reward_total(np.array([r_noise[z] for z in z_ft]),
                        np.array([r_sep.get(i, 0.0) for i in ids]), config.rho)
