"""Observations of a decision tick's agents, and the blended reward.

The noise term pays for flying high (0 at the top layer, -1 at the bottom);
the separation term penalizes same-altitude traffic among route-related
neighbors. A single tradeoff weight rho blends the two.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass
from itertools import chain

import numpy as np

from .errors import SimulationError, ValidationError, check_number
from .network import AltitudeLayerSet
from .noise import Z_HI_FT, Z_LO_FT, Condition, single_event_level
from .sim import FT_TO_M, Action, AircraftState, Phase, World

#: Nearest intruders kept in an observation; bounds compute and input size.
N_MAX_INTRUDERS = 10

# Layout of the arrays observe_tick returns and the network reads. Altitudes are
# normalized over the layer span: z_min maps to 0, z_max to 1.
OWN_DIM = 6  # z, b_changing (0 or 1), z_target, one-hot last action
# One row per intruder, ascending by d_o: z_rel (signed altitude difference
# over the span), d_o (3-D distance over d_comm), one-hot last action.
INTRUDER_DIM = 5
# The columns of observe_tick's state (z, z_target, b_changing, last action)
# that own's entries are read from, the last action once per one-hot column,
# and the wire values of those columns.
_OWN_COLUMNS = np.array([0, 2, 1, 3, 3, 3])
_ACTIONS = np.array([float(a) for a in Action])


@dataclass
class RewardConfig:
    """Reward weights and ranges; the altitude bounds are those of layers, and
    the noise curve is the Mode L centerline one that zone reports read."""

    rho: float = 0.5
    lam: float = 0.1
    d_los_m: float = 150.0
    d_comm_m: float = 2500.0
    layers: InitVar[AltitudeLayerSet] = AltitudeLayerSet()

    def __post_init__(self, layers):
        check_number("RewardConfig.rho", self.rho, 0, 1)
        check_number("RewardConfig.lam", self.lam, 0)
        for name in ("d_los_m", "d_comm_m"):
            check_number(f"RewardConfig.{name}", getattr(self, name), 0, above=True)
        self.layers = layers
        # Loudest/quietest single-event levels over the layer range, cached.
        self.n_max_noise = single_event_level(Condition.L_CENTERLINE, layers.z_min)
        self.n_min_noise = single_event_level(Condition.L_CENTERLINE, layers.z_max)
        self._noise_by_z: dict[float, float] = {}  # reward_noise's values, by altitude
        if not self.n_max_noise > self.n_min_noise:
            raise ValidationError(f"noise level must decrease from z_min to z_max, but the noise "
                                  f"curve clamps slant distance to [{Z_LO_FT:g}, {Z_HI_FT:g}] ft, "
                                  f"so layers_ft {list(layers.levels_ft)} give one level")

    @property
    def span_ft(self) -> float:
        return self.layers.z_max - self.layers.z_min

    @classmethod
    def for_layers(cls, layers: AltitudeLayerSet, rho: float, **kw) -> "RewardConfig":
        return cls(rho=rho, layers=layers, **kw)


def observe_tick(world: World, config: RewardConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(own, intr, intr_mask) of every enroute aircraft, row b belonging to
    world.enroute()[b]: own (B, OWN_DIM); intr (B, K, INTRUDER_DIM), row b
    holding aircraft b's nearest route-related intruders within planar d_comm
    (at most N_MAX_INTRUDERS) in the layout above, ascending by 3-D distance
    (the rule of the sim module), equal distances in scenario-flight order,
    zero-padded to K = max(1, largest count); intr_mask (B, K) marks the
    filled rows. One World.neighbors query serves every row; the altitudes
    and actions come from the records, and no position is read."""
    row, other, dist = world.neighbors(N_MAX_INTRUDERS)
    acs = world.enroute()
    state = np.fromiter(chain.from_iterable((a.z_ft, a.z_target_ft, a.b_changing, a.last_action)
                                            for a in acs), float, 4 * len(acs)).reshape(-1, 4)
    z, last = state[:, 0], state[:, 3]
    own = state.take(_OWN_COLUMNS, axis=1)  # then normalized in place
    own[:, 0:3:2] -= config.layers.z_min
    own[:, 0:3:2] /= config.span_ft
    np.equal(own[:, 3:], _ACTIONS, out=own[:, 3:])
    counts = np.bincount(row, minlength=len(acs))
    intr_mask = np.arange(max(1, counts.max(initial=0))) < counts[:, None]
    found = np.empty((len(row), INTRUDER_DIM))
    np.subtract(z[other], z[row], out=found[:, 0])
    found[:, 0] /= config.span_ft
    np.divide(dist, config.d_comm_m, out=found[:, 1])
    np.equal(last[other, None], _ACTIONS, out=found[:, 2:])
    intr = np.zeros((*intr_mask.shape, INTRUDER_DIM))
    intr[intr_mask] = found  # row-major: each row's intruders nearest first
    return own, intr, intr_mask


def reward_noise(z_ft: float, config: RewardConfig) -> float:
    """Normalized single-event noise penalty in [-1, 0]; 0 at the top layer.

    The underlying normalized-noise formula is a positive quantity describing
    a cost; it is negated here so that a reward-maximizing agent minimizes
    noise impact. Memoized per altitude on the config, as n_max_noise is.
    """
    if not config.layers.z_min <= z_ft <= config.layers.z_max:
        raise ValidationError(f"altitude {z_ft} ft outside layer bounds")
    if (r := config._noise_by_z.get(z_ft)) is None:
        n = single_event_level(Condition.L_CENTERLINE, z_ft)
        r = config._noise_by_z[z_ft] = (
            -(n - config.n_min_noise) / (config.n_max_noise - config.n_min_noise))
    return r


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


def tick_rewards(acted: list[AircraftState], config: RewardConfig, observed) -> np.ndarray:
    """Blended reward of each aircraft of acted at the world's current state,
    aligned with acted; arrived aircraft see an empty intruder set. observed is
    (enroute, intr, intr_mask): this state's world.enroute() and its
    observe_tick rows, matched to acted by flight index. It must cover every
    aircraft of acted that has not arrived, or SimulationError names the first
    that it misses."""
    enroute, intr, intr_mask = observed
    r_sep = dict(zip([ac.flight_index for ac in enroute],
                     separation_rewards(intr, intr_mask, config).tolist()))
    for ac in acted:
        if ac.flight_index not in r_sep and ac.phase is not Phase.ARRIVED:
            raise SimulationError(f"aircraft '{ac.id}' has not arrived and is not observed")
    return reward_total(np.array([reward_noise(ac.z_ft, config) for ac in acted]),
                        np.array([r_sep.get(ac.flight_index, 0.0) for ac in acted]), config.rho)
