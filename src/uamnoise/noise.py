"""Single-event noise regression (quadratic in log-distance), refitting from
sample points, and cumulative noise increase over zone ambient levels.

Levels are A-weighted SEL in dB; distances are slant distances in feet.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import FitError, ValidationError

# Offset subtracted when converting an energy sum of single events into the
# cumulative level. Treated as an opaque calibration constant; override only
# via the explicit argument.
CUMULATIVE_OFFSET_DB = 35.56

#: Sentinel for "no aircraft contributed to this zone".
NO_CONTRIBUTION = float("-inf")


class Condition(Enum):
    """Operational mode x measurement position; six valid combinations."""

    L_CENTERLINE = "Mode L - Centerline"
    L_SIDE = "Mode L - Side"
    D_CENTERLINE = "Mode D - Centerline"
    D_SIDE = "Mode D - Side"
    A_CENTERLINE = "Mode A - Centerline"
    A_SIDE = "Mode A - Side"


# Built-in regression coefficients (c0, c1, c2) per condition for the NASA
# RVLT quadrotor reference vehicle.
DEFAULT_COEFFICIENTS: dict[Condition, tuple[float, float, float]] = {
    Condition.L_CENTERLINE: (88.09, 3.21, -2.62),
    Condition.L_SIDE: (78.01, 7.26, -3.39),
    Condition.D_CENTERLINE: (84.05, 8.76, -4.18),
    Condition.D_SIDE: (77.34, 11.34, -4.72),
    Condition.A_CENTERLINE: (93.35, 5.17, -2.86),
    Condition.A_SIDE: (85.55, 6.83, -3.14),
}


@dataclass(frozen=True)
class NoiseSample:
    """One measured point on a noise-power-distance curve."""

    distance_ft: float
    level_db: float

    def __post_init__(self):
        if self.distance_ft <= 0:
            raise ValidationError(f"sample distance must be positive, got {self.distance_ft}")


@dataclass(frozen=True)
class NpdModel:
    """Per-condition (c0, c1, c2) coefficients with a valid distance domain."""

    coefficients: dict[Condition, tuple[float, float, float]] = field(
        default_factory=lambda: dict(DEFAULT_COEFFICIENTS)
    )
    z_lo_ft: float = 200.0
    z_hi_ft: float = 20000.0

    def __post_init__(self):
        if not self.z_lo_ft < self.z_hi_ft:
            raise ValidationError(
                f"distance domain invalid: [{self.z_lo_ft}, {self.z_hi_ft}]"
            )


def single_event_level(model: NpdModel, condition: Condition, slant_distance_ft: float) -> float:
    """A-weighted SEL at a slant distance; distance clamped to the model domain.

    Clamping (rather than extrapolating) prevents the quadratic's unphysical
    rise below the fitted range.
    """
    if slant_distance_ft <= 0:
        raise ValidationError(f"slant distance must be positive, got {slant_distance_ft}")
    z = min(max(slant_distance_ft, model.z_lo_ft), model.z_hi_ft)
    c0, c1, c2 = model.coefficients[condition]
    lz = math.log10(z)
    return c0 + c1 * lz + c2 * lz * lz


def fit_npd(samples: list[NoiseSample]) -> tuple[float, float, float, float]:
    """Ordinary least squares on the basis {1, log10 z, (log10 z)^2}.

    Returns (c0, c1, c2, rms_residual).
    """
    if len({s.distance_ft for s in samples}) < 3:
        raise FitError("fit requires at least 3 samples at distinct distances")
    lz = np.log10([s.distance_ft for s in samples])
    design = np.column_stack([np.ones_like(lz), lz, lz * lz])
    levels = np.array([s.level_db for s in samples])
    coef, *_ = np.linalg.lstsq(design, levels, rcond=None)
    resid = design @ coef - levels
    rms = float(np.sqrt(np.mean(resid * resid)))
    return float(coef[0]), float(coef[1]), float(coef[2]), rms


def cumulative_increase(
    levels_db: list[float], ambient_db: float, offset_db: float = CUMULATIVE_OFFSET_DB
) -> float:
    """Cumulative noise increase over ambient from a set of single-event levels.

    Empty input returns NO_CONTRIBUTION (-inf). Inputs are summed in
    descending order so the result is bit-exact under permutation.
    """
    if not levels_db:
        return NO_CONTRIBUTION
    energy = 0.0
    for level in sorted(levels_db, reverse=True):
        energy += 10.0 ** (level / 10.0)
    return 10.0 * math.log10(energy) - offset_db - ambient_db


def zone_noise_report(
    zone_ambients: dict[str, float],
    aircraft: list[tuple[str, float]],
    model: NpdModel,
    condition: Condition = Condition.L_CENTERLINE,
) -> dict[str, float]:
    """Per-zone cumulative increase for (zone id, slant distance ft) entries.

    Zones with no aircraft map to NO_CONTRIBUTION.
    """
    per_zone: dict[str, list[float]] = {zid: [] for zid in zone_ambients}
    for zid, dist in aircraft:
        if zid not in per_zone:
            raise ValidationError(f"unknown noise zone '{zid}'")
        per_zone[zid].append(single_event_level(model, condition, dist))
    return {
        zid: cumulative_increase(levels, zone_ambients[zid])
        for zid, levels in per_zone.items()
    }
