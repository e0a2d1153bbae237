"""Single-event noise regression (quadratic in log-distance), refitting from
sample points, and cumulative noise increase over zone ambient levels.

Levels are A-weighted SEL in dB; distances are slant distances in feet. The
regression coefficients, their distance domain and the cumulative offset are
fixed data of the reference vehicle, not configuration: fit_npd refits a curve
from samples for inspection, and nothing reads its result back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import FitError, ValidationError, check_number

# Offset subtracted when converting an energy sum of single events into the
# cumulative level. Treated as an opaque calibration constant.
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


# Regression coefficients (c0, c1, c2) per condition for the NASA RVLT
# quadrotor reference vehicle.
COEFFICIENTS: dict[Condition, tuple[float, float, float]] = {
    Condition.L_CENTERLINE: (88.09, 3.21, -2.62),
    Condition.L_SIDE: (78.01, 7.26, -3.39),
    Condition.D_CENTERLINE: (84.05, 8.76, -4.18),
    Condition.D_SIDE: (77.34, 11.34, -4.72),
    Condition.A_CENTERLINE: (93.35, 5.17, -2.86),
    Condition.A_SIDE: (85.55, 6.83, -3.14),
}

#: Slant-distance domain (ft) of the regression; distances are clamped to it.
Z_LO_FT, Z_HI_FT = 200.0, 20000.0


@dataclass(frozen=True)
class NoiseSample:
    """One measured point on a noise-power-distance curve."""

    distance_ft: float
    level_db: float

    def __post_init__(self):
        check_number("distance_ft", self.distance_ft, 0, above=True)
        check_number("level_db", self.level_db)


def single_event_level(condition: Condition, slant_distance_ft: float) -> float:
    """A-weighted SEL at a slant distance; distance clamped to [Z_LO_FT, Z_HI_FT].

    Clamping (rather than extrapolating) prevents the quadratic's unphysical
    rise below the fitted range.
    """
    if slant_distance_ft <= 0:
        raise ValidationError(f"slant distance must be positive, got {slant_distance_ft}")
    z = min(max(slant_distance_ft, Z_LO_FT), Z_HI_FT)
    c0, c1, c2 = COEFFICIENTS[condition]
    lz = math.log10(z)
    return c0 + c1 * lz + c2 * lz * lz


def fit_npd(samples: list[NoiseSample]) -> tuple[float, float, float, float]:
    """Ordinary least squares on the basis {1, log10 z, (log10 z)^2}.

    Returns (c0, c1, c2, rms_residual).
    """
    if len({s.distance_ft for s in samples}) < 3:
        raise FitError("fit requires samples at 3 or more distinct distance_ft values")
    lz = np.log10([s.distance_ft for s in samples])
    design = np.column_stack([np.ones_like(lz), lz, lz * lz])
    levels = np.array([s.level_db for s in samples])
    with np.errstate(over="ignore", invalid="ignore"):  # huge levels overflow: see below
        coef, *_ = np.linalg.lstsq(design, levels, rcond=None)
        resid = design @ coef - levels
        fit = np.append(coef, np.sqrt(np.mean(resid * resid)))
    if not np.isfinite(fit).all():
        raise FitError(f"fit of these level_db values overflows: {tuple(fit.tolist())}")
    return tuple(fit.tolist())


def cumulative_increase(levels_db: list[float], ambient_db: float) -> float:
    """Cumulative noise increase over ambient from a set of single-event levels.

    Empty input returns NO_CONTRIBUTION (-inf). Inputs are summed in
    descending order so the result is bit-exact under permutation.
    """
    if not levels_db:
        return NO_CONTRIBUTION
    energy = 0.0
    for level in sorted(levels_db, reverse=True):
        energy += 10.0 ** (level / 10.0)
    return 10.0 * math.log10(energy) - CUMULATIVE_OFFSET_DB - ambient_db


def zone_noise_report(zone_ambients: dict[str, float],
                      aircraft: list[tuple[str, float]]) -> dict[str, float]:
    """Per-zone cumulative increase for (zone id, slant distance ft) entries,
    on the Mode L centerline curve.

    The curve is fixed because a trace does not record the condition of the
    reward that produced it, so a report recomputed from the trace must read
    every run off the same curve. Zones with no aircraft map to
    NO_CONTRIBUTION.
    """
    per_zone: dict[str, list[float]] = {zid: [] for zid in zone_ambients}
    for zid, dist in aircraft:
        if zid not in per_zone:
            raise ValidationError(f"unknown noise zone '{zid}'")
        per_zone[zid].append(single_event_level(Condition.L_CENTERLINE, dist))
    return {
        zid: cumulative_increase(levels, zone_ambients[zid])
        for zid, levels in per_zone.items()
    }
