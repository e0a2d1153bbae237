"""Discrete-time kinematic world over the corridor network.

Advances aircraft along frozen route polylines, executes altitude transitions
under the completion lock, finds in-range neighbors on related routes, and
records loss-of-separation events.

Altitudes live in feet; positions in meters. Altitude is converted to meters
(factor 0.3048 exact) only inside Euclidean-distance computations, which all
follow one rule, ``World.distance_3d_m``.
"""
from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from operator import attrgetter, itemgetter

import numpy as np

from .errors import SimulationError, ValidationError, check_number
from .network import AltitudeLayerSet, Network, Scenario

FT_TO_M = 0.3048


class Action(IntEnum):
    """Altitude advisories; wire encoding is the integer value."""

    HOLD = 0
    DESCEND = 1
    CLIMB = 2


#: Each command value's Action and the layer step it asks for.
_COMMANDS = {a.value: (a, step) for a, step in zip(Action, (0, -1, 1))}


class Phase(Enum):
    PENDING = "pending"
    ENROUTE = "enroute"
    ARRIVED = "arrived"


@dataclass
class SimConfig:
    dt_s: float = 1.0
    decision_interval_s: float = 10.0
    cruise_speed_mps: float = 67.0
    climb_rate_fpm: float = 500.0
    d_comm_m: float = 2500.0
    d_los_m: float = 150.0
    max_episode_time_s: float = 7200.0

    def __post_init__(self):
        for f in fields(self):
            check_number(f"SimConfig.{f.name}", getattr(self, f.name), 0, above=True)
        ratio = self.decision_interval_s / self.dt_s
        if round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
            raise ValidationError("decision_interval_s must be an integer multiple of dt_s")


@dataclass(slots=True)  # slots: the physics loops read and write these per aircraft step
class AircraftState:
    """A flight's fixed index in scenario.flights and route geometry, then its state."""

    id: str
    flight_index: int
    geometry: tuple
    phase: Phase = Phase.PENDING
    dist_along_m: float = 0.0
    x_m: float = 0.0
    y_m: float = 0.0
    z_ft: float = 0.0
    z_target_ft: float = 0.0
    b_changing: bool = False
    last_action: Action = Action.HOLD
    segment: tuple = (0.0, 0.0)  # of geometry, last found to hold dist_along_m; [0, 0) holds none


def action_mask(state: AircraftState, layers: AltitudeLayerSet) -> tuple[bool, bool, bool]:
    """(hold, descend, climb) allowed flags, indexed by Action: hold always;
    no change while locked mid-transition, nor past the bottom or top layer."""
    if state.b_changing:
        return (True, False, False)
    idx = layers.index_of(state.z_target_ft)
    return (True, idx > 0, idx < len(layers.levels_ft) - 1)


@dataclass(slots=True)
class LosEvent:
    """One contiguous separation violation between an unordered aircraft pair."""

    pair: tuple[str, str]
    onset_s: float
    duration_s: float
    min_distance_m: float


class World:
    """Single-writer episode state; one world per rollout worker.

    Enroute index invariant: ``_enroute`` holds exactly the aircraft whose
    phase is ENROUTE, in ``flight_index`` order, and ``_queue[_next:]`` exactly
    the PENDING ones, sorted by (departure time, flight index). Only
    ``spawn_due_aircraft`` (PENDING -> ENROUTE) and ``advance_kinematics``
    (ENROUTE -> ARRIVED) change ``phase``, and each keeps the index in step, so
    the queries read the index instead of scanning every aircraft.

    What is derived from positions is checked on use: an aircraft's segment
    serves only while it holds dist_along_m, and ``_by_x``, which spawns and
    arrivals keep equal to the enroute set, is re-sorted by x in each
    ``detect_los`` call; ``neighbors`` measures every enroute pair afresh.
    """

    def __init__(self, scenario: Scenario, config: SimConfig):
        self.scenario = scenario
        self.net: Network = scenario.network
        self.config = config
        # Integer clock: t, decision ticks and the horizon all derive from n_steps.
        self.n_steps = 0
        self._interval_steps = round(config.decision_interval_s / config.dt_s)
        self._horizon_steps = math.ceil(config.max_episode_time_s / config.dt_s - 1e-9)
        geometry, self._related = scenario.geometry  # by flight id; by route number
        self.aircraft = {fl.id: AircraftState(fl.id, i, geometry[fl.id])
                         for i, fl in enumerate(scenario.flights)}
        # Enroute index (see the class docstring): a spawn queue of
        # (departure, aircraft), stably sorted, with a cursor, and the enroute list.
        self._queue = sorted(((fl.departure_s, self.aircraft[fl.id]) for fl in scenario.flights),
                             key=itemgetter(0))
        self._next = 0
        self._enroute: list[AircraftState] = []
        self._by_x: list[AircraftState] = []  # the enroute aircraft, in detect_los's x order

        self.los_events: list[LosEvent] = []
        self._active_los: dict[tuple[str, str], tuple[float, float]] = {}  # pair -> (onset, min d)

    # -- queries ----------------------------------------------------------

    def enroute(self) -> list[AircraftState]:
        """The enroute aircraft in scenario-flight order, as a new list: a
        spawn inserts into the index's own list in place."""
        return self._enroute.copy()

    def member_of(self, ac: AircraftState) -> str:
        """The network member whose zone an enroute aircraft counts for: the
        vertiport when it sits exactly on a route node, as at spawn, and
        otherwise the route link it is on, by advance_kinematics's segment."""
        d, seg = ac.dist_along_m, ac.segment
        if not seg[0] <= d < seg[1]:
            _, cum, _, segments = ac.geometry
            seg = segments[bisect_right(cum, d) - 1]
        return seg[8] if d == seg[0] else seg[7]

    @property
    def t(self) -> float:
        return self.n_steps * self.config.dt_s

    def is_decision_tick(self) -> bool:
        return self.n_steps % self._interval_steps == 0

    @property
    def terminal(self) -> bool:
        if self.n_steps >= self._horizon_steps:
            return True
        return self._next == len(self._queue) and not self._enroute

    def distance_3d_m(self, a: AircraftState, b: AircraftState) -> float:
        """3-D distance in m, sqrt((dx*dx + dy*dy) + dz*dz) with dz = (z_a -
        z_b) * FT_TO_M: the one distance rule. Python and NumPy round each of
        its operations alike, so ``neighbors`` computes it bitwise equal, and
        it is bitwise symmetric, as negation is exact."""
        dx, dy, dz = a.x_m - b.x_m, a.y_m - b.y_m, (a.z_ft - b.z_ft) * FT_TO_M
        return math.sqrt((dx * dx + dy * dy) + dz * dz)

    # -- dynamics ---------------------------------------------------------

    def spawn_due_aircraft(self) -> None:
        """Pending flights at or past their departure time leave the spawn
        queue and enter the network at their origin on the lowest layer, level."""
        t = self.t
        while self._next < len(self._queue) and self._queue[self._next][0] <= t:
            ac = self._queue[self._next][1]
            self._next += 1
            insort(self._enroute, ac, key=attrgetter("flight_index"))
            self._by_x.append(ac)
            ac.phase = Phase.ENROUTE
            ac.dist_along_m = 0.0
            ac.x_m, ac.y_m = ac.geometry[0][0]
            ac.z_ft = ac.z_target_ft = self.net.layers.z_min
            ac.b_changing = False
            ac.last_action = Action.HOLD

    def apply_altitude_command(self, ac: AircraftState, action: Action) -> None:
        """Moves the target one layer in the commanded direction when
        action_mask allows it, and holds otherwise; the action actually
        executed goes to last_action. action is an Action or a value equal
        to one, such as its wire integer."""
        try:
            action, step = _COMMANDS[action]
        except (KeyError, TypeError):
            raise SimulationError(f"aircraft '{ac.id}': unknown action {action!r}") from None
        layers = self.net.layers
        if step and action_mask(ac, layers)[action]:
            ac.z_target_ft = layers.levels_ft[layers.index_of(ac.z_target_ft) + step]
            ac.b_changing = True
        elif step:  # a masked climb or descent executes as hold
            action = Action.HOLD
        ac.last_action = action

    def advance_kinematics(self) -> None:
        """Moves each enroute aircraft one dt_s along its polyline and toward its
        target layer, snapping without overshoot. Arrivals leave the enroute index.
        An aircraft's cached segment serves while start <= dist_along_m < end."""
        step_ft = self.config.climb_rate_fpm / 60.0 * self.config.dt_s
        step_m = self.config.cruise_speed_mps * self.config.dt_s
        still_enroute = []
        for ac in self._enroute:
            if ac.b_changing:
                delta = ac.z_target_ft - ac.z_ft
                if abs(delta) <= step_ft:
                    ac.z_ft = ac.z_target_ft
                    ac.b_changing = False
                else:
                    ac.z_ft += math.copysign(step_ft, delta)
            d = ac.dist_along_m + step_m
            seg = ac.segment
            if not seg[0] <= d < seg[1]:
                pts, cum, _, segments = ac.geometry
                if d >= cum[-1]:
                    ac.phase = Phase.ARRIVED
                    ac.dist_along_m = cum[-1]
                    ac.x_m, ac.y_m = pts[-1]
                    continue
                seg = ac.segment = segments[bisect_right(cum, d) - 1]
            ac.dist_along_m = d
            still_enroute.append(ac)
            f = (d - seg[0]) / seg[2]
            ac.x_m = seg[3] + f * seg[5]
            ac.y_m = seg[4] + f * seg[6]
        if len(still_enroute) < len(self._enroute):
            self._by_x = [a for a in self._by_x if a.phase is Phase.ENROUTE]
        self._enroute = still_enroute

    def neighbors(self, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One NumPy pass over the enroute aircraft, in enroute order: (state,
        index, distance). Row i of state (n, 6) holds aircraft i's x_m, y_m,
        z_ft, z_target_ft, b_changing and last_action. distance (n, n), bitwise
        symmetric, holds the distance_3d_m of each pair on related routes within
        planar range, dx*dx + dy*dy <= d_comm*d_comm, and inf elsewhere. Row i
        of index holds the enroute indices of aircraft i's nearest such
        aircraft, at most limit of them, ascending by (distance, enroute
        index), then ones at distance inf where it has fewer."""
        acs = self._enroute
        n = len(acs)
        state = np.array([(a.x_m, a.y_m, a.z_ft, a.z_target_ft, a.b_changing, a.last_action,
                           a.geometry[2]) for a in acs], dtype=float).reshape(n, 7)
        p = state[:, :3].T.copy()
        d = p[:, :, None] - p[:, None, :]  # d[:, i, j] = (dx, dy, dz in ft) of pair (i, j)
        d[2] *= FT_TO_M
        d *= d
        planar2 = d[0] + d[1]
        r = state[:, 6].astype(np.intp)
        keep = self._related.take(r, axis=0).take(r, axis=1)
        keep &= planar2 <= self.config.d_comm_m * self.config.d_comm_m
        keep.flat[::n + 1] = False
        dist = np.sqrt(planar2 + d[2])
        dist[~keep] = np.inf
        return state[:, :6], np.argsort(dist, axis=1, kind="stable")[:, :limit], dist

    def detect_los(self) -> list[tuple[str, str, float]]:
        """All enroute pairs closer than d_los in 3-D, as (id_a, id_b, dist)
        with id_a < id_b, ordered by the pair's enroute positions. Not
        route-filtered: separation is violated by geometry alone.

        One sweep over the enroute aircraft in x order visits only the pairs
        with |dx| <= d_los, and measures only those of them with |dy| < d_los.
        Both cut-offs are exact, since the 3-D distance is never below |dx| or
        |dy|: in binary floating point sqrt(y*y) rounds back to |y|, and
        rounding is monotone. The x order is kept between calls and re-sorted
        in place, near-linear as aircraft move little per step; equal x keep
        any order, as neither the pairs visited nor the output depend on it."""
        d_los, distance = self.config.d_los_m, self.distance_3d_m
        by_x = self._by_x
        by_x.sort(key=attrgetter("x_m"))
        hits = []
        start = 0
        for j, b in enumerate(by_x):
            bx = b.x_m
            while bx - by_x[start].x_m > d_los:
                start += 1
            if start == j:
                continue
            by, b_id = b.y_m, b.id
            for a in by_x[start:j]:
                if abs(a.y_m - by) < d_los and (d := distance(a, b)) < d_los:
                    ia, ib = a.flight_index, b.flight_index
                    hits.append(((ia, ib) if ia < ib else (ib, ia),
                                 (a.id, b_id, d) if a.id < b_id else (b_id, a.id, d)))
        hits.sort(key=itemgetter(0))
        return list(map(itemgetter(1), hits))

    def _update_los_bookkeeping(self, violations) -> None:
        active = self._active_los
        if not violations and not active:
            return
        now = {(a, b): d for a, b, d in violations}
        t = self.t
        for pair, d in now.items():
            if (kept := active.get(pair)) is None:
                active[pair] = (t, d)
            elif d < kept[1]:
                active[pair] = (kept[0], d)
        if len(active) > len(now):  # some active pair has ended
            for pair in [pair for pair in active if pair not in now]:
                onset, dmin = active.pop(pair)
                self.los_events.append(LosEvent(pair, onset, t - onset, dmin))

    def finalize_los(self) -> None:
        """Close any violations still active at episode end."""
        for pair, (onset, dmin) in sorted(self._active_los.items()):
            self.los_events.append(LosEvent(pair, onset, self.t - onset, dmin))
        self._active_los.clear()

    def step(self) -> list[tuple[str, str, float]]:
        """One physics step: spawn, advance, detect LOS; returns its violations.
        A decision tick's commands come first, from apply_altitude_command."""
        self.spawn_due_aircraft()
        self.advance_kinematics()
        self.n_steps += 1
        violations = self.detect_los()
        self._update_los_bookkeeping(violations)
        if self.terminal:
            self.finalize_los()
        return violations
