"""Discrete-time kinematic world over the corridor network.

Advances aircraft along frozen route polylines, executes altitude transitions
under the completion lock, finds in-range neighbors on related routes, and
records loss-of-separation events.

Altitudes live in feet; positions in meters. Altitude is converted to meters
(factor 0.3048 exact) only inside Euclidean-distance computations.
"""
from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from itertools import accumulate
from operator import attrgetter

from .errors import SimulationError, ValidationError, check_number
from .network import (AltitudeLayerSet, Network, Route, Scenario, route_intersections,
                      route_nodes)

FT_TO_M = 0.3048


class Action(IntEnum):
    """Altitude advisories; wire encoding is the integer value."""

    HOLD = 0
    DESCEND = 1
    CLIMB = 2


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


@dataclass
class AircraftState:
    id: str
    route: Route
    phase: Phase = Phase.PENDING
    dist_along_m: float = 0.0
    x_m: float = 0.0
    y_m: float = 0.0
    z_ft: float = 0.0
    z_target_ft: float = 0.0
    b_changing: bool = False
    last_action: Action = Action.HOLD


def action_mask(state: AircraftState, layers: AltitudeLayerSet) -> tuple[bool, bool, bool]:
    """(hold, descend, climb) allowed flags, indexed by Action: hold always;
    no change while locked mid-transition, nor past the bottom or top layer."""
    if state.b_changing:
        return (True, False, False)
    idx = layers.index_of(state.z_target_ft)
    return (True, idx > 0, idx < len(layers.levels_ft) - 1)


@dataclass
class LosEvent:
    """One contiguous separation violation between an unordered aircraft pair."""

    pair: tuple[str, str]
    onset_s: float
    duration_s: float
    min_distance_m: float


class World:
    """Single-writer episode state; one world per rollout worker.

    ``flight_index`` maps each flight id to its index in ``scenario.flights``,
    the scenario-flight order of the enroute index and of LOS events.

    Enroute index invariant: ``_enroute`` holds exactly the aircraft whose
    phase is ENROUTE, in scenario-flight order, and ``_queue[_next:]`` exactly
    the PENDING ones, sorted by (departure time, flight index). Only
    ``spawn_due_aircraft`` (PENDING -> ENROUTE) and ``advance_kinematics``
    (ENROUTE -> ARRIVED) change ``phase``, and each keeps the index in step, so
    the queries read the index instead of scanning every aircraft.

    x-order invariant: ``_by_x``, when set, holds the enroute aircraft sorted
    by x (stably, so equal x keep enroute order), and ``_near``, when set, maps
    each enroute id to its neighbour list (``neighbor_table``). Positions and
    membership change only in those same two methods, and each clears both,
    so ``detect_los`` and ``neighbor_table`` share one sort, and every
    neighbour list is built in one pass, per world state.
    """

    def __init__(self, scenario: Scenario, config: SimConfig):
        self.scenario = scenario
        self.net: Network = scenario.network
        self.config = config
        # Integer clock: t, decision ticks and the horizon all derive from n_steps.
        self.n_steps = 0
        self._interval_steps = round(config.decision_interval_s / config.dt_s)
        self._horizon_steps = math.ceil(config.max_episode_time_s / config.dt_s - 1e-9)
        self.aircraft: dict[str, AircraftState] = {}
        for fl in scenario.flights:
            self.aircraft[fl.id] = AircraftState(id=fl.id, route=scenario.routes[fl.id])
        self.flight_index = {fl.id: i for i, fl in enumerate(scenario.flights)}
        # Enroute index (see the class docstring): a spawn queue of
        # (departure, aircraft) with a cursor, and the enroute list.
        by_departure = sorted(enumerate(scenario.flights), key=lambda p: (p[1].departure_s, p[0]))
        self._queue = [(fl.departure_s, self.aircraft[fl.id]) for _, fl in by_departure]
        self._next = 0
        self._enroute: list[AircraftState] = []
        self._by_x: list[AircraftState] | None = None
        self._near: dict[str, list[tuple[float, AircraftState]]] | None = None

        # Frozen route geometry: polyline points and cumulative lengths.
        self._polylines: dict[tuple[str, ...], tuple[list[tuple[float, float]], list[float]]] = {}
        for route in scenario.routes.values():
            if route.link_ids in self._polylines:
                continue
            pts = []
            for vid in route_nodes(self.net, route):
                vp = self.net.vertiports[vid]
                pts.append((vp.x_m, vp.y_m))
            cum = list(accumulate(map(self.net.link_length_m, route.link_ids), initial=0.0))
            self._polylines[route.link_ids] = (pts, cum)

        unique_routes = list({r.link_ids: r for r in scenario.routes.values()}.values())
        self._relation = route_intersections(self.net, unique_routes)

        self.los_events: list[LosEvent] = []
        self._active_los: dict[tuple[str, str], tuple[float, float]] = {}  # pair -> (onset, min d)

    # -- queries ----------------------------------------------------------

    def enroute_ids(self) -> list[str]:
        """Enroute aircraft ids in scenario-flight order."""
        return [a.id for a in self._enroute]

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

    def distance_3d_m(self, a: AircraftState, b: AircraftState, planar_m=None) -> float:
        """3-D distance in m; planar_m, if known, is the pair's math.hypot(dx, dy)."""
        if planar_m is None:
            planar_m = math.hypot(a.x_m - b.x_m, a.y_m - b.y_m)
        return math.hypot(planar_m, (a.z_ft - b.z_ft) * FT_TO_M)

    # -- dynamics ---------------------------------------------------------

    def spawn_due_aircraft(self) -> None:
        """Pending flights at or past their departure time leave the spawn
        queue and enter the network at their origin on the lowest layer, level."""
        z0 = self.net.layers.z_min
        t = self.t
        while self._next < len(self._queue) and self._queue[self._next][0] <= t:
            ac = self._queue[self._next][1]
            self._next += 1
            self._by_x = self._near = None
            insort(self._enroute, ac, key=lambda a: self.flight_index[a.id])
            pts, _ = self._polylines[ac.route.link_ids]
            ac.phase = Phase.ENROUTE
            ac.dist_along_m = 0.0
            ac.x_m, ac.y_m = pts[0]
            ac.z_ft = z0
            ac.z_target_ft = z0
            ac.b_changing = False
            ac.last_action = Action.HOLD

    def apply_altitude_command(self, ac: AircraftState, action: Action) -> None:
        """Moves the target one layer in the commanded direction when
        action_mask allows it, and holds otherwise; the action actually
        executed goes to last_action. action is an Action or a value equal
        to one, such as its wire integer."""
        try:
            action = Action(action)
        except ValueError:
            raise SimulationError(f"aircraft '{ac.id}': unknown action {action!r}") from None
        layers = self.net.layers
        if action is not Action.HOLD and action_mask(ac, layers)[action]:
            step = 1 if action is Action.CLIMB else -1
            ac.z_target_ft = layers.levels_ft[layers.index_of(ac.z_target_ft) + step]
            ac.b_changing = True
        else:
            action = Action.HOLD
        ac.last_action = action

    def advance_kinematics(self, dt: float) -> None:
        """Moves each enroute aircraft along its polyline and toward its target
        layer, snapping without overshoot. Arrivals leave the enroute index."""
        rate_fps = self.config.climb_rate_fpm / 60.0
        self._by_x = self._near = None
        still_enroute = []
        for ac in self._enroute:
            pts, cum = self._polylines[ac.route.link_ids]
            ac.dist_along_m += self.config.cruise_speed_mps * dt
            if ac.dist_along_m >= cum[-1]:
                ac.phase = Phase.ARRIVED
                ac.dist_along_m = cum[-1]
                ac.x_m, ac.y_m = pts[-1]
            else:
                still_enroute.append(ac)
                i = bisect_right(cum, ac.dist_along_m) - 1
                seg_len = cum[i + 1] - cum[i]
                f = (ac.dist_along_m - cum[i]) / seg_len
                ax, ay = pts[i]
                bx, by = pts[i + 1]
                ac.x_m = ax + f * (bx - ax)
                ac.y_m = ay + f * (by - ay)

            if ac.b_changing:
                step_ft = rate_fps * dt
                delta = ac.z_target_ft - ac.z_ft
                if abs(delta) <= step_ft:
                    ac.z_ft = ac.z_target_ft
                    ac.b_changing = False
                else:
                    ac.z_ft += math.copysign(step_ft, delta)
        self._enroute = still_enroute

    def _x_pairs(self, reach: float):
        """Each enroute pair (a, b) once, a before b in the x-order (see the
        class docstring), with b.x_m - a.x_m <= reach: one sweep whose window
        start only moves forward, since x rises along the order."""
        if self._by_x is None:
            self._by_x = sorted(self._enroute, key=attrgetter("x_m"))
        by_x = self._by_x
        start = 0
        for j, b in enumerate(by_x):
            while b.x_m - by_x[start].x_m > reach:
                start += 1
            for a in by_x[start:j]:
                yield a, b

    def neighbor_table(self) -> dict[str, list[tuple[float, AircraftState]]]:
        """Every enroute aircraft's id mapped to its neighbour list: (3-D
        distance in m, aircraft) for each enroute aircraft within d_comm planar
        range on a related route, ascending by distance (id tie-break). The
        caller must not modify the lists.

        The first call in a world state builds the table from one sweep of
        pairs with |dx| <= d_comm (planar range implies it, since hypot is
        never below either leg), measuring each pair once: the distance is
        bitwise symmetric, as negation is exact and hypot takes magnitudes.
        Later calls in that state return the same table."""
        if self._near is None:
            d_comm, relation = self.config.d_comm_m, self._relation
            near = {ac.id: [] for ac in self._enroute}
            for a, b in self._x_pairs(d_comm):
                if ((planar := math.hypot(a.x_m - b.x_m, a.y_m - b.y_m)) <= d_comm
                        and (a.route.link_ids, b.route.link_ids) in relation):
                    d = self.distance_3d_m(a, b, planar)
                    near[a.id].append((d, b))
                    near[b.id].append((d, a))
            for found in near.values():
                found.sort(key=lambda rec: (rec[0], rec[1].id))
            self._near = near
        return self._near

    def detect_los(self) -> list[tuple[str, str, float]]:
        """All enroute pairs closer than d_los in 3-D, as (id_a, id_b, dist),
        ordered by the pair's enroute positions. Not route-filtered:
        separation is violated by geometry alone.

        Only pairs with |dx| <= d_los are measured; the cut-off is exact, since
        the 3-D distance is never below |dx|."""
        d_los, index = self.config.d_los_m, self.flight_index
        hits = [(a, b, d) for a, b in self._x_pairs(d_los)
                if (d := self.distance_3d_m(a, b)) < d_los]
        hits.sort(key=lambda hit: sorted((index[hit[0].id], index[hit[1].id])))
        return [(*sorted((a.id, b.id)), d) for a, b, d in hits]

    def _update_los_bookkeeping(self, violations) -> None:
        now = {(a, b): d for a, b, d in violations}
        for pair, d in now.items():
            if pair in self._active_los:
                onset, dmin = self._active_los[pair]
                self._active_los[pair] = (onset, min(dmin, d))
            else:
                self._active_los[pair] = (self.t, d)
        for pair in list(self._active_los):
            if pair not in now:
                onset, dmin = self._active_los.pop(pair)
                self.los_events.append(LosEvent(pair, onset, self.t - onset, dmin))

    def finalize_los(self) -> None:
        """Close any violations still active at episode end."""
        for pair, (onset, dmin) in sorted(self._active_los.items()):
            self.los_events.append(LosEvent(pair, onset, self.t - onset, dmin))
        self._active_los.clear()

    def step(self, joint_actions: dict[str, Action] | None = None) -> list[tuple[str, str, float]]:
        """One physics step: spawn, apply commands on decision ticks, advance,
        detect LOS. Returns this step's violations."""
        self.spawn_due_aircraft()
        if self.is_decision_tick():
            actions = joint_actions or {}
            for ac_id in self.enroute_ids():
                if ac_id not in actions:
                    raise SimulationError(
                        f"decision tick t={self.t}: no action for enroute aircraft '{ac_id}'"
                    )
                self.apply_altitude_command(self.aircraft[ac_id], actions[ac_id])
        self.advance_kinematics(self.config.dt_s)
        self.n_steps += 1
        violations = self.detect_los()
        self._update_los_bookkeeping(violations)
        if self.terminal:
            self.finalize_los()
        return violations
