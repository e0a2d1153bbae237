"""Discrete-time kinematic world over the corridor network.

Advances aircraft along frozen route polylines, executes altitude transitions
under the completion lock, finds in-range neighbors on related routes, and
records loss-of-separation events. Horizontal motion depends on no action, so
it is planned once per scenario and configuration (``MotionPlan``).

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
    """A flight's fixed index in scenario.flights, route geometry, planned
    track and spawn step (MotionPlan), then its state."""

    id: str
    flight_index: int
    geometry: tuple
    track: tuple = ()
    spawn_step: int = 0
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


@dataclass(slots=True)
class LosEvent:
    """One contiguous separation violation between an unordered aircraft pair."""

    pair: tuple[str, str]
    onset_s: float
    duration_s: float
    min_distance_m: float


#: Spawn steps are planned up to here; a world never steps this far.
_LAST_STEP = 2.0 ** 52


class MotionPlan:
    """The horizontal motion of a scenario's flights under one (dt_s,
    cruise_speed_mps, d_los_m). Along-track motion depends on no action and no
    altitude, so these fix which aircraft are enroute at each step, where each
    is in the plane, and which pairs the plane brings within d_los. Built once
    per key by ``motion_plan`` and read-only.

    - ``tracks[i]``, for flight index i, is its route's (xs, ys, ds, K): the
      position and distance along the route after k steps, for k = 0 (the
      origin) up to K, the first step whose distance reaches the route's
      length; there it sits on the destination, at that length. The distance
      after k steps is k additions of cruise_speed_mps * dt_s, and the
      position x = ax + f*ex of the link that holds it, as a step loop would
      compute them.
    - ``spawn_steps[i]`` is the first n with n * dt_s >= departure_s, the
      spawn rule's own comparison.
    - ``los_steps`` maps a step n to a range [lo, hi) of ``los_a`` and
      ``los_b``: the flight-index pairs a < b, ascending, that are both
      enroute at n by their tracks (spawned at or before n, and not arrived)
      and there at |dx| <= d_los and |dy| < d_los. Both cut-offs are exact,
      since the 3-D distance is never below |dx| or |dy|: in binary floating
      point sqrt(y*y) rounds back to |y|, and rounding is monotone.

    The candidate search bins the (flight, step) positions into cells of
    side w > d_los (just above, unless the network's extent caps the cell
    count), keyed by (step, column, row): a pair within the cut-offs lies in
    the same or adjacent cells, so each position is compared with those of
    its own and the next cell up, and of the three cells of the next column.
    """

    def __init__(self, scenario: Scenario, dt_s: float, cruise_speed_mps: float,
                 d_los_m: float):
        geometry, _ = scenario.geometry
        routes = [g for _, g in sorted({g[2]: g for g in geometry.values()}.items())]
        length = np.array([cum[-1] for _, cum, _, _ in routes])
        step_m = cruise_speed_mps * dt_s
        # Distance after k steps, by k additions (np.cumsum adds in order), far
        # enough for the longest route: the slack outlasts the sum's rounding.
        along = np.cumsum(np.full(int(length.max(initial=0.0) / step_m * (1 + 1e-6)) + 2,
                                  step_m))
        along = np.concatenate(([0.0], along))
        arrival = np.maximum(np.searchsorted(along, length), 1)

        # Route r's track is xy[:, start[r]:start[r] + arrival[r] + 1]. Each
        # link holds the steps k with start <= along[k] < end, as
        # searchsorted(cum, along[k], "right") - 1 picks it.
        start = np.cumsum(arrival + 1) - (arrival + 1)
        xy = np.empty((2, start[-1] + arrival[-1] + 1 if routes else 0))
        links = [(r, *seg[:7]) for r, (_, _, _, segs) in enumerate(routes) for seg in segs]
        r, a, b, link_m, ax, ay, ex, ey = np.array(links, dtype=float).reshape(-1, 8).T
        r = r.astype(np.intp)
        first = np.maximum(np.searchsorted(along, a), 1)
        count = np.maximum(np.minimum(np.searchsorted(along, b), arrival[r]) - first, 0)
        link = np.repeat(np.arange(len(links)), count)
        k = np.arange(len(link)) + np.repeat(first - (np.cumsum(count) - count), count)
        f = (along[k] - a[link]) / link_m[link]
        at = start[r[link]] + k
        xy[0, at] = ax[link] + f * ex[link]
        xy[1, at] = ay[link] + f * ey[link]
        for i, (pts, _, _, _) in enumerate(routes):
            xy[:, start[i]], xy[:, start[i] + arrival[i]] = pts[0], pts[-1]
        # Equal coordinates share one float object, as routes share links.
        values, inverse = np.unique(xy, return_inverse=True)
        xs, ys = np.array(values.tolist(), dtype=object)[inverse.reshape(xy.shape)].tolist()
        along_list = along.tolist()
        by_route = [(xs[s:s + n + 1], ys[s:s + n + 1], along_list[:n] + [cum[-1]], n)
                    for (_, cum, _, _), s, n in zip(routes, start.tolist(), arrival.tolist())]

        flights = scenario.flights
        route = np.array([geometry[fl.id][2] for fl in flights], dtype=np.intp)
        departure = np.array([fl.departure_s for fl in flights], dtype=float)
        spawn = np.ceil(np.minimum(departure / dt_s, _LAST_STEP))
        # The first n with n * dt_s >= departure: n * dt_s is monotone in n.
        while (early := (spawn >= 1) & (spawn < _LAST_STEP)
               & ((spawn - 1) * dt_s >= departure)).any():
            spawn[early] -= 1
        while (late := (spawn < _LAST_STEP) & (spawn * dt_s < departure)).any():
            spawn[late] += 1
        spawn = spawn.astype(np.int64)
        self.tracks = [by_route[i] for i in route.tolist()]
        self.spawn_steps = spawn.tolist()
        self._plan_los(xy, start, arrival, route, spawn, d_los_m)

    def _plan_los(self, xy, start, arrival, route, spawn, d_los_m):
        # One row per flight and step it is enroute at, k = 0 .. K - 1.
        count = arrival[route]
        row = np.arange(count.sum())
        flight = np.repeat(np.arange(len(route)), count)
        first = np.cumsum(count) - count
        step = row + (spawn - first)[flight]
        point = row + (start[route] - first)[flight]  # the row's column of xy
        n_max = int(step.max(initial=0))
        # Cells per axis, few enough that keys fit in int64.
        cells = min(2 ** 24, math.isqrt(2 ** 62 // (n_max + 2)) - 3)
        # w a little above d_los: coordinates within d_los of each other, in
        # (xy - low) / w as rounded, are less than one cell apart.
        low = xy.min(axis=1, keepdims=True) if xy.size else 0.0
        w = max(d_los_m * (1 + 2 ** -20), float((xy - low).max(initial=0.0)) / cells)
        cx, cy = np.floor((xy - low) / w).astype(np.int64)
        nx, ny = int(cx.max(initial=0)) + 2, int(cy.max(initial=0)) + 3
        key = step * (nx * ny) + (cx * ny + cy + 1)[point]
        order = np.argsort(key)
        key = key[order]

        def ranges(lo, hi):  # (i, j) for each i and each j in [lo[i], hi[i])
            i = np.flatnonzero(hi > lo)
            n = hi[i] - lo[i]
            return np.repeat(i, n), np.arange(n.sum()) + np.repeat(lo[i] - (np.cumsum(n) - n), n)

        # own cell and the next up, later rows only; the next column's three
        same = ranges(np.arange(1, len(key) + 1), key.searchsorted(key + 1, "right"))
        right = ranges(key.searchsorted(key + ny - 1), key.searchsorted(key + ny + 1, "right"))
        i, j = order[np.concatenate((same, right), axis=1)]
        dx, dy = xy[:, point[i]] - xy[:, point[j]]
        near = (np.abs(dx) <= d_los_m) & (np.abs(dy) < d_los_m)
        i, j = i[near], j[near]
        a, b = np.minimum(flight[i], flight[j]), np.maximum(flight[i], flight[j])
        n = step[i]
        by = np.argsort(a * len(route) + b)
        by = by[np.argsort(n[by], kind="stable")]  # by (n, a, b)
        n, a, b = n[by], a[by], b[by]
        lo = np.flatnonzero(np.diff(n, prepend=-1)).tolist()
        self.los_steps = dict(zip(n[lo].tolist(), zip(lo, lo[1:] + [len(n)])))
        self.los_a, self.los_b = a.astype(np.int32), b.astype(np.int32)


def motion_plan(scenario: Scenario, config: SimConfig) -> MotionPlan:
    """The scenario's MotionPlan under config's (dt_s, cruise_speed_mps,
    d_los_m), built on first use and kept in scenario.motion_plans."""
    key = (config.dt_s, config.cruise_speed_mps, config.d_los_m)
    plans = scenario.motion_plans
    if (plan := plans.get(key)) is None:
        plan = plans[key] = MotionPlan(scenario, *key)
    return plan


class World:
    """Single-writer episode state; one world per rollout worker.

    Enroute index invariant: ``_enroute`` holds exactly the aircraft whose
    phase is ENROUTE, in ``flight_index`` order, and ``_queue[_next:]`` exactly
    the PENDING ones, sorted by (departure time, flight index). Only
    ``spawn_due_aircraft`` (PENDING -> ENROUTE) and ``advance_kinematics``
    (ENROUTE -> ARRIVED) change ``phase``, and each keeps the index in step, so
    the queries read the index instead of scanning every aircraft.

    Horizontal motion comes from the scenario's MotionPlan for (dt_s,
    cruise_speed_mps, d_los_m), shared by every world of the scenario with
    that key: at step n an aircraft spawned at step s sits on its track at k
    = n - s, both just after a spawn and after a step. ``advance_kinematics``
    copies x, y and dist_along_m from the track, and ``detect_los`` measures
    only the plan's candidate pairs of the step. A position set by hand is
    read by ``neighbors``, which measures every enroute pair afresh, by
    ``member_of``, and by ``detect_los`` for a planned pair; the next step
    overwrites it.
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
        plan = motion_plan(scenario, config)
        # memoryviews: iterating one yields Python ints
        self._los_a, self._los_b = memoryview(plan.los_a), memoryview(plan.los_b)
        self._los_steps = plan.los_steps
        self._records = [AircraftState(fl.id, i, geometry[fl.id], track, spawn)
                         for i, (fl, track, spawn)
                         in enumerate(zip(scenario.flights, plan.tracks, plan.spawn_steps))]
        self.aircraft = {ac.id: ac for ac in self._records}
        # Enroute index (see the class docstring): a spawn queue of
        # (departure, aircraft), stably sorted, with a cursor, and the enroute list.
        self._queue = sorted(((fl.departure_s, self.aircraft[fl.id]) for fl in scenario.flights),
                             key=itemgetter(0))
        self._next = 0
        self._enroute: list[AircraftState] = []

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
        otherwise the route link it is on, by its dist_along_m."""
        d, (_, cum, _, segments) = ac.dist_along_m, ac.geometry
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
        """Moves each enroute aircraft one dt_s along its route, to the next
        point of its planned track, and toward its target layer, snapping
        without overshoot. Arrivals, at the track's last point, leave the
        enroute index."""
        step_ft = self.config.climb_rate_fpm / 60.0 * self.config.dt_s
        n = self.n_steps + 1
        still_enroute = []
        for ac in self._enroute:
            if ac.b_changing:
                delta = ac.z_target_ft - ac.z_ft
                if abs(delta) <= step_ft:
                    ac.z_ft = ac.z_target_ft
                    ac.b_changing = False
                else:
                    ac.z_ft += math.copysign(step_ft, delta)
            xs, ys, ds, arrival = ac.track
            k = n - ac.spawn_step
            ac.x_m, ac.y_m, ac.dist_along_m = xs[k], ys[k], ds[k]
            if k < arrival:
                still_enroute.append(ac)
            else:
                ac.phase = Phase.ARRIVED
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
        route-filtered: separation is violated by geometry alone. Only the
        motion plan's candidates of the current step are measured: every pair
        the tracks bring within d_los in both x and y, which holds every
        pair closer than d_los in 3-D."""
        span = self._los_steps.get(self.n_steps)
        if span is None:
            return []
        lo, hi = span
        records, enroute = self._records, Phase.ENROUTE
        d_los, distance = self.config.d_los_m, self.distance_3d_m
        hits = []
        for i, j in zip(self._los_a[lo:hi], self._los_b[lo:hi]):
            a, b = records[i], records[j]
            if a.phase is enroute and b.phase is enroute and (d := distance(a, b)) < d_los:
                hits.append((a.id, b.id, d) if a.id < b.id else (b.id, a.id, d))
        return hits

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
