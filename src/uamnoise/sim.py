"""Discrete-time kinematic world over the corridor network.

Advances aircraft along frozen route polylines, executes altitude transitions
under the completion lock, finds in-range neighbors on related routes, and
records loss-of-separation events. Horizontal motion depends on no action, so
it is planned once per scenario and configuration (``MotionPlan``), and both
pair queries take their pairs and planar distances from the plan.

Altitudes live in feet; positions in meters. Every distance follows one rule:
sqrt(planar2 + dz*dz), with planar2 = dx*dx + dy*dy from the plan's tracks and
dz = (z_a - z_b) * FT_TO_M (factor 0.3048 exact) from the live altitudes.
Python and NumPy round each of its operations alike, so ``detect_los`` and
``World.neighbors`` give the same bits, and it is bitwise symmetric, as
negation is exact.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
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
    track and spawn step (MotionPlan), then its state; World.position reads its position."""

    id: str
    flight_index: int
    geometry: tuple
    track: tuple = ()
    spawn_step: int = 0
    phase: Phase = Phase.PENDING
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
#: Neighbour pairs are planned in batches of at most this many steps, and of
#: at most this many (step, flight, flight) cells unless one step alone has
#: more; this bounds a batch's temporary arrays to about 1.5 MB.
_PAIR_STEPS, _PAIR_CELLS = 64, 2 ** 15


class MotionPlan:
    """The horizontal motion of a scenario's flights under one (dt_s,
    cruise_speed_mps, d_los_m). Along-track motion depends on no action and no
    altitude, so these fix which aircraft are enroute at each step, where each
    is in the plane, which pairs the plane brings within d_los, and which
    related pairs within a d_comm. Built once per key by ``motion_plan``; only
    the neighbour pairs are added to afterwards, a batch of steps at a time.
    A world reads positions, arrivals and both pair queries' pairs and planar
    distances from here.

    - ``tracks[i]``, for flight index i, is its route's (xs, ys, ds, K): the
      position and distance along the route after k steps, for k = 0 (the
      origin) up to K, the first step whose distance reaches the route's
      length; there it sits on the destination, at that length. The distance
      after k steps is k additions of cruise_speed_mps * dt_s, and the
      position x = ax + f*ex of the link that holds it, as a step loop would
      compute them.
    - ``spawn_steps[i]`` is the first n with n * dt_s >= departure_s, the
      spawn rule's own comparison.
    - ``arrivals`` maps a step n to the flight indices i, ascending, with spawn_steps[i] + K = n.
    - ``los_steps`` maps a step n to a range [lo, hi) of ``los_a`` and
      ``los_b``: the flight-index pairs a < b, ascending, that are both
      enroute at n by their tracks (spawned at or before n, and not arrived)
      and there at |dx| <= d_los and |dy| < d_los, and ``los_planar2`` their
      dx*dx + dy*dy. Both cut-offs are exact, since the 3-D distance is never
      below |dx| or |dy|: in binary floating point sqrt(y*y) rounds back to
      |y|, and rounding is monotone.
    - ``neighbor_pairs(d_comm_m, n, every)`` gives the flights enroute at n
      by their tracks and, as positions in that list, the pairs a < b,
      ascending, on related routes (``Scenario.geometry``'s table) and there
      within planar range, dx*dx + dy*dy <= d_comm*d_comm, with that planar2.
      The first request for (d_comm_m, n) plans a batch of steps n, n +
      every, n + 2*every, ... at once, and each is kept under (d_comm_m,
      step): a world asks at its decision ticks, every decision interval.

    The LOS candidate search bins the (flight, step) positions into cells of
    side w > d_los (just above, unless the network's extent caps the cell
    count), keyed by (step, column, row): a pair within the cut-offs lies in
    the same or adjacent cells, so each position is compared with those of
    its own and the next cell up, and of the three cells of the next column.
    The neighbour pairs, whose d_comm spans much of a network, come from
    every pair of flights enroute at a step, all of a batch's steps in one
    set of (steps, flights, flights) arrays.
    """

    def __init__(self, scenario: Scenario, dt_s: float, cruise_speed_mps: float,
                 d_los_m: float):
        geometry, related = scenario.geometry
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
        # for neighbor_pairs: a flight is enroute at the steps n with
        # _spawn <= n < _end, at the track column _column + n
        self._xy, self._column = xy, start[route] - spawn
        self._spawn, self._end = spawn, spawn + arrival[route]
        self._by_spawn, self._by_end = np.sort(self._spawn), np.sort(self._end)
        self.arrivals: dict[int, list[int]] = {}
        for i, n in enumerate(self._end.tolist()):
            self.arrivals.setdefault(n, []).append(i)
        self._route, self._related = route, related
        self._pairs: dict[tuple[float, int], tuple] = {}

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
        i, j, planar2 = i[near], j[near], (dx * dx + dy * dy)[near]
        a, b = np.minimum(flight[i], flight[j]), np.maximum(flight[i], flight[j])
        n = step[i]
        by = np.argsort(a * len(route) + b)
        by = by[np.argsort(n[by], kind="stable")]  # by (n, a, b)
        n, a, b = n[by], a[by], b[by]
        lo = np.flatnonzero(np.diff(n, prepend=-1)).tolist()
        self.los_steps = dict(zip(n[lo].tolist(), zip(lo, lo[1:] + [len(n)])))
        self.los_a, self.los_b = a.astype(np.int32), b.astype(np.int32)
        self.los_planar2 = planar2[by]

    def neighbor_pairs(self, d_comm_m: float, n: int, every: int) -> tuple:
        """(flights, ab, planar2, cells, width) of step n's neighbour pairs
        within d_comm_m (see the class docstring): the int32 flight indices
        enroute at n, ascending; each pair once, as a column (a, b) of ab (2,
        pairs), positions a < b in flights, with its float64 planar2; and, in
        that column of cells, its flat index in a's and in b's row of a
        (len(flights), width) table whose row holds a flight's pairs in flight
        order of the other, width being the largest count. Positions and
        cells take the smallest unsigned type that holds them."""
        if (d_comm_m, n) not in self._pairs:
            self._plan_pairs(d_comm_m, n, every)
        return self._pairs[(d_comm_m, n)]

    def _plan_pairs(self, d_comm_m, n, every):
        # the batch's steps, each with its enroute flights, in flight order, in
        # a row of a (steps, w) table, w the largest count; NaN pads the rest
        steps = n + every * np.arange(_PAIR_STEPS)
        m = self._by_spawn.searchsorted(steps, "right") - self._by_end.searchsorted(steps, "right")
        size = np.maximum.accumulate(m) ** 2 * np.arange(1, len(m) + 1)
        steps = steps[:max(1, size.searchsorted(_PAIR_CELLS, "right"))]
        m = m[:len(steps)]
        w = max(int(m.max(initial=0)), 1)
        step, flight = np.nonzero((self._spawn <= steps[:, None]) & (steps[:, None] < self._end))
        first = np.cumsum(m) - m  # each step's first entry in flight
        at = step * w + np.arange(len(flight)) - first[step]
        x, y = np.full((2, len(steps) * w), np.nan)
        x[at], y[at] = self._xy[:, self._column[flight] + steps[step]]
        route = np.zeros(len(steps) * w, dtype=np.intp)
        route[at] = self._route[flight]
        x, y = x.reshape(-1, w), y.reshape(-1, w)
        # planar2[s, a, b] of flights a and b of step s; e runs over the (s,
        # a, b), a < b, in range (a NaN compares false) and on related routes,
        # as flat indices, ascending, and row and col over the cells of (s, a)
        # and (s, b) in the table
        planar2, dy = x[:, :, None] - x[:, None, :], y[:, :, None] - y[:, None, :]
        planar2 *= planar2
        dy *= dy
        planar2 += dy
        near = planar2 <= d_comm_m * d_comm_m
        near &= np.arange(w)[:, None] < np.arange(w)
        e = np.flatnonzero(near)
        row, b = np.divmod(e, w)
        a = row % w
        col = row - a + b
        keep = self._related[route[row], route[col]]
        e, row, col, a, b = e[keep], row[keep], col[keep], a[keep], b[keep]
        # a flight's table row holds its pairs with earlier flights, then those
        # with later ones, each by flight: the pair (s, a, b) sits at column
        # slot_a of the row of (s, a) and slot_b of that of (s, b)
        earlier, later = np.bincount(col, minlength=x.size), np.bincount(row, minlength=x.size)
        count = earlier + later
        slot_a = earlier[row] + np.arange(len(e)) - (np.cumsum(later) - later)[row]
        by_col = col.astype(np.min_scalar_type(x.size)).argsort(kind="stable")  # radix, if small
        slot_b = np.empty(len(e), dtype=np.intp)
        slot_b[by_col] = np.arange(len(e)) - (np.cumsum(earlier) - earlier)[col[by_col]]
        widths = count.reshape(len(steps), w).max(axis=1)
        width = widths[row // w]
        cells = np.array([a * width + slot_a, b * width + slot_b])
        cells = cells.astype(np.min_scalar_type(int((m * widths).max())))
        ab = np.array([a, b], dtype=np.min_scalar_type(w - 1))
        planar2, flight = planar2.ravel()[e], flight.astype(np.int32)
        bounds = (row // w).searchsorted(np.arange(len(steps) + 1)).tolist()
        for k, (at_n, lo, rows) in enumerate(zip(steps.tolist(), first.tolist(), m.tolist())):
            pairs = slice(bounds[k], bounds[k + 1])
            self._pairs[(d_comm_m, at_n)] = (flight[lo:lo + rows], ab[:, pairs], planar2[pairs],
                                             cells[:, pairs], int(widths[k]))


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
    = min(n - s, K), both just after a spawn and after a step, and is
    enroute while k < K. ``position`` looks it up; a step writes only the
    altitudes of the aircraft changing layer and the phase of its arrivals.
    ``neighbors`` and ``detect_los`` measure only the plan's pairs of the
    step, from the plan's planar2 and the records' altitudes.
    """

    def __init__(self, scenario: Scenario, config: SimConfig):
        self.scenario = scenario
        self.net: Network = scenario.network
        self.config = config
        # Integer clock: t, decision ticks and the horizon all derive from n_steps.
        self.n_steps = 0
        self._interval_steps = round(config.decision_interval_s / config.dt_s)
        self._horizon_steps = math.ceil(config.max_episode_time_s / config.dt_s - 1e-9)
        geometry = scenario.geometry[0]  # by flight id
        self._plan = plan = motion_plan(scenario, config)
        # memoryviews: iterating one yields Python ints and floats
        self._los_a, self._los_b = memoryview(plan.los_a), memoryview(plan.los_b)
        self._los_planar2 = memoryview(plan.los_planar2)
        self._los_steps, self._arrivals = plan.los_steps, plan.arrivals
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

    def position(self, ac: AircraftState) -> tuple[float, float, str]:
        """(x_m, y_m, member) of a spawned aircraft: its planned track's point
        k = min(n_steps - spawn_step, K), and the network member whose zone
        it counts for there, the vertiport when it sits exactly on a route
        node, as at spawn and on arrival, and otherwise the route link it is
        on."""
        (xs, ys, ds, arrival), (_, cum, _, segments) = ac.track, ac.geometry
        k = self.n_steps - ac.spawn_step
        if not 0 <= k < arrival:
            if k < 0:
                raise SimulationError(f"aircraft '{ac.id}' has no position before it spawns")
            return xs[arrival], ys[arrival], self.net.links[segments[-1][7]].to_id
        d = ds[k]
        seg = segments[bisect_right(cum, d) - 1]
        return xs[k], ys[k], seg[8] if d == seg[0] else seg[7]

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
        """Moves each enroute aircraft that is changing layer (b_changing)
        one dt_s toward its target, snapping without overshoot; along-track
        motion is the plan's. Then the aircraft whose tracks end at the next
        step, the plan's arrivals, leave the enroute index as ARRIVED, each
        with the altitude and lock of its last step."""
        step_ft = self.config.climb_rate_fpm / 60.0 * self.config.dt_s
        enroute = self._enroute
        for ac in filter(attrgetter("b_changing"), enroute):
            delta = ac.z_target_ft - ac.z_ft
            if abs(delta) <= step_ft:
                ac.z_ft = ac.z_target_ft
                ac.b_changing = False
            else:
                ac.z_ft += math.copysign(step_ft, delta)
        for i in self._arrivals.get(self.n_steps + 1, ()):
            at = bisect_left(enroute, i, key=attrgetter("flight_index"))
            if at < len(enroute) and enroute[at].flight_index == i:
                enroute.pop(at).phase = Phase.ARRIVED

    def neighbors(self, limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each enroute aircraft's nearest aircraft on a related route within
        planar range, dx*dx + dy*dy <= d_comm*d_comm, at most limit of them,
        as flat arrays (row, other, distance): enroute indices and the 3-D
        distance, rows ascending, then ascending by (distance, enroute index).
        The pairs and their planar2 are the motion plan's for this step; a
        pair with a flight not yet spawned, as at a step whose departures are
        still due, is dropped. Only the altitudes come from the records. Each
        row's few entries are sorted in a compact (n, largest count) table;
        no (n, n) array is formed."""
        flights, ab, planar2, cells, width = self._plan.neighbor_pairs(
            self.config.d_comm_m, self.n_steps, self._interval_steps)
        acs = self._enroute
        n = len(acs)
        # the world's enroute flights are the plan's, less any departures still due
        if n < len(flights):  # rows by flight index; pairs with an unspawned flight go
            row_of = np.full(len(self._records), -1)
            row_of[[ac.flight_index for ac in acs]] = np.arange(n)
            ab = row_of[flights[ab]]
            spawned = np.minimum(*ab) >= 0
            ab, planar2 = ab[:, spawned], planar2[spawned]
            cells = ab * width + cells[:, spawned] % width
        z = np.array([ac.z_ft for ac in acs])
        dist = z[ab[0]] - z[ab[1]]  # dz, then the pair's distance, in place
        dist *= FT_TO_M
        dist *= dist
        dist += planar2
        np.sqrt(dist, out=dist)
        # a dropped pair leaves an inf cell, which sorts after every entry
        table, other = np.full(n * width, np.inf), np.empty(n * width, dtype=ab.dtype)
        table[cells] = dist
        other[cells] = ab[::-1]
        nearest = np.argsort(table.reshape(n, width), axis=1, kind="stable")[:, :limit]
        nearest += width * np.arange(n)[:, None]
        dist = table[nearest]
        found = dist < np.inf
        return np.nonzero(found)[0], other[nearest[found]], dist[found]

    def detect_los(self) -> list[tuple[str, str, float]]:
        """All enroute pairs closer than d_los in 3-D, as (id_a, id_b, dist)
        with id_a < id_b, ordered by the pair's enroute positions. Not
        route-filtered: separation is violated by geometry alone. Only the
        motion plan's candidates of the current step are measured, from their
        planned planar2 and the records' altitudes: every pair the tracks
        bring within d_los in both x and y, which holds every pair closer
        than d_los in 3-D."""
        span = self._los_steps.get(self.n_steps)
        if span is None:
            return []
        lo, hi = span
        records, enroute, d_los = self._records, Phase.ENROUTE, self.config.d_los_m
        hits = []
        for i, j, planar2 in zip(self._los_a[lo:hi], self._los_b[lo:hi],
                                 self._los_planar2[lo:hi]):
            a, b = records[i], records[j]
            if a.phase is enroute and b.phase is enroute:
                dz = (a.z_ft - b.z_ft) * FT_TO_M
                if (d := math.sqrt(planar2 + dz * dz)) < d_los:
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
