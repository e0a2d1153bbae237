"""Discrete-time kinematic world over the corridor network.

Advances aircraft along frozen route polylines, executes altitude transitions
under the completion lock, finds in-range neighbors on related routes, and
records loss-of-separation events. Horizontal motion depends on no action, so
it is planned once per scenario and configuration (``MotionPlan``), from the
scenario's routes: spawn steps, positions, arrivals, and both pair queries'
pairs and planar distances.

Altitudes live in feet; positions in meters. Every distance follows one rule:
sqrt(planar2 + dz*dz), with planar2 = dx*dx + dy*dy from the plan's tracks and
dz = (z_a - z_b) * FT_TO_M (factor 0.3048 exact) from the live altitudes.
Python and NumPy round each of its operations alike, so ``detect_los`` and
``World.neighbors`` give the same bits, and it is bitwise symmetric, as
negation is exact.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from itertools import accumulate
from operator import attrgetter

import numpy as np

from .errors import SimulationError, ValidationError, check_number
from .network import AltitudeLayerSet, Network, Route, Scenario, route_intersections

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
    """A flight's id and fixed index in scenario.flights, then its state. Its
    motion is the MotionPlan's, by flight index; World.position reads it."""

    id: str
    flight_index: int
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


class MotionPlan:
    """The horizontal motion of a scenario's flights under one (dt_s,
    cruise_speed_mps, d_los_m). Along-track motion depends on no action and no
    altitude, so these fix which aircraft are enroute at each step, where each
    is in the plane, which pairs the plane brings within d_los, and which
    related pairs within a d_comm. Built once per key by ``motion_plan``; only
    the neighbour pairs are added to afterwards, one step at a time, at the
    steps a world observes. A world reads its spawns, positions, arrivals,
    end and both pair queries' pairs and planar distances from here.

    - ``points`` holds each distinct route's track, one (x_m, y_m, member)
      per step k since spawn, for k = 0 (the origin) up to K, the first step
      whose distance along the route reaches its length; there it sits on
      the destination. The distance after k steps is k additions of
      cruise_speed_mps * dt_s, and the position x = ax + f*ex of the link
      that holds it, as a step loop would compute them. The member is the
      network member whose zone the point counts for: the vertiport at k = 0
      and K, and the one a link leaves when the point is exactly on its
      start; otherwise the link. The routes are numbered once, in flight
      order, and their relation is ``route_intersections``'s, read-only.
    - ``spans[i]``, for flight index i, is (column, spawn, end): spawn is the
      first n with n * dt_s >= departure_s, end = spawn + K, and at step n >=
      spawn the flight sits at points[column + min(n, end)], enroute while n
      < end.
    - ``departures`` and ``arrivals`` map a step n to the flight indices i,
      ascending, whose spawn, and whose end, is n.
    - ``los_steps`` maps a step n to a range [lo, hi) of ``los_a`` and
      ``los_b``: the flight-index pairs a < b, ascending, that are both
      enroute at n by their tracks (spawned at or before n, and not arrived)
      and there at |dx| <= d_los and |dy| < d_los, and ``los_planar2`` their
      dx*dx + dy*dy. Both cut-offs are exact, since the 3-D distance is never
      below |dx| or |dy|: in binary floating point sqrt(y*y) rounds back to
      |y|, and rounding is monotone.
    - ``neighbor_pairs(d_comm_m, n, spawned)`` gives, among the flights
      enroute at n by their tracks and spawned at or before step spawned, the
      pairs on related routes and there within planar range, dx*dx + dy*dy <=
      d_comm*d_comm, with that planar2, and keeps them.

    The LOS candidate search bins the (flight, step) positions into cells of
    side w > d_los (just above, unless the network's extent caps the cell
    count), keyed by (step, column, row): a pair within the cut-offs lies in
    the same or adjacent cells, so each position is compared with those of
    its own and the next cell up, and of the three cells of the next column.
    The neighbour pairs, whose d_comm spans much of a network, come from
    every pair of the flights, in (flights, flights) arrays.
    """

    def __init__(self, scenario: Scenario, dt_s: float, cruise_speed_mps: float,
                 d_los_m: float):
        net, flights = scenario.network, scenario.flights
        number: dict[Route, int] = {}  # each distinct route's number, in flight order
        route = np.array([number.setdefault(scenario.routes[fl.id], len(number))
                          for fl in flights], dtype=np.intp)
        # Each route's links as (route, start, end, length, origin x, origin y,
        # extent x, extent y) for the distances [start, end) along the route,
        # with the link id and the vertiport it leaves.
        links, names, length = [], [], []
        for r, rt in enumerate(number):
            cum = list(accumulate(map(net.link_length_m, rt.link_ids), initial=0.0))
            for lid, a, b in zip(rt.link_ids, cum, cum[1:]):
                (ax, ay), (bx, by) = net.link_segment(lid)
                links.append((r, a, b, b - a, ax, ay, bx - ax, by - ay))
                names.append((lid, net.links[lid].from_id))
            length.append(cum[-1])
        length = np.array(length)
        step_m = cruise_speed_mps * dt_s
        # Distance after k steps, by k additions (np.cumsum adds in order), far
        # enough for the longest route: the slack outlasts the sum's rounding.
        along = np.cumsum(np.full(int(length.max(initial=0.0) / step_m * (1 + 1e-6)) + 2,
                                  step_m))
        along = np.concatenate(([0.0], along))
        arrival = np.maximum(np.searchsorted(along, length), 1)

        # Route r's track is column start[r] + k, k = 0 .. arrival[r], of xy
        # and member. Each link holds the steps k with start <= along[k] < end.
        start = np.cumsum(arrival + 1) - (arrival + 1)
        size = start[-1] + arrival[-1] + 1 if number else 0
        xy, member = np.empty((2, size)), np.empty(size, dtype=object)
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
        lid, leaves = np.array(names, dtype=object).reshape(-1, 2).T
        member[at] = np.where(along[k] == a[link], leaves[link], lid[link])
        # k = 0 sits on the origin, and K on the destination
        for rt, s, n in zip(number, start.tolist(), arrival.tolist()):
            for col, vid in ((s, rt.origin), (s + n, rt.destination)):
                vp = net.vertiports[vid]
                xy[:, col], member[col] = (vp.x_m, vp.y_m), vid
        self.points = list(zip(*xy.tolist(), member.tolist()))

        departure = np.array([fl.departure_s for fl in flights], dtype=float)
        spawn = np.ceil(np.minimum(departure / dt_s, _LAST_STEP))
        # The first n with n * dt_s >= departure: n * dt_s is monotone in n.
        while (early := (spawn >= 1) & (spawn < _LAST_STEP)
               & ((spawn - 1) * dt_s >= departure)).any():
            spawn[early] -= 1
        while (late := (spawn < _LAST_STEP) & (spawn * dt_s < departure)).any():
            spawn[late] += 1
        spawn = spawn.astype(np.int64)
        self._plan_los(xy, start, arrival, route, spawn, d_los_m)
        # a flight is enroute at the steps n with _spawn <= n < _end, at the
        # track column _column + n
        self._xy, self._column = xy, start[route] - spawn
        self._spawn, self._end = spawn, spawn + arrival[route]
        self.spans = list(zip(self._column.tolist(), spawn.tolist(), self._end.tolist()))
        self.departures: dict[int, list[int]] = {}
        self.arrivals: dict[int, list[int]] = {}
        for i, (_, s, e) in enumerate(self.spans):
            self.departures.setdefault(s, []).append(i)
            self.arrivals.setdefault(e, []).append(i)
        self._route = route
        self._related = route_intersections(net, list(number))
        self._related.setflags(write=False)
        self._pairs: dict[tuple[float, int, int], tuple] = {}

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

    def neighbor_pairs(self, d_comm_m: float, n: int, spawned: int) -> tuple:
        """(ab, planar2, cells, width) of the neighbour pairs at step n among
        the flights enroute at n by their tracks and spawned at or before
        step spawned (n, or n - 1 while step n's departures are due), in
        ascending flight index: each pair once, as a column (a, b) of ab (2,
        pairs), positions a < b among those flights, ascending, with its
        float64 planar2; and, in that column of cells, its flat index in a's
        and in b's row of a (flights, width) table whose row holds a flight's
        pairs in flight order of the other, width being the largest count.
        Positions and cells take the smallest unsigned type that holds them.
        Kept under (d_comm_m, n, spawned): a scenario's first episode plans
        the steps its worlds observe, and every later one reads them."""
        if (key := (d_comm_m, n, spawned)) in self._pairs:
            return self._pairs[key]
        flights = np.flatnonzero((self._spawn <= spawned) & (n < self._end))
        x, y = self._xy[:, self._column[flights] + n]
        route = self._route[flights]
        planar2, dy = x[:, None] - x, y[:, None] - y
        planar2 *= planar2
        dy *= dy
        planar2 += dy
        near = planar2 <= d_comm_m * d_comm_m
        near &= self._related[route[:, None], route]
        np.fill_diagonal(near, False)
        # a pair's slot in each flight's row is the other's rank among its pairs
        rank = near.cumsum(axis=1) - 1
        a, b = np.nonzero(np.triu(near))
        m, width = len(flights), int(near.sum(axis=1).max(initial=0))
        cells = np.array([a * width + rank[a, b], b * width + rank[b, a]])
        self._pairs[key] = (np.array([a, b], dtype=np.min_scalar_type(max(m - 1, 0))),
                            planar2[a, b], cells.astype(np.min_scalar_type(m * width)), width)
        return self._pairs[key]


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
    phase is ENROUTE, in ``flight_index`` order, and ``_spawned`` is the last
    step whose departures have spawned: n, or n - 1 until step n's spawn, so
    the PENDING aircraft are exactly those whose spawn step is later. Only
    ``spawn_due_aircraft`` (PENDING -> ENROUTE) and ``advance_kinematics``
    (ENROUTE -> ARRIVED) change ``phase``, and each keeps the index in step, so
    the queries read the index instead of scanning every aircraft.

    Horizontal motion comes from the scenario's MotionPlan for (dt_s,
    cruise_speed_mps, d_los_m), shared by every world of the scenario with
    that key, and so do the spawn and arrival steps: at step n an aircraft
    spawned at step s sits on its track at k = min(n - s, K), both just after
    a spawn and after a step, and is enroute while k < K. ``position`` looks
    it up by flight index; a step writes only the altitudes of the aircraft
    changing layer and the phase of its spawns and arrivals.
    ``neighbors`` measures only the plan's neighbour pairs of the enroute
    flights at the step, and ``detect_los`` its LOS candidates, from the
    plan's planar2 and the records' altitudes.
    """

    def __init__(self, scenario: Scenario, config: SimConfig):
        self.scenario = scenario
        self.net: Network = scenario.network
        self.config = config
        # Integer clock: t, decision ticks and the horizon all derive from n_steps.
        self.n_steps = 0
        self._interval_steps = round(config.decision_interval_s / config.dt_s)
        self._plan = plan = motion_plan(scenario, config)
        # the last step: the horizon's, or the last arrival's if earlier
        self._last_step = min(math.ceil(config.max_episode_time_s / config.dt_s - 1e-9),
                              max(plan.arrivals, default=0))
        # memoryviews: iterating one yields Python ints and floats
        self._los_a, self._los_b = memoryview(plan.los_a), memoryview(plan.los_b)
        self._los_planar2 = memoryview(plan.los_planar2)
        self._los_steps, self._departures, self._arrivals = (
            plan.los_steps, plan.departures, plan.arrivals)
        self._points, self._spans = plan.points, plan.spans
        self._records = [AircraftState(fl.id, i) for i, fl in enumerate(scenario.flights)]
        self.aircraft = {ac.id: ac for ac in self._records}
        self._spawned = -1  # the enroute index (see the class docstring)
        self._enroute: list[AircraftState] = []

        self.los_events: list[LosEvent] = []
        self._active_los: dict[tuple[str, str], tuple[float, float]] = {}  # pair -> (onset, min d)

    # -- queries ----------------------------------------------------------

    def enroute(self) -> list[AircraftState]:
        """The enroute aircraft in scenario-flight order, as a new list: a
        spawn inserts into the index's own list in place."""
        return self._enroute.copy()

    def position(self, ac: AircraftState) -> tuple[float, float, str]:
        """(x_m, y_m, member) of a spawned aircraft: the motion plan's point
        of its track at k = min(n_steps - spawn, K) (see MotionPlan.points)."""
        column, spawn, end = self._spans[ac.flight_index]
        if (n := self.n_steps) < spawn:
            raise SimulationError(f"aircraft '{ac.id}' has no position before it spawns")
        return self._points[column + (n if n < end else end)]  # min(n, end), without a call

    @property
    def t(self) -> float:
        return self.n_steps * self.config.dt_s

    def is_decision_tick(self) -> bool:
        return self.n_steps % self._interval_steps == 0

    @property
    def terminal(self) -> bool:
        """At the horizon, or once every flight has arrived."""
        return self.n_steps >= self._last_step

    # -- dynamics ---------------------------------------------------------

    def spawn_due_aircraft(self) -> None:
        """The flights whose spawn step (MotionPlan.departures) is this one,
        the first step at or past their departure time, enter the network at
        their origin on the lowest layer, level; once per step."""
        if self._spawned == (n := self.n_steps):
            return
        self._spawned = n
        for ac in map(self._records.__getitem__, self._departures.get(n, ())):
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
        The pairs and their planar2 are the motion plan's for this step and
        the last step spawned, which is the step before it while its
        departures are still due, as at the last observation of an episode
        the horizon cuts. Only the altitudes come from the records. Each
        row's few entries are sorted in a compact (n, largest count) table."""
        acs = self._enroute
        ab, planar2, cells, width = self._plan.neighbor_pairs(
            self.config.d_comm_m, self.n_steps, self._spawned)
        n = len(acs)
        z = np.array([ac.z_ft for ac in acs])
        dist = z[ab[0]] - z[ab[1]]  # dz, then the pair's distance, in place
        dist *= FT_TO_M
        dist *= dist
        dist += planar2
        np.sqrt(dist, out=dist)
        # an empty cell stays inf, which sorts after every entry
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
