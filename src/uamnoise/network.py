"""Layered vertiport/corridor topology, routes, noise zones, and scenarios.

Coordinates are a local flat-earth projection in meters. Altitude layers are
in feet. A scenario file bundles the network with a flight list; ``ROWS``
states its schema.
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import astuple, dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from .errors import (NoPathError, ValidationError, check_number, check_object, check_type,
                     read_json, to_number)

SCHEMA_VERSION = 1

#: Bound on |x| and |y| of a position (m), so squared distances stay finite.
COORD_LIMIT_M = 1e7


@dataclass(frozen=True)
class Vertiport:
    id: str
    x_m: float
    y_m: float

    def __post_init__(self):
        check_number(f"vertiport '{self.id}' x_m", self.x_m, -COORD_LIMIT_M, COORD_LIMIT_M)
        check_number(f"vertiport '{self.id}' y_m", self.y_m, -COORD_LIMIT_M, COORD_LIMIT_M)


@dataclass(frozen=True)
class Link:
    """Directed corridor between two vertiports."""

    id: str
    from_id: str
    to_id: str


@dataclass(frozen=True)
class AltitudeLayerSet:
    levels_ft: tuple[float, ...] = (1000.0, 1500.0, 2000.0, 2500.0, 3000.0)

    def __post_init__(self):
        for i, z in enumerate(levels := self.levels_ft):
            check_number(f"layers_ft[{i}]", z, 0, above=True)
        if len(levels) < 2 or any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValidationError(f"layers_ft must be two or more strictly increasing "
                                  f"levels, got {list(levels)}")

    @property
    def z_min(self) -> float:
        return self.levels_ft[0]

    @property
    def z_max(self) -> float:
        return self.levels_ft[-1]

    def index_of(self, z_ft: float) -> int:
        """Index of the exact layer value; raises if z is between layers."""
        try:
            return self.levels_ft.index(z_ft)
        except ValueError:
            raise ValidationError(f"altitude {z_ft} ft is not a layer of {self.levels_ft}")


@dataclass(frozen=True)
class NoiseZone:
    id: str
    members: tuple[str, ...]  # link and vertiport ids
    ambient_db: float

    def __post_init__(self):
        # From the threshold of hearing to beyond any sound in air; an extreme
        # level would overflow the zone sums of the noise report.
        check_number(f"zone '{self.id}' ambient_db", self.ambient_db, 0, 200)


@dataclass(frozen=True)
class Route:
    """Immutable link chain from origin to destination."""

    link_ids: tuple[str, ...]
    origin: str
    destination: str


@dataclass(frozen=True)
class Flight:
    id: str
    origin: str
    destination: str
    departure_s: float

    def __post_init__(self):
        check_number(f"flight '{self.id}' departure_s", self.departure_s, 0)


@dataclass(frozen=True)
class Network:
    vertiports: dict[str, Vertiport]
    links: dict[str, Link]
    layers: AltitudeLayerSet
    zones: dict[str, NoiseZone]

    def link_length_m(self, link_id: str) -> float:
        (ax, ay), (bx, by) = self.link_segment(link_id)
        return math.hypot(bx - ax, by - ay)

    def link_segment(self, link_id: str) -> tuple[tuple[float, float], tuple[float, float]]:
        link = self.links[link_id]
        a = self.vertiports[link.from_id]
        b = self.vertiports[link.to_id]
        return (a.x_m, a.y_m), (b.x_m, b.y_m)

    def zone_of(self, member_id: str) -> str:
        return self._member_zone[member_id]

    def __post_init__(self):
        pair_count: dict[tuple[str, str], int] = {}
        for lid, link in self.links.items():
            if link.from_id == link.to_id:
                raise ValidationError(f"link '{lid}' is a self-loop")
            for end in (link.from_id, link.to_id):
                if end not in self.vertiports:
                    raise ValidationError(f"link '{lid}' references missing vertiport '{end}'")
            if self.link_length_m(lid) == 0.0:
                vp = self.vertiports[link.from_id]
                raise ValidationError(
                    f"link '{lid}' has zero length: its ends '{link.from_id}' and "
                    f"'{link.to_id}' share x_m {vp.x_m} and y_m {vp.y_m}")
            pair = tuple(sorted((link.from_id, link.to_id)))
            pair_count[pair] = pair_count.get(pair, 0) + 1
            if pair_count[pair] > 2:
                raise ValidationError(f"vertiport pair {pair} has more than two links")
        member_zone: dict[str, str] = {}
        for zone in self.zones.values():
            for mid in zone.members:
                if mid in member_zone:
                    raise ValidationError(
                        f"member '{mid}' appears in zones '{member_zone[mid]}' and '{zone.id}'"
                    )
                if mid not in self.links and mid not in self.vertiports:
                    raise ValidationError(f"zone '{zone.id}' references unknown member '{mid}'")
                member_zone[mid] = zone.id
        if self.zones:
            for lid in self.links:
                if lid not in member_zone:
                    raise ValidationError(f"link '{lid}' belongs to no noise zone")
            for vid in self.vertiports:
                if vid not in member_zone:
                    raise ValidationError(f"vertiport '{vid}' belongs to no noise zone")
        object.__setattr__(self, "_member_zone", member_zone)


@dataclass(frozen=True)
class Scenario:
    """A network and its flights; routes, by flight id, holds one Route per O-D pair."""

    network: Network
    flights: tuple[Flight, ...]
    routes: dict[str, Route] = field(init=False)

    def __post_init__(self):
        route = cache(partial(build_route, self.network))  # one build_route per O-D pair
        routes = {}
        for fl in self.flights:
            if fl.id in routes:
                raise ValidationError(f"duplicate flight id '{fl.id}'")
            try:
                routes[fl.id] = route(fl.origin, fl.destination)
            except ValidationError as exc:  # the same class, NoPathError included
                raise type(exc)(f"flight '{fl.id}': {exc}") from None
        object.__setattr__(self, "routes", routes)

    @cached_property
    def motion_plans(self) -> dict:
        """The simulator's motion plans of this scenario, by their key (see
        sim.motion_plan): each is built on first use, and only its neighbour
        pairs are added to afterwards, so every world of the scenario shares it."""
        return {}


# ---------------------------------------------------------------------------
# File I/O


#: The scenario document's shape: schema (SCHEMA_VERSION), layers_ft (a list of
#: numbers) and these row lists, each with its row class and its rows' keys, in
#: the order of the class's fields, with the JSON kind of each value (float: a
#: number, which the class checks; members lists ids). zones and flights may be
#: left out, and a row's other keys are ignored.
ROWS = {
    "vertiports": (Vertiport, {"id": str, "x_m": float, "y_m": float}),
    "links": (Link, {"id": str, "from": str, "to": str}),
    "zones": (NoiseZone, {"id": str, "members": list, "ambient_db": float}),
    "flights": (Flight, {"id": str, "origin": str, "destination": str, "departure_s": float}),
}


def _row_args(doc: dict, list_key: str) -> list[list]:
    """The class arguments of each row of doc[list_key], once the list has the
    shape ROWS states."""
    keys, args = ROWS[list_key][1], []
    for i, row in enumerate(check_type(list_key, doc.get(list_key, []), list)):
        check_object(f"{list_key}[{i}]", row, keys)
        args.append([_value(f"{list_key}[{i}].{key}", row[key], kind)
                     for key, kind in keys.items()])
    return args


def _value(name: str, value, kind: type):
    if kind is float:
        return to_number(value)
    if kind is list:
        return tuple(_value(f"{name}[{j}]", member, str)
                     for j, member in enumerate(check_type(name, value, list)))
    return check_type(name, value, kind)


def _by_id(kind: str, items) -> dict:
    out = {}
    for item in items:
        if item.id in out:
            raise ValidationError(f"duplicate {kind} id '{item.id}'")
        out[item.id] = item
    return out


def load_scenario(path) -> Scenario:
    """Load a full scenario: network plus flight list, with routes built. The
    document's whole shape (ROWS) is checked before any row is built."""
    doc = read_json(path, "scenario file")
    if check_type("", doc, dict).get("schema") != SCHEMA_VERSION:
        raise ValidationError(f"{path}: missing or unsupported schema version (need schema: 1)")
    check_object("", doc, ("vertiports", "links", "layers_ft"))
    levels = tuple(map(to_number, check_type("layers_ft", doc["layers_ft"], list)))
    args = {key: _row_args(doc, key) for key in ROWS}
    rows = {key: [cls(*values) for values in args[key]] for key, (cls, _) in ROWS.items()}
    net = Network(_by_id("vertiport", rows["vertiports"]), _by_id("link", rows["links"]),
                  AltitudeLayerSet(levels), _by_id("zone", rows["zones"]))
    return Scenario(net, tuple(rows["flights"]))


def save_scenario(scenario: Scenario, path) -> None:
    """Serialize a scenario; output is byte-stable for identical inputs."""
    net = scenario.network
    rows = {"vertiports": net.vertiports.values(), "links": net.links.values(),
            "zones": net.zones.values(), "flights": scenario.flights}
    doc = {"schema": SCHEMA_VERSION, "layers_ft": list(net.layers.levels_ft)}
    for key, (_, keys) in ROWS.items():
        doc[key] = [dict(zip(keys, astuple(row))) for row in rows[key]]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Routing


def build_route(network: Network, origin: str, destination: str) -> Route:
    """Shortest directed path by total link length; equal-length paths break
    ties by lexicographic link-id sequence."""
    if origin == destination:
        raise ValidationError("origin and destination must differ")
    for vid in (origin, destination):
        if vid not in network.vertiports:
            raise ValidationError(f"unknown vertiport '{vid}'")

    out_links: dict[str, list[Link]] = {vid: [] for vid in network.vertiports}
    for link in network.links.values():
        out_links[link.from_id].append(link)
    for lst in out_links.values():
        lst.sort(key=lambda l: l.id)

    # Dijkstra over (cost, link-id path) so the heap order itself applies the
    # lexicographic tie-break on equal costs.
    best: dict[str, tuple[float, tuple[str, ...]]] = {}
    heap: list[tuple[float, tuple[str, ...], str]] = [(0.0, (), origin)]
    while heap:
        cost, path, node = heapq.heappop(heap)
        if node in best and (cost, path) >= best[node]:
            continue
        best[node] = (cost, path)
        if node == destination:
            return Route(path, origin, destination)
        for link in out_links[node]:
            nxt = (cost + network.link_length_m(link.id), path + (link.id,), link.to_id)
            if link.to_id not in best or (nxt[0], nxt[1]) < best[link.to_id]:
                heapq.heappush(heap, nxt)
    raise NoPathError(f"no route from '{origin}' to '{destination}'")


def route_nodes(network: Network, route: Route) -> list[str]:
    """The vertiports a route visits, origin first; a route from build_route
    is a connected chain from its origin to its destination."""
    return [route.origin, *(network.links[lid].to_id for lid in route.link_ids)]


def route_intersections(network: Network, routes: list[Route]) -> np.ndarray:
    """Which routes interact, as a symmetric boolean matrix indexed by their
    positions in routes. Two routes interact when they share a vertiport (as
    they do when they share a corridor in either direction) or when link
    segments of theirs cross at an interior point of both.

    One NumPy pass: shared vertiports from a route x vertiport incidence
    product, and crossings from a link x link matrix through a route x link
    incidence product. Segments p1-p2 and p3-p4, with d1 = p2 - p1 and
    d2 = p4 - p3, cross when denom = d1 x d2 is nonzero and t = ((p3 - p1) x
    d2) / denom and u = ((p3 - p1) x d1) / denom both lie strictly between 0
    and 1; parallel and collinear segments (denom 0) never cross, and a zero
    denominator is never divided by."""
    vertiport_no = {vid: i for i, vid in enumerate(network.vertiports)}
    link_no = {lid: i for i, lid in enumerate(network.links)}
    visits = np.zeros((len(routes), len(vertiport_no)), dtype=bool)
    uses = np.zeros((len(routes), len(link_no)), dtype=bool)
    for i, route in enumerate(routes):
        visits[i, [vertiport_no[vid] for vid in route_nodes(network, route)]] = True
        uses[i, [link_no[lid] for lid in route.link_ids]] = True
    segments = np.array([network.link_segment(lid) for lid in link_no], dtype=float)
    p1, p2 = segments.reshape(len(link_no), 2, 2).transpose(1, 2, 0)  # (x or y, link)
    d = p2 - p1
    # [:, i, j] takes link i as segment p1-p2 and link j as segment p3-p4
    d1, d2, p31 = d[:, :, None], d[:, None, :], p1[:, None, :] - p1[:, :, None]
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    safe = np.where(denom == 0.0, 1.0, denom)
    t = (p31[0] * d2[1] - p31[1] * d2[0]) / safe
    u = (p31[0] * d1[1] - p31[1] * d1[0]) / safe
    cross = (denom != 0.0) & (0.0 < t) & (t < 1.0) & (0.0 < u) & (u < 1.0)
    return (visits @ visits.T) | (uses @ cross @ uses.T)


# ---------------------------------------------------------------------------
# Scenario generation


def generate_scenario(
    network: Network,
    n_aircraft: int,
    od_pairs: list[tuple[str, str]],
    departure_spacing_s: float = 60.0,
    seed: int = 0,
) -> Scenario:
    """Assign flights to O-D pairs round-robin over a seeded shuffle, staggering
    departures per shared origin. Pure function of its arguments."""
    check_number("n_aircraft", n_aircraft, 1, integer=True)
    if not od_pairs:
        raise ValidationError("od_pairs must be nonempty")
    rng = np.random.default_rng(seed)
    order = [od_pairs[i] for i in rng.permutation(len(od_pairs))]

    flights: list[Flight] = []
    per_origin: dict[str, int] = {}
    for i in range(n_aircraft):
        origin, destination = order[i % len(order)]
        k = per_origin.get(origin, 0)
        per_origin[origin] = k + 1
        flights.append(Flight(f"AC{i + 1:03d}", origin, destination, k * departure_spacing_s))
    return Scenario(network, tuple(flights))
