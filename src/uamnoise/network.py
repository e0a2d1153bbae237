"""Layered vertiport/corridor topology, routes, noise zones, and scenarios.

Coordinates are a local flat-earth projection in meters. Altitude layers are
in feet. A scenario file bundles the network with a flight list; see
``load_scenario`` for the schema.
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import accumulate

import numpy as np

from .errors import NoPathError, ValidationError, check_number, to_number

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
            try:
                routes[fl.id] = route(fl.origin, fl.destination)
            except ValidationError as exc:  # the same class, NoPathError included
                raise type(exc)(f"flight '{fl.id}': {exc}") from None
        object.__setattr__(self, "routes", routes)

    @cached_property
    def geometry(self) -> tuple[dict[str, tuple], np.ndarray]:
        """Per flight id, its route's geometry, shared by equal routes: (polyline
        points, cumulative lengths, route number, segments), each segment a link
        as (start, end, length, origin x, origin y, extent x, extent y, link id,
        vertiport it leaves) for the distances [start, end) along the route; and
        route_intersections of the distinct routes, by route number. Computed
        on first use and read-only, so every world of the scenario shares it."""
        net = self.network
        unique = {r.link_ids: r for r in self.routes.values()}
        geometry = {}
        for no, (link_ids, route) in enumerate(unique.items()):
            pts = tuple((vp.x_m, vp.y_m)
                        for vp in map(net.vertiports.__getitem__, route_nodes(net, route)))
            cum = tuple(accumulate(map(net.link_length_m, link_ids), initial=0.0))
            segments = tuple(
                (cum[i], cum[i + 1], cum[i + 1] - cum[i], ax, ay, bx - ax, by - ay, lid,
                 net.links[lid].from_id)
                for i, (lid, (ax, ay), (bx, by)) in enumerate(zip(link_ids, pts, pts[1:])))
            geometry[link_ids] = (pts, cum, no, segments)
        related = route_intersections(net, list(unique.values()))
        related.setflags(write=False)
        return {i: geometry[r.link_ids] for i, r in self.routes.items()}, related

    @cached_property
    def motion_plans(self) -> dict:
        """The simulator's motion plans of this scenario, by their key (see
        sim.motion_plan): each is built on first use and read-only, so, like
        geometry, every world of the scenario shares it."""
        return {}


# ---------------------------------------------------------------------------
# File I/O


def _parse_document(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed scenario file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        raise ValidationError(f"{path}: missing or unsupported schema version (need schema: 1)")
    return doc


def _network_from_doc(doc: dict, path) -> Network:
    try:
        vertiports: dict[str, Vertiport] = {}
        for row in doc["vertiports"]:
            vp = Vertiport(str(row["id"]), to_number(row["x_m"]), to_number(row["y_m"]))
            if vp.id in vertiports:
                raise ValidationError(f"duplicate vertiport id '{vp.id}'")
            vertiports[vp.id] = vp

        links: dict[str, Link] = {}
        pair_count: dict[tuple[str, str], int] = {}
        for row in doc["links"]:
            link = Link(str(row["id"]), str(row["from"]), str(row["to"]))
            if link.id in links:
                raise ValidationError(f"duplicate link id '{link.id}'")
            if link.from_id == link.to_id:
                raise ValidationError(f"link '{link.id}' is a self-loop")
            for end in (link.from_id, link.to_id):
                if end not in vertiports:
                    raise ValidationError(f"link '{link.id}' references missing vertiport '{end}'")
            pair = tuple(sorted((link.from_id, link.to_id)))
            pair_count[pair] = pair_count.get(pair, 0) + 1
            if pair_count[pair] > 2:
                raise ValidationError(f"vertiport pair {pair} has more than two links")
            links[link.id] = link

        layers = AltitudeLayerSet(tuple(map(to_number, doc["layers_ft"])))

        zones: dict[str, NoiseZone] = {}
        for row in doc.get("zones", []):
            zone = NoiseZone(str(row["id"]), tuple(str(m) for m in row["members"]),
                             to_number(row["ambient_db"]))
            if zone.id in zones:
                raise ValidationError(f"duplicate zone id '{zone.id}'")
            zones[zone.id] = zone
    except KeyError as exc:
        raise ValidationError(f"{path}: missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: bad field value: {exc}") from exc

    return Network(vertiports, links, layers, zones)


def load_scenario(path) -> Scenario:
    """Load a full scenario: network plus flight list, with routes built."""
    doc = _parse_document(path)
    net = _network_from_doc(doc, path)
    flights: list[Flight] = []
    seen: set[str] = set()
    for row in doc.get("flights", []):
        try:
            fl = Flight(str(row["id"]), str(row["origin"]), str(row["destination"]),
                        to_number(row["departure_s"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: bad flight record {row}: {exc}") from exc
        if fl.id in seen:
            raise ValidationError(f"duplicate flight id '{fl.id}'")
        seen.add(fl.id)
        for vid in (fl.origin, fl.destination):
            if vid not in net.vertiports:
                raise ValidationError(f"flight '{fl.id}' references missing vertiport '{vid}'")
        flights.append(fl)
    return Scenario(net, tuple(flights))


def save_scenario(scenario: Scenario, path) -> None:
    """Serialize a scenario; output is byte-stable for identical inputs."""
    net = scenario.network
    doc = {
        "schema": SCHEMA_VERSION,
        "vertiports": [
            {"id": v.id, "x_m": v.x_m, "y_m": v.y_m} for v in net.vertiports.values()
        ],
        "links": [
            {"id": l.id, "from": l.from_id, "to": l.to_id} for l in net.links.values()
        ],
        "layers_ft": list(net.layers.levels_ft),
        "zones": [
            {"id": z.id, "members": list(z.members), "ambient_db": z.ambient_db}
            for z in net.zones.values()
        ],
        "flights": [
            {"id": f.id, "origin": f.origin, "destination": f.destination,
             "departure_s": f.departure_s}
            for f in scenario.flights
        ],
    }
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
