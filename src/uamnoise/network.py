"""Layered vertiport/corridor topology, routes, noise zones, and scenarios.

Coordinates are a local flat-earth projection in meters. Altitude layers are
in feet. A scenario file bundles the network with a flight list; see
``load_scenario`` for the schema.
"""
from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

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
        check_number(f"zone '{self.id}' ambient_db", self.ambient_db)


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
        link = self.links[link_id]
        a = self.vertiports[link.from_id]
        b = self.vertiports[link.to_id]
        return math.hypot(b.x_m - a.x_m, b.y_m - a.y_m)

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
    network: Network
    flights: tuple[Flight, ...]
    routes: dict[str, Route]  # flight id -> precomputed, frozen route


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


def load_network(path) -> Network:
    """Load and validate the network portion of a scenario file."""
    return _network_from_doc(_parse_document(path), path)


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
    routes = {fl.id: build_route(net, fl.origin, fl.destination) for fl in flights}
    return Scenario(net, tuple(flights), routes)


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
    nodes = [route.origin]
    for lid in route.link_ids:
        link = network.links[lid]
        if link.from_id != nodes[-1]:
            raise ValidationError(f"route link '{lid}' does not continue from '{nodes[-1]}'")
        nodes.append(link.to_id)
    if nodes[-1] != route.destination:
        raise ValidationError("route does not end at its destination")
    return nodes


def _segment_crossing(p1, p2, p3, p4) -> bool:
    """True if the two segments cross at an interior point of both."""
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (p4[0] - p3[0], p4[1] - p3[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0.0:
        return False
    dx, dy = p3[0] - p1[0], p3[1] - p1[1]
    t = (dx * d2[1] - dy * d2[0]) / denom
    u = (dx * d1[1] - dy * d1[0]) / denom
    return 0.0 < t < 1.0 and 0.0 < u < 1.0


def routes_related(network: Network, r1: Route, r2: Route) -> bool:
    """Routes interact when they share a vertiport (as they do when they share
    a corridor in either direction) or their link segments cross at an
    interior point."""
    if set(route_nodes(network, r1)) & set(route_nodes(network, r2)):
        return True
    return any(_segment_crossing(*network.link_segment(l1), *network.link_segment(l2))
               for l1 in r1.link_ids for l2 in r2.link_ids)


def route_intersections(network: Network, routes: list[Route]) -> set[
        tuple[tuple[str, ...], tuple[str, ...]]]:
    """Symmetric relation over routes' link chains, as the set of related pairs."""
    relation = set()
    for i, r1 in enumerate(routes):
        for r2 in routes[i:]:
            if routes_related(network, r1, r2):
                relation |= {(r1.link_ids, r2.link_ids), (r2.link_ids, r1.link_ids)}
    return relation


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
    routes = {fl.id: build_route(network, fl.origin, fl.destination) for fl in flights}
    return Scenario(network, tuple(flights), routes)
