import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uamnoise
from uamnoise.errors import NoPathError, ValidationError
from uamnoise.network import (AltitudeLayerSet, Flight, Link, Network, NoiseZone, Route,
                              Scenario, Vertiport, build_route, generate_scenario,
                              load_scenario, route_intersections,
                              route_nodes, save_scenario)

from conftest import make_cross_network, routes_related


def write_doc(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


MINIMAL = {
    "schema": 1,
    "vertiports": [{"id": "A", "x_m": 0.0, "y_m": 0.0},
                   {"id": "B", "x_m": 1000.0, "y_m": 0.0}],
    "links": [{"id": "A-B", "from": "A", "to": "B"}],
    "layers_ft": [1000, 1500, 2000, 2500, 3000],
}


class TestLoadNetwork:
    def test_bundled_south_austin(self):
        net = load_scenario(uamnoise.bundled_scenario_path()).network
        assert len(net.vertiports) == 10
        assert len(net.links) == 38
        assert net.layers.levels_ft == (1000.0, 1500.0, 2000.0, 2500.0, 3000.0)
        # zone partition covers every link and vertiport exactly once
        members = [m for z in net.zones.values() for m in z.members]
        assert sorted(members) == sorted(list(net.links) + list(net.vertiports))

    def test_bundled_flights(self):
        sc = load_scenario(uamnoise.bundled_scenario_path())
        assert len(sc.flights) == 136
        od = {(f.origin, f.destination) for f in sc.flights}
        assert len(od) == 28

    def test_minimal_network(self, tmp_path):
        net = load_scenario(write_doc(tmp_path, MINIMAL)).network
        assert set(net.links) == {"A-B"}

    def test_dangling_link_endpoint_named(self, tmp_path):
        doc = dict(MINIMAL, links=[{"id": "A-X", "from": "A", "to": "X"}])
        with pytest.raises(ValidationError, match="A-X"):
            load_scenario(write_doc(tmp_path, doc))

    def test_duplicate_vertiport_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["vertiports"] = MINIMAL["vertiports"] + [{"id": "A", "x_m": 5.0, "y_m": 5.0}]
        with pytest.raises(ValidationError, match="duplicate vertiport"):
            load_scenario(write_doc(tmp_path, doc))

    def test_non_increasing_layers_rejected(self, tmp_path):
        doc = dict(MINIMAL, layers_ft=[1000, 1000, 2000])
        with pytest.raises(ValidationError, match="increasing"):
            load_scenario(write_doc(tmp_path, doc))

    def test_missing_schema_rejected(self, tmp_path):
        doc = {k: v for k, v in MINIMAL.items()}
        doc.pop("schema")
        with pytest.raises(ValidationError, match="schema"):
            load_scenario(write_doc(tmp_path, doc))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(ValidationError, match="malformed"):
            load_scenario(path)

    def test_zero_length_link_rejected(self):
        # checked by Network itself, so networks built in code are checked too
        vp = {"A": Vertiport("A", 5.0, -2.0), "B": Vertiport("B", 5.0, -2.0)}
        with pytest.raises(ValidationError, match="link 'A-B' has zero length"):
            Network(vp, {"A-B": Link("A-B", "A", "B")}, AltitudeLayerSet(), {})

    def test_incomplete_zone_partition_rejected(self, tmp_path):
        doc = dict(MINIMAL, zones=[{"id": "Z1", "members": ["A", "B"], "ambient_db": 40}])
        with pytest.raises(ValidationError, match="A-B"):
            load_scenario(write_doc(tmp_path, doc))


class TestBuildRoute:
    def test_direct_edge(self, line_network):
        route = build_route(line_network, "A", "B")
        assert route.link_ids == ("A-B",)

    def test_line_two_links(self, line_network):
        route = build_route(line_network, "A", "C")
        assert route.link_ids == ("A-B", "B-C")

    def test_diamond_tie_break(self):
        # two equal-length 2-link paths; hand enumeration gives
        # ("A-B1", "B1-C") < ("A-B2", "B2-C") lexicographically
        vp = {"A": Vertiport("A", 0, 0), "B1": Vertiport("B1", 1000, 1000),
              "B2": Vertiport("B2", 1000, -1000), "C": Vertiport("C", 2000, 0)}
        links = {}
        for a, b in (("A", "B1"), ("B1", "C"), ("A", "B2"), ("B2", "C")):
            links[f"{a}-{b}"] = Link(f"{a}-{b}", a, b)
        net = Network(vp, links, AltitudeLayerSet(), {})
        route = build_route(net, "A", "C")
        assert route.link_ids == ("A-B1", "B1-C")

    def test_no_path(self):
        vp = {"A": Vertiport("A", 0, 0), "B": Vertiport("B", 1000, 0)}
        links = {"B-A": Link("B-A", "B", "A")}
        net = Network(vp, links, AltitudeLayerSet(), {})
        with pytest.raises(NoPathError):
            build_route(net, "A", "B")

    def test_same_origin_destination_rejected(self, line_network):
        with pytest.raises(ValidationError):
            build_route(line_network, "A", "A")

    def test_chain_property_all_bundled_routes(self):
        sc = load_scenario(uamnoise.bundled_scenario_path())
        for fid, route in sc.routes.items():
            nodes = route_nodes(sc.network, route)
            assert nodes[0] == route.origin and nodes[-1] == route.destination
            assert [sc.network.links[lid].from_id for lid in route.link_ids] == nodes[:-1]


def related(net, r1, r2):
    """route_intersections's entry for the pair, checked against the oracle."""
    rel = route_intersections(net, [r1, r2])
    assert rel[0, 1] == rel[1, 0] == routes_related(net, r1, r2)
    return bool(rel[0, 1])


def segments_network(points, link_ends):
    """Vertiport Pk at each point, and link Li from P(ends[0]) to P(ends[1])
    for each pair of link_ends that names two points at different places (a
    link has a length); no zones."""
    vp = {f"P{k}": Vertiport(f"P{k}", x, y) for k, (x, y) in enumerate(points)}
    links = {f"L{i}": Link(f"L{i}", f"P{a}", f"P{b}") for i, (a, b) in enumerate(link_ends)
             if max(a, b) < len(points) and points[a] != points[b]}
    return Network(vp, links, AltitudeLayerSet(), {})


def one_link_routes(net):
    return [Route((lid,), link.from_id, link.to_id) for lid, link in net.links.items()]


# Two-link networks, P0-P1 against P2-P3, at the edges of the crossing test;
# t and u are the crossing's parameters along P0-P1 and P2-P3.
# Parallel, denominator 0; both numerators are 0.5, inside (0, 1).
PARALLEL = [(0.0, 0.0), (1.0, 0.0), (0.0, -0.5), (1.0, -0.5)]
COLLINEAR_OVERLAP = [(0.0, 0.0), (2000.0, 0.0), (1000.0, 0.0), (3000.0, 0.0)]
# One point, two vertiports: the segments share an end, t = 1 and u = 0.
TOUCHING_ENDS = [(0.0, 0.0), (1000.0, 0.0), (1000.0, 0.0), (1000.0, 1000.0)]
T_JUNCTION = [(0.0, 0.0), (2000.0, 0.0), (1000.0, 0.0), (1000.0, 1000.0)]  # t = 0.5, u = 0
T_END = [(1000.0, 1000.0), (1000.0, 0.0), (0.0, 0.0), (2000.0, 0.0)]  # t = 1, u = 0.5
X_CROSSING = [(0.0, 0.0), (1000.0, 1000.0), (0.0, 1000.0), (1000.0, 0.0)]
TWO_LINKS = [(0, 1), (2, 3)]

GRID_OR_ANY = st.one_of(st.integers(-2, 2).map(lambda k: 1000.0 * k),
                        st.floats(-3000.0, 3000.0))


class TestRouteIntersections:
    def test_shared_link_related(self, line_network):
        r1 = build_route(line_network, "A", "C")
        r2 = build_route(line_network, "A", "B")
        assert related(line_network, r1, r2)

    def test_opposite_directions_related(self, line_network):
        r1 = build_route(line_network, "A", "C")
        r2 = build_route(line_network, "C", "A")
        assert related(line_network, r1, r2)

    def test_parallel_disjoint_unrelated(self):
        vp = {"A": Vertiport("A", 0, 0), "B": Vertiport("B", 1000, 0),
              "C": Vertiport("C", 0, 5000), "D": Vertiport("D", 1000, 5000)}
        links = {"A-B": Link("A-B", "A", "B"), "C-D": Link("C-D", "C", "D")}
        net = Network(vp, links, AltitudeLayerSet(), {})
        r1 = Route(("A-B",), "A", "B")
        r2 = Route(("C-D",), "C", "D")
        assert not related(net, r1, r2)

    def test_crossing_segments(self):
        vp = {"P1": Vertiport("P1", 0, 0), "P2": Vertiport("P2", 1000, 1000),
              "P3": Vertiport("P3", 0, 1000), "P4": Vertiport("P4", 1000, 0)}
        links = {"P1-P2": Link("P1-P2", "P1", "P2"), "P3-P4": Link("P3-P4", "P3", "P4")}
        net = Network(vp, links, AltitudeLayerSet(), {})
        r1 = Route(("P1-P2",), "P1", "P2")
        r2 = Route(("P3-P4",), "P3", "P4")
        assert related(net, r1, r2)

        # independent oracle: orientation tests confirm a proper crossing
        def orient(p, q, r):
            return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

        a, b, c, d = (0, 0), (1000, 1000), (0, 1000), (1000, 0)
        assert orient(a, b, c) * orient(a, b, d) < 0
        assert orient(c, d, a) * orient(c, d, b) < 0

    @pytest.mark.parametrize("points", [PARALLEL, COLLINEAR_OVERLAP, TOUCHING_ENDS, T_JUNCTION,
                                        T_END])
    def test_segments_meeting_at_no_interior_point_unrelated(self, points):
        # no shared vertiport, and no crossing strictly inside both segments
        net = segments_network(points, TWO_LINKS)
        assert not related(net, *one_link_routes(net))

    def test_relation_symmetric(self, line_network):
        routes = [build_route(line_network, a, b)
                  for a, b in (("A", "C"), ("C", "A"), ("A", "B"), ("B", "C"))]
        rel = route_intersections(line_network, routes)
        assert rel.any() and (rel == rel.T).all()
        assert rel.tolist() == [[routes_related(line_network, r1, r2) for r2 in routes]
                                for r1 in routes]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(GRID_OR_ANY, GRID_OR_ANY), min_size=2, max_size=6),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=8))
    @example(PARALLEL, TWO_LINKS)
    @example(COLLINEAR_OVERLAP, TWO_LINKS)
    @example(TOUCHING_ENDS, TWO_LINKS)
    @example(T_JUNCTION, TWO_LINKS)
    @example(T_END, TWO_LINKS)
    @example(X_CROSSING, TWO_LINKS)
    def test_matrix_equals_pairwise_oracle(self, points, link_ends):
        """On random small 2-D networks, for each one-link route and each
        shortest route between two vertiports, route_intersections equals
        routes_related pair by pair."""
        net = segments_network(points, link_ends)
        routes = one_link_routes(net)
        for a in net.vertiports:
            for b in net.vertiports:
                if a != b:
                    try:
                        routes.append(build_route(net, a, b))
                    except NoPathError:
                        pass
        rel = route_intersections(net, routes)
        assert rel.dtype == bool and rel.shape == (len(routes), len(routes))
        assert rel.tolist() == [[routes_related(net, r1, r2) for r2 in routes] for r1 in routes]


class TestGenerateScenario:
    def test_round_robin_counts(self):
        sc = load_scenario(uamnoise.bundled_scenario_path())
        counts = {}
        for fl in sc.flights:
            counts[(fl.origin, fl.destination)] = counts.get((fl.origin, fl.destination), 0) + 1
        lo, hi = 136 // 28, math.ceil(136 / 28)
        assert all(c in (lo, hi) for c in counts.values())

    def test_single_flight_departs_at_zero(self, line_network):
        sc = generate_scenario(line_network, 1, [("A", "C")], seed=9)
        assert len(sc.flights) == 1
        assert sc.flights[0].departure_s == 0.0

    def test_departure_staggering_per_origin(self, line_network):
        sc = generate_scenario(line_network, 6, [("A", "C")], departure_spacing_s=60.0, seed=0)
        assert sorted(f.departure_s for f in sc.flights) == [0, 60, 120, 180, 240, 300]

    def test_same_seed_byte_identical_files(self, line_network, tmp_path):
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        save_scenario(generate_scenario(line_network, 10, [("A", "C"), ("C", "A")], seed=7), p1)
        save_scenario(generate_scenario(line_network, 10, [("A", "C"), ("C", "A")], seed=7), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self, line_network):
        odp = [("A", "C"), ("C", "A"), ("A", "B"), ("B", "C")]
        s1 = generate_scenario(line_network, 3, odp, seed=1)
        s2 = generate_scenario(line_network, 3, odp, seed=2)
        assert [(f.origin, f.destination) for f in s1.flights] != \
            [(f.origin, f.destination) for f in s2.flights]

    def test_scenario_save_load_round_trip(self, line_network, tmp_path):
        sc = generate_scenario(line_network, 4, [("A", "C"), ("C", "A")], seed=5)
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        loaded = load_scenario(path)
        assert loaded.flights == sc.flights
        assert loaded.routes == sc.routes

    def test_bad_arguments(self, line_network):
        with pytest.raises(ValidationError):
            generate_scenario(line_network, 0, [("A", "C")])
        with pytest.raises(ValidationError):
            generate_scenario(line_network, 1, [])


@st.composite
def generated_scenarios(draw):
    """Generated traffic on the bundled network or the 2-D cross network,
    over a drawn subset of the network's O-D pairs."""
    if draw(st.booleans()):
        net, od = make_cross_network()
    else:
        net = load_scenario(uamnoise.bundled_scenario_path()).network
        od = [(a, b) for a in net.vertiports for b in net.vertiports if a != b]
    pairs = draw(st.lists(st.sampled_from(od), min_size=1, max_size=12, unique=True))
    return generate_scenario(net, draw(st.integers(1, 60)), pairs,
                             departure_spacing_s=draw(st.sampled_from([0.0, 10.0, 60.0])),
                             seed=draw(st.integers(0, 99)))


class TestScenarioRoutes:
    @settings(max_examples=25, deadline=None)
    @given(generated_scenarios())
    def test_routes_are_build_route_shared_per_pair(self, sc):
        assert list(sc.routes) == [f.id for f in sc.flights]
        by_pair = {}
        for f in sc.flights:
            route = sc.routes[f.id]
            assert route == build_route(sc.network, f.origin, f.destination)
            assert by_pair.setdefault((f.origin, f.destination), route) is route

    def test_bundled_flights_share_one_route_per_pair(self):
        sc = load_scenario(uamnoise.bundled_scenario_path())
        assert len(sc.flights) == 136
        assert len({id(r) for r in sc.routes.values()}) == 28

    def test_unreachable_flight_fails_at_construction(self, tmp_path):
        # MINIMAL's one link is A-B, so no route leads from B to A
        doc = {**MINIMAL, "flights": [
            {"id": "AC001", "origin": "A", "destination": "B", "departure_s": 0},
            {"id": "AC002", "origin": "B", "destination": "A", "departure_s": 0}]}
        with pytest.raises(NoPathError, match="^flight 'AC002': no route from 'B' to 'A'$"):
            load_scenario(write_doc(tmp_path, doc))
        net = load_scenario(write_doc(tmp_path, MINIMAL)).network
        with pytest.raises(NoPathError, match="^flight 'AC002': no route from 'B' to 'A'$"):
            generate_scenario(net, 2, [("A", "B"), ("B", "A")])

    def test_duplicate_flight_id_fails_at_construction(self, line_network):
        # checked by Scenario itself: routes, by flight id, would keep one
        # route for both flights
        flights = (Flight("AC001", "A", "C", 0.0), Flight("AC001", "C", "A", 10.0))
        with pytest.raises(ValidationError, match="^duplicate flight id 'AC001'$"):
            Scenario(line_network, flights)
