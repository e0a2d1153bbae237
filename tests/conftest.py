import os
import tempfile
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import settings

import uamnoise
from uamnoise.network import (AltitudeLayerSet, Flight, Link, Network, NoiseZone, Scenario,
                              Vertiport, generate_scenario, load_scenario, route_nodes)
from uamnoise.sim import SimConfig, World

# The same examples on every run, and no example database in the checkout.
settings.register_profile("repo", derandomize=True, database=None)
settings.load_profile("repo")
# Hypothesis also caches the constants it reads from source files in its
# storage directory, ./.hypothesis unless this variable names another.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "uamnoise-hypothesis"))


def enroute_ids(world):
    """The ids of World.enroute(), in its flight order."""
    return [ac.id for ac in world.enroute()]


def step_with(world, actions):
    """World.step after, on a decision tick, each enroute aircraft's command
    from actions, a mapping of aircraft id to action."""
    world.spawn_due_aircraft()
    if world.is_decision_tick():
        for ac in world.enroute():
            world.apply_altitude_command(ac, actions[ac.id])
    return world.step()


def route_position(network, route, d):
    """(x, y, member) at distance d along route, from the cumulative link
    lengths computed afresh and bisected on every call: the oracle of the
    motion plan's points that World.position reads. The member is the link's
    origin vertiport when d is exactly its start, and otherwise the link."""
    cum = list(accumulate(map(network.link_length_m, route.link_ids), initial=0.0))
    i = bisect_right(cum, d) - 1
    lid = route.link_ids[i]
    (ax, ay), (bx, by) = network.link_segment(lid)
    f = (d - cum[i]) / (cum[i + 1] - cum[i])
    return ax + f * (bx - ax), ay + f * (by - ay), (
        network.links[lid].from_id if d == cum[i] else lid)


def segment_crossing(p1, p2, p3, p4) -> bool:
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


def routes_related(network, r1, r2) -> bool:
    """The route relation pair by pair, the oracle of route_intersections:
    routes interact when they share a vertiport (as they do when they share
    a corridor in either direction) or their link segments cross at an
    interior point."""
    if set(route_nodes(network, r1)) & set(route_nodes(network, r2)):
        return True
    return any(segment_crossing(*network.link_segment(l1), *network.link_segment(l2))
               for l1 in r1.link_ids for l2 in r2.link_ids)


def make_line_network(link_len_m=12000.0, with_zone=True):
    """A -- B -- C line with both link directions."""
    vp = {
        "A": Vertiport("A", 0.0, 0.0),
        "B": Vertiport("B", link_len_m, 0.0),
        "C": Vertiport("C", 2.0 * link_len_m, 0.0),
    }
    links = {}
    for a, b in (("A", "B"), ("B", "C")):
        links[f"{a}-{b}"] = Link(f"{a}-{b}", a, b)
        links[f"{b}-{a}"] = Link(f"{b}-{a}", b, a)
    zones = {}
    if with_zone:
        zones = {"Z1": NoiseZone("Z1", tuple(sorted(links)) + ("A", "B", "C"), 50.0)}
    return Network(vp, links, AltitudeLayerSet(), zones)


def make_cross_network():
    """A 2-D network: corridors A-B and C-D cross at (1000, 1000), C-D-B
    continues north along x = 2000, and E-F runs 600 m east of it on no
    shared vertiport and no crossing, so it is unrelated to every other
    route. Every link in both directions, no zones. Returns the network and
    its O-D pairs: both directions of A-B, C-D, C-B and E-F."""
    vp = {"A": Vertiport("A", 0.0, 0.0), "B": Vertiport("B", 2000.0, 2000.0),
          "C": Vertiport("C", 0.0, 2000.0), "D": Vertiport("D", 2000.0, 0.0),
          "E": Vertiport("E", 2600.0, 0.0), "F": Vertiport("F", 2600.0, 2000.0)}
    links = {}
    for a, b in (("A", "B"), ("C", "D"), ("D", "B"), ("E", "F")):
        links[f"{a}-{b}"] = Link(f"{a}-{b}", a, b)
        links[f"{b}-{a}"] = Link(f"{b}-{a}", b, a)
    od = [(a, b) for o, d in (("A", "B"), ("C", "D"), ("C", "B"), ("E", "F"))
          for a, b in ((o, d), (d, o))]
    return Network(vp, links, AltitudeLayerSet(), {}), od


def make_corridor_network(length_m=30000.0):
    """Single long A -- B corridor, both directions, no zones."""
    vp = {"A": Vertiport("A", 0.0, 0.0), "B": Vertiport("B", length_m, 0.0)}
    links = {
        "A-B": Link("A-B", "A", "B"),
        "B-A": Link("B-A", "B", "A"),
    }
    return Network(vp, links, AltitudeLayerSet(), {})


def parallel_world(offsets, north=True, order=None, **cfg):
    """A world of straight 10 km corridors, one per offset, all running north
    with their x at the offset, or east with their y at it, and flight
    AC00<i+1> on corridor i, departing at 0, spawned. Every step keeps the
    aircraft side by side at exactly their offsets' distances apart. Each
    corridor then runs on to one shared hub vertiport at (20 km, 20 km), the
    flights' destination, so every route is related to every other. order,
    if given, permutes the scenario's flights."""
    vp, links, flights = {"H": Vertiport("H", 20000.0, 20000.0)}, {}, []
    for i, off in enumerate(offsets):
        ends = ((off, 0.0), (off, 10000.0)) if north else ((0.0, off), (10000.0, off))
        for name, (x, y) in zip((f"O{i}", f"D{i}"), ends):
            vp[name] = Vertiport(name, x, y)
        links[f"L{i}"] = Link(f"L{i}", f"O{i}", f"D{i}")
        links[f"H{i}"] = Link(f"H{i}", f"D{i}", "H")
        flights.append(Flight(f"AC{i + 1:03d}", f"O{i}", "H", 0.0))
    scenario = Scenario(Network(vp, links, AltitudeLayerSet(), {}),
                        tuple(flights[i] for i in order or range(len(flights))))
    world = World(scenario, SimConfig(**cfg))
    world.spawn_due_aircraft()
    return world


#: The hub of hub_world, away from the round numbers that tests place.
HUB = (1234.5, -678.25)


def hub_world(points, **cfg):
    """A world whose flight AC00<i+1> departs at 0 from a vertiport at
    points[i], (x, y), straight to one shared hub at HUB, spawned: every
    route is related to every other, and each aircraft sits on its point.
    Cruise is so fast that the longest route takes a few steps, which keeps
    the motion plan small over any coordinates. No point may be HUB."""
    vp = {"H": Vertiport("H", *HUB)}
    links, flights = {}, []
    for i, (x, y) in enumerate(points):
        vp[f"P{i}"] = Vertiport(f"P{i}", x, y)
        links[f"L{i}"] = Link(f"L{i}", f"P{i}", "H")
        flights.append(Flight(f"AC{i + 1:03d}", f"P{i}", "H", 0.0))
    world = World(Scenario(Network(vp, links, AltitudeLayerSet(), {}), tuple(flights)),
                  SimConfig(cruise_speed_mps=1e7, **cfg))
    world.spawn_due_aircraft()
    return world


@pytest.fixture
def line_network():
    return make_line_network()


@pytest.fixture
def line_scenario(line_network):
    return generate_scenario(line_network, 12, [("A", "C"), ("C", "A")],
                             departure_spacing_s=50.0, seed=3)


@pytest.fixture
def corridor_network():
    return make_corridor_network()


@pytest.fixture
def solo_scenario(corridor_network):
    return generate_scenario(corridor_network, 1, [("A", "B")], seed=0)


@pytest.fixture(scope="session")
def bundled_scenario():
    return load_scenario(uamnoise.bundled_scenario_path())
