import os
import tempfile

import pytest
from hypothesis import settings

import uamnoise
from uamnoise.network import (AltitudeLayerSet, Link, Network, NoiseZone,
                              Vertiport, generate_scenario, load_scenario)

# The same examples on every run, and no example database in the checkout.
settings.register_profile("repo", derandomize=True, database=None)
settings.load_profile("repo")
# Hypothesis also caches the constants it reads from source files in its
# storage directory, ./.hypothesis unless this variable names another.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "uamnoise-hypothesis"))


def step_with(world, actions):
    """World.step after, on a decision tick, each enroute aircraft's command
    from actions, a mapping of aircraft id to action."""
    world.spawn_due_aircraft()
    if world.is_decision_tick():
        for ac_id in world.enroute_ids():
            world.apply_altitude_command(world.aircraft[ac_id], actions[ac_id])
    return world.step()


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


def make_corridor_network(length_m=30000.0):
    """Single long A -- B corridor, both directions, no zones."""
    vp = {"A": Vertiport("A", 0.0, 0.0), "B": Vertiport("B", length_m, 0.0)}
    links = {
        "A-B": Link("A-B", "A", "B"),
        "B-A": Link("B-A", "B", "A"),
    }
    return Network(vp, links, AltitudeLayerSet(), {})


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
