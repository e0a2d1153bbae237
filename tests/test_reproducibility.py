"""Byte-for-byte reproducibility across processes: the same outputs under
different PYTHONHASHSEED values, which vary str hashing and so the iteration
order of every set and the layout of every dict of strings."""
import json
import os
import subprocess
import sys
from pathlib import Path

import uamnoise

# Prints one SHA-256 per output family of a bundled hold episode and of a
# two-iteration training run on a small line scenario.
SCRIPT = r"""
import hashlib, json, os, sys, tempfile
from dataclasses import fields

from uamnoise import metrics, rl
from uamnoise.mdp import RewardConfig
from uamnoise.network import generate_scenario, load_scenario
from uamnoise.sim import SimConfig, World
import uamnoise

from conftest import make_line_network


def sha(data):
    return hashlib.sha256(data).hexdigest()


out = {}
scenario = load_scenario(uamnoise.bundled_scenario_path())
rc = RewardConfig.for_layers(scenario.network.layers, 0.5)
_, trace = metrics.run_episode(None, scenario, SimConfig(), rc)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "trace.csv")
    metrics.write_trace(trace, path)
    with open(path, "rb") as fh:
        out["trace"] = sha(fh.read())
world = World(scenario, SimConfig())  # the hold episode's physics, whose LOS events it counts
while not world.terminal:
    world.step()
out["los_events"] = sha(repr(world.los_events).encode())

batches = []
pack = rl._pack


def recording(episode):
    batches.append(pack(episode))
    return batches[-1]


rl._pack = recording
line = generate_scenario(make_line_network(), 12, [("A", "C"), ("C", "A")],
                         departure_spacing_s=50.0, seed=3)
params, rows = rl.train(line, rl.TrainConfig(iterations=2, hidden=8, minibatch_size=64),
                        SimConfig(), RewardConfig.for_layers(line.network.layers, 0.9))
for i, batch in enumerate(batches):
    for f in fields(batch):
        value = getattr(batch, f.name)
        out[f"pack{i}.{f.name}"] = sha(value.tobytes() if f.name != "agent_slices"
                                       else repr(value).encode())
out["rows"] = sha(repr(rows).encode())
out["params"] = sha(params.flat.tobytes())
json.dump(out, sys.stdout)
"""


def digests(hash_seed):
    src = Path(uamnoise.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
           "PYTHONPATH": os.pathsep.join([str(src), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_outputs_equal_under_different_hash_seeds():
    first, second = digests(0), digests(12345)
    assert {name.split(".")[0] for name in first if name.startswith("pack")} == {"pack0", "pack1"}
    assert first == second
