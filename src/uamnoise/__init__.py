"""Noise-aware urban air mobility airspace simulator and multi-agent
reinforcement-learning trainer.

Subpackages:
  network  - vertiport/corridor topology, routes, zones, scenario files
  noise    - single-event noise regression and cumulative-increase math
  sim      - discrete-time kinematics, action mask and altitude lock, LOS
             detection, each aircraft's network member
  mdp      - observations, blended reward
  nnet     - attention policy/value network with exact hand-written gradients
  rl       - rollouts, GAE, PPO, training loop, checkpoints
  metrics  - episode metrics, trace I/O, rho-sweep harness
  cli      - command-line entry points
"""

from importlib.resources import files as _files

__version__ = "0.1.0"


def bundled_scenario_path() -> str:
    """Filesystem path of the bundled scenario file."""
    return str(_files("uamnoise").joinpath("data", "south_austin.json"))
