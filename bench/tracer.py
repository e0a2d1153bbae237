"""Self-time tracer that wraps uamnoise's public functions from outside.

Each wrapped call is a frame on a nesting stack. A frame's self time is its
duration minus the durations of the frames it encloses, so the self times of
all frames inside one root frame add up to the root's duration. The root
frame's own self time is the unattributed remainder.

Functions are patched under the name their caller looks them up by (a module
global for module functions, the class attribute for ``World`` and ``Adam``
methods), and restored by ``uninstall``. Counters are updated after a frame's
clock stops; the time they take is booked as ``trace.bookkeeping`` so that it
is neither hidden in a layer nor lost from the sum.
"""
from __future__ import annotations

import time
from collections import defaultdict

from uamnoise import metrics, mdp, nnet, rl
from uamnoise.sim import Phase, World

ROOT = "trace.unattributed"
BOOKKEEPING = "trace.bookkeeping"

#: Layer frames: (owner, attribute, frame name, counter hook or None).
#: A frame name ending in "?" is resolved per call by ``_forward_name``.
FRAMES = (
    (World, "__init__", "sim.world_init", "_on_world_init"),
    (World, "step", "sim.step", "_on_step"),
    (World, "spawn_due_aircraft", "sim.spawn", "_on_spawn"),
    (World, "apply_altitude_command", "sim.command", None),
    (World, "advance_kinematics", "sim.kinematics", "_on_kinematics"),
    (World, "neighbors", "sim.neighbors", "_on_neighbors"),
    (World, "detect_los", "sim.los", "_on_detect_los"),
    (World, "_update_los_bookkeeping", "sim.los", None),
    (World, "finalize_los", "sim.los", "_on_finalize_los"),
    (rl, "observe", "mdp.observe", "_on_observe"),
    (mdp, "observe", "mdp.observe", "_on_observe"),
    (rl, "agent_reward", "mdp.reward", None),
    (rl, "encode_observation", "mdp.encode", None),
    (nnet, "policy_forward", "nnet.policy_forward", None),
    (nnet, "forward", "nnet.forward?", "_on_forward"),
    (nnet, "sample_action", "nnet.sample", None),
    (nnet, "ppo_loss_and_grads", "nnet.loss", "_on_loss"),
    (nnet, "backward", "nnet.backward", None),
    (nnet.Adam, "step", "nnet.adam", "_on_adam"),
    (rl, "collect_rollout", "rl.rollout_self", "_on_rollout"),
    (metrics, "collect_rollout", "rl.rollout_self", "_on_rollout"),
    (rl, "_pack", "rl.pack", None),
    (rl, "compute_advantages", "rl.gae", None),
    (rl, "ppo_update", "rl.update", None),
    (metrics, "metrics_from_trace", "metrics.summary", "_on_metrics"),
    (metrics, "zone_noise_series", "metrics.zone_noise", None),
    (metrics, "altitude_histogram", "metrics.histogram", None),
    (metrics, "attribute_layers", "metrics.histogram", None),
)

#: Count-only wrappers: (owner, attribute, counter name).
#:
#: The per-pair helpers of the LOS and neighbour searches (``World.distance_3d_m``
#: and ``World.routes_related``) are not wrapped: they run about 3 million
#: times per dense-hold episode, and a counting wrapper more than doubled
#: ``sim.los_s`` (1.2 to 2.8 s). The sim counts below describe the traffic the
#: searches face; the searches' cost shows in their self times.
COUNTERS = (
    (mdp, "single_event_level", "noise.single_event_calls"),
    (metrics, "single_event_level", "noise.single_event_calls"),
)


class Tracer:
    """Accumulates self times (seconds) and counts over traced root frames."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_enroute = 0
        self.wall_s = 0.0  # total duration of the root frames
        self.installed: set[str] = set()  # frame names patched in
        self._stack: list[list] = []  # [name, seconds spent in child frames]
        self._saved: list[tuple[object, str, object]] = []
        # Enroute aircraft of the current world, kept in step with spawns and
        # arrivals at O(enroute) cost per step rather than O(flights).
        self._by_departure: list = []
        self._spawned = 0
        self._live: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Patch every listed function that exists; a layer whose function
        is gone reads 0."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in FRAMES:
            if attr in owner.__dict__:
                self._patch(owner, attr, self._frame(getattr(owner, attr), name,
                                                     hook and getattr(self, hook)))
                self.installed.add(name)
        for owner, attr, name in COUNTERS:
            if attr in owner.__dict__:
                self._patch(owner, attr, self._counter(getattr(owner, attr), name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- frames -----------------------------------------------------------

    def root(self, fn, *args, **kwargs):
        """Run fn as a root frame; its self time is the unattributed rest."""
        return self._frame(fn, ROOT, None)(*args, **kwargs)

    def _forward_name(self) -> str:
        # nnet.forward serves both the rollout policy and the PPO loss.
        inside_loss = any(frame[0] == "nnet.loss" for frame in self._stack)
        return "nnet.loss" if inside_loss else "nnet.policy_forward"

    def _frame(self, fn, name, hook):
        stack, self_s, clock = self._stack, self.self_s, time.perf_counter
        dynamic = name.endswith("?")

        def wrapper(*args, **kwargs):
            frame = [self._forward_name() if dynamic else name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self_s[frame[0]] += (t1 - t0) - frame[1]
            t2 = t1
            if hook is not None:
                hook(frame[0], args, result)
                t2 = clock()
                self_s[BOOKKEEPING] += t2 - t1
            if stack:
                stack[-1][1] += t2 - t0
            else:
                self.wall_s += t2 - t0
            return result

        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counter hooks: (frame name, call args, result) ----------------------

    def _on_world_init(self, _name, args, _result):
        world = args[0]
        flights = sorted(world.scenario.flights, key=lambda fl: fl.departure_s)
        self._by_departure = [world.aircraft[fl.id] for fl in flights]
        self._spawned = 0
        self._live = []

    def _on_step(self, _name, _args, _result):
        self.counts["sim.steps"] += 1

    def _on_spawn(self, _name, _args, _result):
        # Spawning takes every pending flight that is due: a departure prefix.
        queue = self._by_departure
        while self._spawned < len(queue) and queue[self._spawned].phase is not Phase.PENDING:
            self._live.append(queue[self._spawned])
            self._spawned += 1
        self.peak_enroute = max(self.peak_enroute, len(self._live))

    def _on_kinematics(self, _name, _args, _result):
        self.counts["sim.aircraft_steps"] += len(self._live)
        self._live = [ac for ac in self._live if ac.phase is Phase.ENROUTE]

    # The enroute list is the tracer's own, so the counts below depend on the
    # traffic only, not on how many aircraft or pairs the searches examine.

    def _on_neighbors(self, _name, _args, result):
        self.counts["sim.neighbor_scans"] += 1
        self.counts["sim.enroute_candidates"] += len(self._live) - 1
        self.counts["sim.neighbors_found"] += len(result)

    def _on_detect_los(self, _name, _args, result):
        n = len(self._live)
        self.counts["sim.enroute_pairs"] += n * (n - 1) // 2
        self.counts["sim.los_violations"] += len(result)

    def _on_finalize_los(self, _name, args, _result):
        self.counts["sim.los_events"] += len(args[0].los_events)

    def _on_observe(self, _name, _args, _result):
        self.counts["mdp.observe_calls"] += 1

    def _on_forward(self, name, args, _result):
        if name == "nnet.policy_forward":
            self.counts["nnet.forward_calls"] += 1
            self.counts["nnet.forward_rows"] += args[1].shape[0]

    def _on_loss(self, _name, _args, _result):
        self.counts["rl.minibatches"] += 1

    def _on_adam(self, _name, _args, _result):
        self.counts["nnet.adam_steps"] += 1

    def _on_rollout(self, _name, _args, result):
        self.counts["decisions"] += len(result.trace)

    def _on_metrics(self, _name, args, _result):
        self.counts["metrics.trace_rows"] += len(args[0])
