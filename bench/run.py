"""Benchmark runner for uamnoise.

    python3 bench/run.py --workload line-train --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1

Runs one workload (or, with ``--workload all``, each workload in its own
process) from the checkout's ``src/``, checks every output, prints each metric
with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs traced and untraced operations in turn
and reports the per-layer metrics. See bench/README.md.
"""
from __future__ import annotations

import os

# Pinned before NumPy is imported, here and in every child process.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Same as workloads.WORKLOADS; that module imports the program, and set-up
# timing must include the import, so it is not imported to parse arguments.
WORKLOADS = ("line-train", "bundled-policy", "dense-hold")

#: Untraced runs measure in this many fresh processes, one after another, each
#: for an equal share of --seconds, and pool their samples. Even in nominal
#: seconds a process runs about 5 % faster or slower than the next one (run to
#: run, same seed); pooling averages that out. Each process's set-up time is
#: one set-up sample.
PARTS = 4

END_TO_END = {
    "setup_s": "s",
    "episode_s.p50": "s",
    "episode_s.p90": "s",
    "iter_s.p50": "s",
    "iter_s.p90": "s",
    "decisions_per_s": "1/s",
    "aircraft_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: self times and counts are per loop iteration (one
#: training iteration on line-train, one episode elsewhere).
PER_LAYER = {
    **{f"sim.{n}_s": "s" for n in ("neighbors", "los", "kinematics", "spawn", "command",
                                   "world_init", "step")},
    "sim.steps": "count", "sim.aircraft_steps": "count", "sim.peak_enroute": "count",
    "sim.enroute_pairs": "count", "sim.los_per_enroute_pair": "ratio",
    "sim.neighbor_scans": "count", "sim.neighbors_per_enroute": "ratio",
    "sim.los_events": "count",
    "mdp.observe_s": "s", "mdp.observe_calls": "count", "mdp.observe_per_decision": "ratio",
    "mdp.reward_s": "s", "mdp.encode_s": "s",
    "nnet.policy_forward_s": "s", "nnet.forward_calls": "count",
    "nnet.rows_per_forward": "ratio", "nnet.sample_s": "s", "nnet.loss_s": "s",
    "nnet.backward_s": "s", "nnet.adam_s": "s", "nnet.adam_steps": "count",
    "rl.rollout_self_s": "s", "rl.pack_s": "s", "rl.gae_s": "s", "rl.update_s": "s",
    "rl.minibatches": "count", "rl.decisions": "count",
    "metrics.zone_noise_s": "s", "metrics.histogram_s": "s", "metrics.summary_s": "s",
    "metrics.trace_rows": "count",
    "noise.single_event_calls": "count",
    "network.load_s": "s", "network.generate_s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.bookkeeping_s": "s",
    "trace.overhead_s": "s",
}


def import_program() -> None:
    """Put the checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "uamnoise" / "__init__.py").is_file():
        sys.exit(f"error: no uamnoise sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import uamnoise
    if Path(uamnoise.__file__).resolve().parent != SRC / "uamnoise":
        sys.exit(f"error: imported uamnoise from {uamnoise.__file__}, not {SRC}")


def _timed_setup(name: str, seed: int):
    """Import plus scenario and parameter set-up, as a user pays it; returns
    the workload and the set-up time in nominal seconds."""
    from speed import NominalClock
    clock = NominalClock()
    clock.start()
    try:
        import workloads
        wl = workloads.setup(name, seed)
        return wl, clock.now()
    finally:
        clock.stop()


def _pct(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class EpisodeClock:
    """Times every collect_rollout call: the episode inside each iteration."""

    def __init__(self, now):
        self.now = now
        self.records: list[tuple[float, int]] = []  # (seconds, decisions)
        self._saved = []

    def install(self) -> None:
        from uamnoise import metrics, rl
        for module in (rl, metrics):
            if "collect_rollout" in module.__dict__:
                self._saved.append((module, module.collect_rollout))
                module.collect_rollout = self._wrap(module.collect_rollout)

    def uninstall(self) -> None:
        for module, original in self._saved:
            module.collect_rollout = original
        self._saved.clear()

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = self.now()
            batch = fn(*args, **kwargs)
            self.records.append((self.now() - t0, len(batch.trace)))
            return batch
        return timed


def measure(wl, seconds: float, trace: bool, refs: dict) -> dict:
    """Closed loop of operations until ``seconds`` have passed (at least one
    operation; two when tracing, so that one runs untraced).

    Untraced runs time in nominal seconds (see speed.py). Traced runs time in
    wall seconds, because the clock's samples would land inside traced frames.
    """
    import workloads
    from speed import NominalClock
    from tracer import Tracer

    tracer = Tracer() if trace else None
    nominal = None if trace else NominalClock()
    clock = EpisodeClock(time.perf_counter if trace else nominal.now)
    clock.install()
    if nominal is not None:
        nominal.start()
    runs = []  # (traced, iter_s, episode records)
    first = None
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    try:
        while not runs or time.perf_counter() < deadline or (trace and len(runs) < 2):
            traced = trace and len(runs) % 2 == 0
            n0 = len(clock.records)
            if traced:
                tracer.install()
                try:
                    result = tracer.root(wl.run, clock.now)
                finally:
                    tracer.uninstall()
            else:
                result = wl.run(clock.now)
            ok = workloads.check_outputs(wl.name, wl.seed, result.outputs, first, refs)
            first = first or result.outputs
            attempted += len(ok)
            failed += ok.count(False)
            runs.append((traced, result.iter_s, clock.records[n0:]))
    finally:
        if nominal is not None:
            nominal.stop()
        clock.uninstall()
    return {"runs": runs, "attempted": attempted, "failed": failed, "first": first,
            "tracer": tracer}


def part_record(wl, setup_s: float, m: dict) -> dict:
    """The samples of one untraced measuring process, for ``end_to_end``."""
    import workloads
    episodes = [e for _, _, eps in m["runs"] for e in eps]
    return {
        "setup_s": setup_s,
        "iter_s": [s for _, it, _ in m["runs"] for s in it],
        "episode_s": [s for s, _ in episodes],
        "decisions": sum(d for _, d in episodes),
        "aircraft_steps": workloads.aircraft_steps(wl.scenario, wl.sim_config) * len(episodes),
        "attempted": m["attempted"],
        "failed": m["failed"],
        "first": m["first"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def end_to_end(parts: list[dict]) -> dict:
    """End-to-end metrics from the pooled samples of the measuring processes."""
    iters = [s for p in parts for s in p["iter_s"]]
    episodes = [s for p in parts for s in p["episode_s"]]
    busy_s = sum(iters)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "episode_s.p50": statistics.median(episodes),
        "episode_s.p90": _pct(episodes, 90),
        "iter_s.p50": statistics.median(iters),
        "iter_s.p90": _pct(iters, 90),
        "decisions_per_s": sum(p["decisions"] for p in parts) / busy_s,
        "aircraft_steps_per_s": sum(p["aircraft_steps"] for p in parts) / busy_s,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
    }


def per_layer(wl, m: dict) -> tuple[dict, bool]:
    """Per-iteration layer metrics from the traced operations, and whether the
    traced aircraft-step count agrees with the one derived from the scenario."""
    import workloads
    tr = m["tracer"]
    traced = [it for t, it, _ in m["runs"] if t]
    untraced = [it for t, it, _ in m["runs"] if not t]
    n = sum(len(it) for it in traced)
    self_s, c = tr.self_s, tr.counts
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "s" and name.removesuffix("_s") in self_s:
            out[name] = self_s[name.removesuffix("_s")] / n
        elif unit == "count" and name in c:
            out[name] = c[name] / n

    def ratio(num: str, den: str) -> float:
        return c[num] / c[den] if c[den] else 0.0

    out.update({
        "sim.peak_enroute": tr.peak_enroute,
        "sim.los_per_enroute_pair": ratio("sim.los_violations", "sim.enroute_pairs"),
        "sim.neighbors_per_enroute": ratio("sim.neighbors_found", "sim.enroute_candidates"),
        "mdp.observe_per_decision": ratio("mdp.observe_calls", "decisions"),
        "nnet.rows_per_forward": ratio("nnet.forward_rows", "nnet.forward_calls"),
        "rl.decisions": c["decisions"] / n,
        "trace.wall_s": tr.wall_s / n,
        "trace.unattributed_s": self_s["trace.unattributed"] / n,
        "trace.bookkeeping_s": self_s["trace.bookkeeping"] / n,
        "trace.overhead_s": (statistics.median([s for it in traced for s in it])
                             - statistics.median([s for it in untraced for s in it])),
        **wl.network_s,
    })
    out = {name: out.get(name, 0.0) for name in PER_LAYER}
    counted = {"sim.world_init", "sim.spawn", "sim.kinematics"} <= tr.installed
    steps_ok = not counted or (
        c["sim.aircraft_steps"] == workloads.aircraft_steps(wl.scenario, wl.sim_config) * n)
    return out, steps_ok


def environment(seed: int) -> dict:
    import numpy as np
    digest = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
    }


def _result(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    """The result object: correct, attempted, failed and metrics with units."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_workload(wl, seconds: float, trace: bool, refs: dict, setup_s: float) -> dict:
    """Measure in this process; the result object."""
    m = measure(wl, seconds, trace, refs)
    if trace:
        metrics, steps_ok = per_layer(wl, m)
        return _result(metrics, PER_LAYER, m["attempted"], m["failed"] + (not steps_ok))
    return pool([part_record(wl, setup_s, m)])


def pool(parts: list[dict]) -> dict:
    """The result object of untraced measuring processes. Every process runs
    the same inputs, so their first outputs must be equal, too."""
    failed = sum(p["failed"] for p in parts)
    failed += len({json.dumps(p["first"]) for p in parts}) - 1
    return _result(end_to_end(parts), END_TO_END, sum(p["attempted"] for p in parts), failed)


def _run_part(args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--part",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds / PARTS)],
        capture_output=True, text=True, timeout=args.seconds / PARTS + 120)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: measuring process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(args) -> int:
    import_program()
    if args.part or args.trace:
        wl, setup_s = _timed_setup(args.workload, args.seed)
        import workloads
        refs = workloads.load_refs()
        if args.part:
            print(json.dumps(part_record(wl, setup_s, measure(wl, args.seconds, False, refs))))
            return 0
        result = run_workload(wl, args.seconds, True, refs, setup_s)
    else:
        result = pool([_run_part(args) for _ in range(PARTS)])
    name = args.workload
    print("environment: " + json.dumps({"workload": name, **environment(args.seed)}))
    for metric, entry in result["metrics"].items():
        print(f"{name:>15}  {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{name:>15}  {'check_fail_frac':<28} "
          f"{result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; results also go to bench/out/."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=args.seconds + 600)
        sys.stdout.write(proc.stdout[:proc.stdout.rstrip().rfind("\n") + 1])
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        env = json.loads(next(l for l in lines if l.startswith("environment: "))[13:])
        results[name] = {**json.loads(lines[-1]), "environment": env}
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"results-trace{args.trace}.json"
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"results written to {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--part", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
