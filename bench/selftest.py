"""Self-tests of the benchmark at smoke size.

    python3 bench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
a deliberately wrong reference makes the checks fail, that per-layer self
times add up to the traced wall time, and that the tracer restores every
function it wraps. Exits 1 if any test fails. Takes about a minute.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
import traceback

import run

run.import_program()

import workloads  # noqa: E402
from tracer import COUNTERS, FRAMES, Tracer  # noqa: E402

SMOKE_ITERATIONS = 10  # line-train iterations per operation; reference row 9
BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _smoke(name: str, trace: bool, refs: dict) -> dict:
    wl = workloads.setup(name, 0, line_iterations=SMOKE_ITERATIONS)
    return run.run_workload(wl, 0.0, trace, refs, 0.1)


def _declared(section: str) -> dict:
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m.get("unit") for m in json.load(fh)[section]}


def test_declared_metrics_match_run():
    assert list(_declared("workloads")) == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.PER_LAYER


def test_every_metric_emitted_with_unit():
    refs = workloads.load_refs()
    for name in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = _smoke(name, trace, refs)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            assert emitted == _declared(section), (name, section)
            for k, v in result["metrics"].items():
                assert math.isfinite(v["value"]), (name, k, v)
            if not trace:
                assert all(v["value"] > 0 for v in result["metrics"].values()), name


def test_command_line_prints_result_last():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "bundled-policy", "--seed", "0",
                         "--seconds", "0", "--trace", "0"])
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    assert any(line.startswith("environment: ") for line in lines)
    assert any("check_fail_frac" in line for line in lines)


def test_wrong_reference_fails_checks():
    refs = workloads.load_refs()
    for name, corrupt in (
        ("bundled-policy", lambda r: r.__setitem__(0, r[0] + 1)),       # LOS count
        ("dense-hold", lambda r: r.__setitem__(2, r[2] * (1 + 1e-6))),  # mean return
        ("line-train", lambda r: r[0].__setitem__(2, r[0][2] + 1)),     # row 9 LOS
    ):
        bad = copy.deepcopy(refs)
        corrupt(bad[name]["0"])
        result = _smoke(name, False, bad)
        assert not result["correct"] and result["failed"] > 0, (name, result)
        assert 0 < result["failed"] / result["attempted"] <= 1


def test_self_times_add_up_to_wall():
    refs = workloads.load_refs()
    for name in workloads.WORKLOADS:
        m = {k: v["value"] for k, v in _smoke(name, True, refs)["metrics"].items()}
        parts = sum(v for k, v in m.items() if k.endswith("_s") and not k.startswith(
            ("network.", "trace.wall", "trace.overhead")))
        assert math.isclose(parts, m["trace.wall_s"], rel_tol=1e-9), (name, parts, m)


def test_tracer_restores_originals():
    owners = [(o, a) for o, a, *_ in FRAMES + COUNTERS]
    before = [o.__dict__[a] for o, a in owners]
    tracer = Tracer()
    tracer.install()
    assert all(o.__dict__[a] is not f for (o, a), f in zip(owners, before))
    tracer.uninstall()
    assert all(o.__dict__[a] is f for (o, a), f in zip(owners, before))


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception:  # noqa: BLE001 - report every test, then fail
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
