"""Regenerate bench/refs.json, the per-seed reference outputs.

    python3 bench/make_refs.py

Runs one operation of each workload for seeds 0 .. REF_SEEDS-1 with the
checkout's src/ and stores the outputs that ``workloads.check_outputs``
compares against.
References record what a given commit computes; regenerate them only in a
change that is meant to alter the program's results, and say so.
"""
from __future__ import annotations

import json
import sys
import time

import run

REL_TOL = 1e-9
REF_SEEDS = 32


def main() -> int:
    run.import_program()
    import workloads
    refs = {"rel_tol": REL_TOL}
    for name in workloads.WORKLOADS:
        refs[name] = {}
        for seed in range(REF_SEEDS):
            result = workloads.setup(name, seed).run(time.perf_counter)
            refs[name][str(seed)] = workloads.reference_record(name, result)
            print(name, seed, refs[name][str(seed)], file=sys.stderr, flush=True)
    with open(workloads.REFS_PATH, "w") as fh:  # one seed per line
        fh.write(f'{{\n "rel_tol": {json.dumps(REL_TOL)}')
        for name in workloads.WORKLOADS:
            rows = ",\n".join(f'  "{s}": {json.dumps(v)}' for s, v in refs[name].items())
            fh.write(f',\n "{name}": {{\n{rows}\n }}')
        fh.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
