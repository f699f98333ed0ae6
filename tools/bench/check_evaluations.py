#!/usr/bin/env python3
"""Search-trajectory oracle for bench_apc_runtime runs.

    python3 tools/bench/check_evaluations.py bench_ci.json BENCH_apc_runtime.json

Every benchmark in the first file (a fresh --benchmark_format=json run) that
also appears in the second (the committed record) must report the same
`evaluations` counter. The counter is the number of candidate placements the
optimizer scored, so a different count means a different search, whatever the
timings say. Exits 1 on any mismatch, or when no benchmark is compared at
all (a renamed benchmark must not make the check pass vacuously).
"""
import json
import sys


def evaluations_by_name(path):
    with open(path) as f:
        benchmarks = json.load(f)["benchmarks"]
    return {b["name"]: b.get("evaluations") for b in benchmarks
            if b.get("run_type", "iteration") == "iteration"}


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    ran = evaluations_by_name(argv[0])
    recorded = evaluations_by_name(argv[1])
    compared = 0
    mismatches = []
    for name, want in sorted(recorded.items()):
        if want is None or name not in ran:
            continue
        compared += 1
        got = ran[name]
        if got != want:
            shown = "missing" if got is None else f"{got:g}"
            mismatches.append(f"{name}: evaluations {shown}, "
                              f"recorded {want:g}")
    for line in mismatches:
        print(f"check_evaluations: {line}", file=sys.stderr)
    if compared == 0:
        print("check_evaluations: no benchmark with a recorded evaluations "
              "count was run", file=sys.stderr)
        return 1
    print(f"check_evaluations: {compared - len(mismatches)}/{compared} "
          "evaluations counts match the record")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
