#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Builds the benchmark (as run.py does), then:
  * runs every workload scaled down (--smoke) in both modes and checks that
    every metric BENCHMARK.json names is in the result with its unit and
    that the report prints a sample count for it;
  * runs seeded violations — an infeasible placement, a corrupted trace
    byte — and checks that each one fails the run (exit code 1,
    "correct": false).
Exits non-zero when anything is off.
"""
import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's entry point: build + paths)

WORKLOADS = ["exp1-paper", "alibaba-500", "storm"]
VIOLATIONS = [("exp1-paper", "infeasible"), ("alibaba-500", "infeasible"),
              ("storm", "infeasible"), ("storm", "trace-byte")]


def perfbench(binary, workload, trace, inject="none"):
    args = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--smoke", "--inject", inject]
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.rstrip("\n").split("\n")
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build(run.build_dir())
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, report, result = perfbench(binary, workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or not result["correct"]:
                failures.append(f"{where}: exit {code}, correct "
                                f"{result['correct']}")
            for metric in spec[key]:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit:
                    failures.append(f"{where}: {name} missing or not in {unit}")
                pattern = re.compile(rf"^\s+{re.escape(name)}\s+\S+\s+"
                                     rf"{re.escape(unit)}\s+n=\d+$")
                if not any(pattern.match(line) for line in report):
                    failures.append(f"{where}: no '{name} ... {unit} n=' line")
    for workload, inject in VIOLATIONS:
        code, _, result = perfbench(binary, workload, 0, inject)
        if code != 1 or result["correct"]:
            failures.append(f"{workload} --inject {inject}: exit {code}, "
                            f"correct {result['correct']} (want a failed run)")
    for failure in failures:
        print("FAIL", failure)
    print(f"smoke test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
