#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload exp1-paper --seed 1 --seconds 20 --trace 0

Builds the perfbench package (Release, CMake) into $CARGO_TARGET_DIR, or
.bench_build at the repository root when that is unset, then runs one
workload and passes its report through. The last line of standard output is
the result JSON. Build output goes to standard error, so a failed build
prints no result and exits non-zero. Run records (host noise context,
metrics, and the traced run's spans) are written to .bench_runs/.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(directory):
    """Configures and builds the benchmark binary; returns its path. Both
    steps are no-ops when the build tree is up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", directory,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", directory, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(directory, "perfbench")


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def main(argv):
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2
    runs = os.path.join(ROOT, ".bench_runs")
    os.makedirs(runs, exist_ok=True)
    try:
        proc = subprocess.run([binary, *argv, "--out-dir", runs],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    if proc.returncode == 1:  # a correctness check failed: result says so
        sys.stdout.write(proc.stdout)
        return 1
    if proc.returncode != 0:  # bad arguments or a rejected run: no result
        sys.stderr.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    expected = expected_metrics(trace)
    if expected is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != expected:
            print(f"perfbench: metrics {sorted(got.items())} differ from "
                  f"BENCHMARK.json {sorted(expected.items())}", file=sys.stderr)
            return 5
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
