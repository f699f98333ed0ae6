#!/usr/bin/env python3
"""Alternating parent/change perfbench runs, summarized per end-to-end metric.

    python3 tools/bench/ab_pairs.py --parent ../parent --change . \\
        --workload storm --seed 42 --seconds 24 --pairs 10
    python3 tools/bench/ab_pairs.py --self-test

Runs each checkout's `perfbench/run.py --trace 0` in N pairs, alternating
which side runs first. Each checkout builds into its own `.bench_build`. For
every end-to-end metric it prints each side's median and quartiles, the pairs
each side won (a tie counts for neither), whether the medians differ by more
than the parent's interquartile range (IQR), the change/parent ratio of the
medians, the wider of the two sides' spreads (IQR over median), and a
verdict, the first of these that applies:

  gain        the change won at least 9 of every 10 pairs, and its median
              is better than the parent's by more than the parent's IQR;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in the parent's BENCHMARK.json;
  unresolved  either side's spread exceeds that bound and some change run
              is no better than some parent run: the runs cannot show the
              metric unchanged;
  -           none of these.

It prints every run's correct/failed status and metrics, and exits 1 if any
run was incorrect, failed a check or printed no result. It only reads
perfbench output and BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_perfbench(checkout, workload, seed, seconds):
    """One untraced perfbench run of `checkout`: its status and metrics."""
    env = dict(os.environ,
               CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    proc = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    return {
        "returncode": proc.returncode,
        "correct": result.get("correct") is True,
        "failed": result.get("failed"),
        "metrics": {name: m.get("value")
                    for name, m in result.get("metrics", {}).items()},
    }


def run_ok(run):
    return run["returncode"] == 0 and run["correct"] and run["failed"] == 0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def relative_spread(q1, median, q3):
    """IQR over median; infinite when the median is zero."""
    return (q3 - q1) / abs(median) if median else float("inf")


def summarize(pairs, specs):
    """One row per metric in `specs` ({name: (better, bound)}) over `pairs`,
    a list of {"parent": metrics, "change": metrics} dicts."""
    rows = []
    for name, (better, bound) in specs.items():
        sign = 1.0 if better == "lower" else -1.0
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if p["parent"].get(name) is not None
                and p["change"].get(name) is not None]
        if not both:
            continue
        parent = [a for a, _ in both]
        change = [b for _, b in both]
        p_q1, p_med, p_q3 = quartiles(parent)
        c_q1, c_med, c_q3 = quartiles(change)
        change_wins = sum(sign * (b - a) < 0 for a, b in both)
        parent_wins = sum(sign * (b - a) > 0 for a, b in both)
        beyond_iqr = abs(c_med - p_med) > p_q3 - p_q1
        spread = max(relative_spread(p_q1, p_med, p_q3),
                     relative_spread(c_q1, c_med, c_q3))
        separated = all(sign * b < sign * a for a in parent for b in change)
        if 10 * change_wins >= 9 * len(both) and beyond_iqr and \
                sign * (c_med - p_med) < 0:
            verdict = "gain"
        elif sign * (c_med - p_med) > bound * abs(p_med):
            verdict = "worse"
        elif spread > bound and not separated:
            verdict = "unresolved"
        else:
            verdict = "-"
        rows.append({
            "metric": name, "pairs": len(both),
            "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
            "change_wins": change_wins, "parent_wins": parent_wins,
            "beyond_parent_iqr": beyond_iqr,
            "ratio": c_med / p_med if p_med else float("inf"),
            "spread": spread,
            "verdict": verdict,
        })
    return rows


def print_rows(rows):
    def spread(med_q1_q3):
        med, q1, q3 = med_q1_q3
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"

    print(f"{'metric':<20} {'parent median [q1, q3]':<26} "
          f"{'change median [q1, q3]':<26} {'wins c/p':<13} "
          f"{'>IQR':<5} {'ratio':<7} {'spread':<7} verdict")
    for r in rows:
        wins = f"{r['change_wins']}/{r['parent_wins']} of {r['pairs']}"
        beyond = "yes" if r["beyond_parent_iqr"] else "no"
        print(f"{r['metric']:<20} {spread(r['parent']):<26} "
              f"{spread(r['change']):<26} {wins:<13} {beyond:<5} "
              f"{r['ratio']:<7.3f} {r['spread']:<7.1%} {r['verdict']}")


def metric_specs(checkout):
    """{name: (better, bound)} for the end-to-end metrics."""
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def self_test():
    """The summary rule on canned results."""
    specs = {"t": ("lower", 0.25)}

    def verdict(parent, change):
        pairs = [{"parent": {"t": a}, "change": {"t": b}}
                 for a, b in zip(parent, change)]
        return summarize(pairs, specs)[0]

    parent = [10.0] * 10
    checks = [
        ("9/10 wins is a gain",
         verdict(parent, [5.0] * 9 + [11.0])["verdict"] == "gain"),
        ("8/10 wins is not",
         verdict(parent, [5.0] * 8 + [11.0] * 2)["verdict"] == "-"),
        ("ties count for neither side",
         verdict(parent, [5.0] * 8 + [10.0] * 2)["verdict"] == "-"
         and verdict(parent, [5.0] * 8 + [10.0] * 2)["parent_wins"] == 0),
        ("9 wins and a tie is a gain",
         verdict(parent, [5.0] * 9 + [10.0])["verdict"] == "gain"),
        ("10/10 wins inside a wide parent IQR is unresolved, not a gain",
         verdict([10.0, 20.0] * 5, [9.9, 19.9] * 5)["verdict"]
         == "unresolved"),
        ("higher-is-better metrics win upward",
         summarize([{"parent": {"t": 1.0}, "change": {"t": 2.0}}] * 10,
                   {"t": ("higher", 0.25)})[0]["verdict"] == "gain"),
        ("a median worse by more than the bound is flagged",
         verdict(parent, [12.6] * 10)["verdict"] == "worse"),
        ("wide overlapping runs are unresolved",
         verdict([10.0, 14.0] * 5, [10.5, 13.5] * 5)["verdict"]
         == "unresolved"),
        ("a wide spread on the change side alone is unresolved",
         verdict(parent, [8.0, 12.0] * 5)["verdict"] == "unresolved"),
        ("wide runs where every change run is better are not unresolved",
         verdict([10.0, 20.0] * 5, [9.0, 9.5] * 5)["verdict"] == "-"),
        ("a median worse by more than the bound stays worse when wide",
         verdict([10.0, 14.0] * 5, [16.0, 20.0] * 5)["verdict"] == "worse"),
        ("narrow runs are unchanged",
         verdict([10.0, 10.5] * 5, [10.2, 10.6] * 5)["verdict"] == "-"),
        ("a run with a failed check is not ok",
         not run_ok({"returncode": 1, "correct": False, "failed": 2})),
        ("a run without a result is not ok",
         not run_ok({"returncode": 0, "correct": False, "failed": None})),
        ("a correct run is ok",
         run_ok({"returncode": 0, "correct": True, "failed": 0})),
    ]
    failures = [name for name, passed in checks if not passed]
    for name in failures:
        print(f"ab_pairs self-test: FAILED: {name}", file=sys.stderr)
    print(f"ab_pairs self-test: {len(checks) - len(failures)}/{len(checks)} "
          "checks pass")
    return 1 if failures else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if None in (args.parent, args.change, args.workload, args.seed,
                args.seconds) or args.pairs < 1:
        parser.error("--parent, --change, --workload, --seed and --seconds "
                     "are required, and --pairs must be positive")
    checkouts = {"parent": os.path.abspath(args.parent),
                 "change": os.path.abspath(args.change)}
    seconds = f"{args.seconds:g}"
    records = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            run = run_perfbench(checkouts[side], args.workload, args.seed,
                                seconds)
            status = "correct" if run["correct"] else "incorrect"
            values = "".join(f", {name}={value}"
                             for name, value in run["metrics"].items())
            print(f"pair {i + 1}/{args.pairs} {side}: {status}, "
                  f"failed={run['failed']}, exit={run['returncode']}{values}",
                  flush=True)
            pair[side] = run
        records.append(pair)
    print(f"\n{args.workload} seed {args.seed}, --seconds {seconds}, "
          f"{args.pairs} pairs")
    print_rows(summarize(
        [{side: p[side]["metrics"] for side in SIDES} for p in records],
        metric_specs(checkouts["parent"])))
    bad = sum(not run_ok(p[side]) for p in records for side in SIDES)
    if bad:
        print(f"ab_pairs: {bad} run(s) incorrect, failed or without a result",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
