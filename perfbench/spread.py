#!/usr/bin/env python3
"""Spread report: run workloads with several seeds and show, for every
end-to-end metric, the median and quartiles across runs next to the metric's
bound from BENCHMARK.json.

Usage, from the repository root:

    python3 perfbench/spread.py [--workloads bulk,augment,serve] [--seeds 1-10]

spread is (Q3 - Q1) / median with statistics.quantiles(values, n=4); a
metric is steady when its spread stays below its bound (the benchmark aims
for a third of it). setup_s is exempt from the spread rule, but its median
still has to repeat within its bound. Each run lasts BENCHMARK.json's
run_seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    failed = False
    for wl in args.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        for seed in seed_range(args.seeds):
            run = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", wl, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (wl, seed, run.returncode, run.stderr), file=sys.stderr)
                failed = True
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print("%s seed %d: %d of %d ops failed" % (wl, seed, result["failed"], result["attempted"]))
                failed = True
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("\n%s (%d runs, %d s each)" % (wl, len(values["setup_s"]), bench["run_seconds"]))
        print("%-14s %12s %12s %12s %8s %6s" % ("metric", "Q1", "median", "Q3", "spread", "bound"))
        for m in metrics:
            xs = values[m["name"]]
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                flag, failed = "  OVER BOUND", True
            elif spread > m["bound"] / 3:
                flag = "  > bound/3"
            print("%-14s %12.6g %12.6g %12.6g %8.4f %6.3f%s" % (m["name"], q1, med, q3, spread, m["bound"], flag))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
