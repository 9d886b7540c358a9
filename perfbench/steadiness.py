#!/usr/bin/env python3
"""Steadiness of the benchmark's end-to-end metrics.

Runs run.py on each workload N times in each of two interleaved sets (A
and B, each run with its own seed), then prints per metric the median,
quartiles and IQR/median over all runs, the median of each set and the
B-vs-A difference, with the raw (uncorrected) host values beside the
yardstick-corrected ones.

    python3 perfbench/steadiness.py --runs 5 --seconds 20 [--workload W ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, BENCH_DIR)
import run  # noqa: E402

# Reported metric -> the raw host value printed beside it.
RAW_OF = {"sim_req_per_s": "raw_sim_req_per_s", "setup_s": "raw_setup_s"}


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], check=True, stdout=subprocess.PIPE,
        text=True).stdout.splitlines()
    res = json.loads(out[-1])
    if not res["correct"] or res["failed"]:
        sys.exit("steadiness: %s seed %d failed its checks" % (workload, seed))
    values = {k: m["value"] for k, m in res["metrics"].items()}
    raw = next(line for line in out if line.startswith("raw: ")).split()
    values["raw_sim_req_per_s"] = float(raw[1])
    values["raw_setup_s"] = float(raw[4])
    return values


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--runs", type=int, default=5,
                    help="runs per set and workload")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1000,
                    help="first seed; every run gets its own")
    args = ap.parse_args()
    workloads = args.workload or run.WORKLOADS

    sets = {w: ([], []) for w in workloads}
    seed = args.seed
    for i in range(args.runs):
        for s in (0, 1):
            for w in workloads:
                sets[w][s].append(one_run(w, seed, args.seconds))
                seed += 1

    print("%-18s %-18s %12s %12s %12s %8s %12s %12s %8s" % (
        "workload", "metric", "median", "q1", "q3", "iqr/med",
        "median A", "median B", "B-A"))
    for w in workloads:
        a, b = sets[w]
        for metric in list(a[0]):
            va = [v[metric] for v in a]
            vb = [v[metric] for v in b]
            med, q1, q3, rel = spread(va + vb)
            ma, mb = statistics.median(va), statistics.median(vb)
            print("%-18s %-18s %12.6g %12.6g %12.6g %7.1f%% %12.6g %12.6g "
                  "%7.1f%%" % (w, metric, med, q1, q3, 100 * rel, ma, mb,
                               100 * (mb - ma) / ma))


if __name__ == "__main__":
    main()
