#!/usr/bin/env python3
"""Host-speed benchmark of the Jord worker and fleet simulators.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator and the benchmark binaries from source (into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
workload in its own single-threaded process for about S seconds, checks
the simulated results, and prints every metric by name with its unit and
direction. The last line of stdout is one JSON object: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. See
README.md for the workloads, metrics and traced run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["worker32-media", "worker256-hipster", "fleet64-hotel"]
# Each run must end within this many seconds once built.
RUN_LIMIT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure and build the benchmark package; @return its build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources in %s/src" % ROOT)
    out = build_dir()
    # Keep the compilers' temporary files inside the build tree.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DPython3_EXECUTABLE=" + sys.executable]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target",
           "perfbench_timed", "perfbench_traced", "perfbench_yardstick"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return out


def drive(binary, workload, seed, seconds, deadline):
    """Run one of the runner binaries; @return its parsed JSON."""
    out = build_dir()
    cmd = [os.path.join(out, binary), "--workload", workload,
           "--seed", str(seed), "--seconds", "%g" % seconds,
           "--yardstick", os.path.join(out, "perfbench_yardstick")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % binary)
    if proc.returncode != 0:
        fail("%s exited with %d" % (binary, proc.returncode))
    return json.loads(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    # The traced run splits the time between its timed (untraced) part,
    # which the overhead and the counts come from, and the traced part.
    timed_s = args.seconds / 2 if args.trace else args.seconds
    timed = drive("perfbench_timed", args.workload, args.seed, timed_s,
                  deadline)
    digest, attempted, failed, errors = harness.check(timed)
    values = harness.timed_values(timed)

    print("workload %s, seed %d, digest %s"
          % (args.workload, args.seed, digest))
    print("host: yardstick %.1f ms (nominal %.1f ms), %d timed reps"
          % (values["host.yardstick_ms"],
             harness.NOMINAL_YARDSTICK_S * 1000,
             len(harness.reps(timed, "run"))))
    print("raw: %.6g req/s, setup %.6g s"
          % (values["host.raw_sim_req_per_s"], values["host.raw_setup_s"]))

    if args.trace:
        traced = drive("perfbench_traced", args.workload, args.seed,
                       args.seconds - timed_s, deadline)
        t_digest, _, _, t_errors = harness.check(traced)
        errors += ["traced: " + e for e in t_errors]
        if t_digest != digest:
            errors.append("traced digest %s != untraced digest %s"
                          % (t_digest, digest))
        untraced_run_s = harness.median(
            harness.corrected(r["run_s"], harness.yard_around(timed, r))
            for r in harness.reps(timed, "run"))
        values.update(harness.layer_values(traced, untraced_run_s))
        values.update(harness.counts(timed))
        path = os.path.join(build_dir(), "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        with open(path, "w") as f:
            json.dump(traced["trace"], f)
        print("traced digest %s; spans written to %s" % (t_digest, path))
        metrics = {k: (values[k], u) for k, u in harness.PER_LAYER.items()}
        for k, (v, u) in metrics.items():
            print(harness.metric_line(k, v, u))
    else:
        metrics = {k: (values[k], u)
                   for k, (u, _) in harness.END_TO_END.items()}
        for k, (v, u) in metrics.items():
            print(harness.metric_line(k, v, u, harness.END_TO_END[k][1]))

    for e in errors:
        print("CHECK FAILED: " + e)
    print(json.dumps(harness.result(not errors, attempted, failed, metrics)))


if __name__ == "__main__":
    main()
