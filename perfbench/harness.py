"""Benchmark arithmetic: yardstick correction, checks and metrics.

Shared by run.py, steadiness.py and the self-tests. It reads the JSON a
runner binary prints (see runner.cc) and holds no simulator knowledge
beyond the names of the layers.
"""

import statistics

# Host seconds of one yardstick slice (all its phases) at the nominal
# host speed. Every corrected time is scaled to it: a rep that took t
# seconds between slices that took y seconds on average counts as
# t * NOMINAL_YARDSTICK_S / y. The value is a constant of the benchmark,
# near the slice time on the machine the benchmark was tuned on, and
# must not change between the commits being compared.
NOMINAL_YARDSTICK_S = 0.200

# name -> (unit, direction); the end-to-end metrics of every workload.
END_TO_END = {
    "sim_req_per_s": ("req/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# The residual layer each workload kind charges EventQueue::run's own
# time to: the event pop plus the callback bodies, which cannot be told
# apart from outside. The other layers are the wrapped ones (gen_wrap.py).
RESIDUAL = {"worker": "runtime", "fleet": "cluster"}
ALL_LAYERS = ["noc", "mem", "uat", "privlib", "sim", "runtime",
              "cluster.lb", "cluster.traffic", "cluster.model", "cluster"]

# Functions with their own per-layer metrics: the ones an optimisation
# of that layer is most likely to move.
FUNCTIONS = [
    ("noc", "Mesh.latency"), ("noc", "Mesh.roundTrip"),
    ("noc", "Mesh.homeSlice"),
    ("mem", "CoherenceEngine.read"), ("mem", "CoherenceEngine.write"),
    ("mem", "CoherenceEngine.atomic"),
    ("uat", "UatSystem.dataAccess"), ("uat", "UatSystem.fetch"),
    ("uat", "UatSystem.vteWrite"),
    ("uat", "Vlb.lookup"), ("uat", "Vlb.insert"),
    ("uat", "Vlb.invalidateVte"), ("uat", "Vtd.addSharer"),
    ("uat", "Vtd.remove"),
    ("cluster.lb", "LoadBalancer.pick"),
    ("cluster.traffic", "TrafficSource.next"),
    ("cluster.model", "ServerModel.drawServiceUs"),
]

COUNTS = ["runtime.invocations", "mem.accesses", "mem.messages",
          "privlib.ops", "uat.shootdowns", "cluster.requests",
          "cluster.cold_starts"]
PMU = ["pmu.vlb_d_misses", "pmu.vtw_walks", "pmu.vtd_shootdowns",
       "pmu.noc_hops", "pmu.dispatch_scans"]


def _per_layer():
    m = {
        "sim.events": "count",
        "sim.host_ns_per_event": "ns",
        "setup.workload_s": "s",
        "setup.server_s": "s",
        "host.raw_sim_req_per_s": "req/s",
        "host.raw_setup_s": "s",
        "host.yardstick_ms": "ms",
    }
    m.update((c, "count") for c in COUNTS)
    for layer in ALL_LAYERS:
        m[layer + ".calls"] = "count"
        m[layer + ".self_s"] = "s"
        m[layer + ".share"] = "fraction"
    for layer, fn in FUNCTIONS:
        m["%s.%s.calls" % (layer, fn)] = "count"
        m["%s.%s.self_s" % (layer, fn)] = "s"
    m["trace.overhead"] = "ratio"
    m.update((p, "count") for p in PMU)
    return m


# name -> unit; printed by every traced run, 0 where a workload
# bypasses the layer.
PER_LAYER = _per_layer()


def median(values):
    return statistics.median(values)


def corrected(raw_s, yard_s, nominal_s=NOMINAL_YARDSTICK_S):
    """Scale a host time measured while yardstick slices took @yard_s to
    the nominal host speed."""
    return raw_s * nominal_s / yard_s


def yard_slices(doc):
    """Host seconds of each yardstick slice (all its phases together)."""
    return [sum(phases) for phases in doc["yardstick_s"]]


def yard_around(doc, rep):
    """Mean yardstick seconds of the two slices around @rep."""
    y = yard_slices(doc)
    return (y[rep["yard_before"]] + y[rep["yard_after"]]) / 2


def reps(doc, kind):
    return [r for r in doc["reps"] if r["kind"] == kind]


def setup_reps(doc):
    """Reps that measured a setup: the fleet's calibration reps, or
    every worker rep (each builds its model and server)."""
    if doc["fleet"]:
        return reps(doc, "setup")
    return reps(doc, "warm") + reps(doc, "run")


def check(doc):
    """Check one run of a runner binary.

    @return (digest, attempted, failed, errors).

    Operations are the requests of the timed reps. A rep fails its
    checks when a request did not resolve exactly once or its digest
    differs from the run's first; failed counts every request that did
    not complete plus every request of a failed rep.
    """
    errors = []
    simulated = [r for r in doc["reps"] if r["kind"] != "setup"]
    digest = simulated[0]["digest"] if simulated else None
    setups = reps(doc, "setup")
    for r in setups:
        if r["digest"] != setups[0]["digest"]:
            errors.append("setup digest %s != %s"
                          % (r["digest"], setups[0]["digest"]))
    attempted = failed = 0
    for r in simulated:
        ok = r["resolved"] and r["digest"] == digest
        if not r["resolved"]:
            errors.append("%s rep: a request did not resolve exactly once"
                          % r["kind"])
        if r["digest"] != digest:
            errors.append("%s rep digest %s != %s"
                          % (r["kind"], r["digest"], digest))
        if r["kind"] != "run":
            continue
        attempted += r["attempted"]
        failed += r["attempted"] if not ok else r["incomplete"]
    if not reps(doc, "run"):
        errors.append("no timed reps")
    return digest, attempted, failed, errors


def timed_values(doc):
    """End-to-end metrics and timed-run per-layer metrics of one run."""
    runs = reps(doc, "run")
    run_c = [corrected(r["run_s"], yard_around(doc, r)) for r in runs]
    setups = setup_reps(doc)
    setup_raw = [r["workload_s"] + r["server_s"] for r in setups]
    setup_c = [corrected(s, yard_around(doc, r))
               for s, r in zip(setup_raw, setups)]
    return {
        "sim_req_per_s": median(r["simulated"] / c
                                for r, c in zip(runs, run_c)),
        "setup_s": median(setup_c),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "sim.events": runs[0]["events"],
        "sim.host_ns_per_event": median(
            c / r["events"] for r, c in zip(runs, run_c)) * 1e9,
        "setup.workload_s": median(
            corrected(r["workload_s"], yard_around(doc, r))
            for r in setups),
        "setup.server_s": median(
            corrected(r["server_s"], yard_around(doc, r)) for r in setups),
        "host.raw_sim_req_per_s": median(r["simulated"] / r["run_s"]
                                         for r in runs),
        "host.raw_setup_s": median(setup_raw),
        "host.yardstick_ms": median(yard_slices(doc)) * 1000,
    }


def layer_values(traced, untraced_run_s):
    """Per-layer metrics of a traced run.

    Times are per timed rep, scaled by the traced run's median
    yardstick. The traced region is the timed reps' run time less the
    calibrated cost of every wrapper; the residual layer is that region
    less every wrapped layer's self time, and its calls are the events
    dispatched.
    """
    trace = traced["trace"]
    runs = reps(traced, "run")
    n = len(runs)
    scale = NOMINAL_YARDSTICK_S / median(yard_slices(traced))
    calls = [c for c in trace["calls"] if c["phase"] == "run"]
    wrapper_s = (trace["overhead_inside_s"] + trace["overhead_outside_s"]) \
        * sum(c["calls"] for c in calls) / n
    region = sum(s["dur_s"] for s in trace["spans"]
                 if s["name"] == "run") / n - wrapper_s
    layer_self = {layer: 0.0 for layer in ALL_LAYERS}
    layer_calls = {layer: 0 for layer in ALL_LAYERS}
    fn_self, fn_calls = {}, {}
    for c in calls:
        if c["layer"] == "runloop":
            continue
        key = (c["layer"], c["fn"])
        fn_self[key] = fn_self.get(key, 0.0) + c["self_s"] / n
        fn_calls[key] = fn_calls.get(key, 0) + c["calls"] // n
        layer_self[c["layer"]] += c["self_s"] / n
        layer_calls[c["layer"]] += c["calls"] // n
    residual = RESIDUAL["fleet" if traced["fleet"] else "worker"]
    layer_self[residual] = region - sum(layer_self.values())
    layer_calls[residual] = runs[0]["events"]
    values = {}
    for layer in ALL_LAYERS:
        s = max(0.0, layer_self[layer])
        values[layer + ".calls"] = layer_calls[layer]
        values[layer + ".self_s"] = s * scale
        values[layer + ".share"] = s / region
    for layer, fn in FUNCTIONS:
        values["%s.%s.calls" % (layer, fn)] = fn_calls.get((layer, fn), 0)
        values["%s.%s.self_s" % (layer, fn)] = max(
            0.0, fn_self.get((layer, fn), 0.0)) * scale
    traced_run_s = median(corrected(r["run_s"], yard_around(traced, r))
                          for r in runs)
    values["trace.overhead"] = traced_run_s / untraced_run_s
    pmu = reps(traced, "pmu")
    for p in PMU:
        values[p] = pmu[0]["counts"].get(p, 0) if pmu else 0
    return values


def counts(doc):
    run = reps(doc, "run")[0]["counts"]
    return {c: run.get(c, 0) for c in COUNTS}


def metric_line(name, value, unit, better=None):
    """One human-readable metric line: name, value, unit, direction."""
    line = "%-44s %16.6g %-9s" % (name, value, unit)
    if better:
        line += " (%s is better)" % better
    return line.rstrip()


def result(correct, attempted, failed, metrics):
    """The benchmark's last output line, as a dict."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
