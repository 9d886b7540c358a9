/**
 * @file
 * jordsim: command-line driver for one-off simulation runs.
 *
 * Runs a (workload, system, load) combination on a configurable machine
 * and prints either a human-readable report or CSV for scripting:
 *
 *     jordsim --workload Hipster --system Jord --mrps 4.0
 *     jordsim --workload Media --system NightCore --requests 50000 --csv
 *     jordsim --workload Hotel --sweep 0.5:9:12   # load sweep + SLO knee
 *     jordsim --workload Hotel --fault-plan "crash=0.01" \
 *             --timeout-us 500 --max-retries 2 --shed-cap 256
 *     jordsim --workload Media --json run.json   # flat run summary
 *
 * Run `jordsim --help` for the full flag reference.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/check.hh"
#include "cluster/cluster.hh"
#include "fault/fault.hh"
#include "par/par.hh"
#include "privlib/privlib.hh"
#include "prof/pmu.hh"
#include "prof/profile_json.hh"
#include "prof/profiler.hh"
#include "sim/logging.hh"
#include "trace/export.hh"
#include "trace/trace.hh"
#include "workloads/sweep.hh"
#include "workloads/workloads.hh"

using namespace jord;
using runtime::RunResult;
using runtime::SystemKind;
using runtime::WorkerConfig;
using runtime::WorkerServer;

namespace {

SystemKind
parseSystem(const std::string &name)
{
    if (name == "Jord")
        return SystemKind::Jord;
    if (name == "JordNI")
        return SystemKind::JordNI;
    if (name == "JordBT")
        return SystemKind::JordBT;
    if (name == "NightCore")
        return SystemKind::NightCore;
    sim::fatal("unknown system '%s' (Jord|JordNI|JordBT|NightCore)",
               name.c_str());
}

struct Options {
    std::string workload = "Hipster";
    std::string system = "Jord";
    double mrps = 1.0;
    std::uint64_t requests = 20000;
    unsigned cores = 32;
    unsigned sockets = 1;
    unsigned orchestrators = 4;
    std::uint64_t seed = 42;
    bool csv = false;
    bool sweep = false;
    double sweepLo = 0, sweepHi = 0;
    unsigned sweepN = 0;
    bool seedSweep = false;
    std::uint64_t seedLo = 0, seedHi = 0;
    unsigned cluster = 0;
    std::string lb = "random2";
    std::string traffic = "constant";
    double durationMs = 20.0;
    double sloUs = 0;
    bool autoscale = false;
    unsigned autoscaleLo = 0, autoscaleHi = 0;
    /** Explicitly-given flags that only make sense in one mode; the
     * other mode rejects them instead of silently ignoring them. */
    std::vector<std::string> workerOnlyFlags;
    std::vector<std::string> clusterOnlyFlags;
    unsigned jobs = 1;
    std::string jsonOut;
    std::string traceOut;
    std::string profOut;
    std::string pmuOut;
    double profHz = 0;
    bool profHzSet = false;
    std::string faultPlan;
    double timeoutUs = 0;
    unsigned maxRetries = 0;
    double retryBackoffUs = 20.0;
    std::size_t shedCap = 0;
    check::CheckConfig check;
};

void
printUsage()
{
    std::printf(
        "usage: jordsim [flags]\n"
        "\n"
        "Run one (workload, system, load) combination of the Jord\n"
        "simulation, or a load sweep, and report latency/throughput.\n"
        "\n"
        "run selection:\n"
        "  --workload NAME     Hipster | Hotel | Media | Social"
        "  (default Hipster)\n"
        "  --system NAME       Jord | JordNI | JordBT | NightCore"
        " (default Jord)\n"
        "  --mrps X            offered load in MRPS"
        "            (default 1.0)\n"
        "  --requests N        external requests to generate"
        "   (default 20000)\n"
        "  --sweep LO:HI:N     sweep N >= 1 loads in [LO, HI], with\n"
        "                      0 < LO <= HI, and report the SLO knee\n"
        "                      instead of a single run\n"
        "  --seed-sweep A..B   run once per seed in [A, B] and emit a\n"
        "                      merged per-seed report (CSV with --csv,\n"
        "                      flat JSON with --json)\n"
        "\n"
        "fleet simulation (src/cluster):\n"
        "  --cluster N         simulate N worker servers behind a\n"
        "                      front-end LB instead of a single run.\n"
        "                      Each server is calibrated by running\n"
        "                      the real simulator (--requests sets the\n"
        "                      calibration length); --mrps is the\n"
        "                      fleet-wide offered load. In this mode\n"
        "                      --shed-cap is the per-server\n"
        "                      outstanding cap (admission control)\n"
        "                      and --json adds per-server\n"
        "                      cluster.server<k>.* keys\n"
        "  --lb POLICY         random | random2 | jsq | rr | affinity\n"
        "                      (default random2)\n"
        "  --traffic SHAPE     constant | diurnal | flash | mix, with\n"
        "                      optional :key=value,... overrides (amp,\n"
        "                      period_ms, factor, start, end), e.g.\n"
        "                      flash:factor=4,start=0.4,end=0.6\n"
        "  --duration-ms X     simulated traffic duration (default 20)\n"
        "  --slo-us X          fleet SLO; 0 derives 10x the calibrated\n"
        "                      low-load mean latency (default 0)\n"
        "  --autoscale A..B    enable the autoscaling controller with\n"
        "                      A..B active servers (initial count is\n"
        "                      --cluster N clamped into [A, B])\n"
        "\n"
        "host parallelism:\n"
        "  --jobs N            fan independent runs (sweep points,\n"
        "                      seeds) across N host threads; 0 = one\n"
        "                      per hardware thread. Output is byte-\n"
        "                      identical to --jobs 1. (default 1)\n"
        "\n"
        "machine:\n"
        "  --cores N           total cores"
        "                     (default 32)\n"
        "  --sockets N         socket count"
        "                    (default 1)\n"
        "  --orchestrators N   orchestrator threads"
        "            (default 4)\n"
        "  --seed N            RNG seed"
        "                        (default 42)\n"
        "\n"
        "failure handling (all off by default):\n"
        "  --fault-plan SPEC   deterministic fault-injection plan.\n"
        "                      SPEC is ';'-separated clauses of\n"
        "                      comma-separated key=value pairs; the\n"
        "                      first clause applies to every function,\n"
        "                      later 'Name:' clauses override one\n"
        "                      function. Keys: crash (probability),\n"
        "                      perm (ArgBuf permission violation),\n"
        "                      spike (probability) and spikex\n"
        "                      (multiplier), drop (NightCore pipe\n"
        "                      drop), seed (injection seed; global\n"
        "                      clause only, default: worker seed).\n"
        "                      e.g. \"crash=0.01;ReadPage:crash=0.2\"\n"
        "  --timeout-us X      per-request deadline in us (0 = none)\n"
        "  --max-retries N     retry budget per external request\n"
        "  --retry-backoff-us X  base retry delay, doubled per attempt\n"
        "                      (default 20)\n"
        "  --shed-cap N        shed external arrivals when an\n"
        "                      orchestrator's external queue holds N\n"
        "                      requests (0 = never shed)\n"
        "\n"
        "Worker-only flags (--fault-plan, --timeout-us, --max-retries,\n"
        "--retry-backoff-us) are rejected with --cluster, and\n"
        "fleet-only flags (--lb, --traffic, --duration-ms, --slo-us,\n"
        "--autoscale) are rejected without it.\n"
        "\n"
        "checking (JordSan, all off by default):\n"
        "  --check[=FAMILIES]  run with the isolation sanitizer on.\n"
        "                      FAMILIES is a comma-separated subset of\n"
        "                      access,vlb,difftable (default: all).\n"
        "                      Violations are reported on stderr and\n"
        "                      make jordsim exit nonzero. With --check\n"
        "                      off, output is byte-identical to a\n"
        "                      build without the checker.\n"
        "\n"
        "profiling (off by default; profiling off leaves every other\n"
        "output byte-identical):\n"
        "  --prof-out BASE     enable the PMU and sampling profiler and\n"
        "                      write BASE.folded (flamegraph folded\n"
        "                      stacks), BASE.timeseries.csv (sampled\n"
        "                      gauges), BASE.topdown.csv (per-core\n"
        "                      cycle attribution) and BASE.json (flat\n"
        "                      profile summary for jordprof)\n"
        "  --prof-hz HZ        sample rate in samples per simulated\n"
        "                      second (default 100000 when --prof-out\n"
        "                      is given; 0 disables profiling even if\n"
        "                      --prof-out/--pmu-out are present; rates\n"
        "                      above one sample per core cycle exceed\n"
        "                      the event-queue horizon and are\n"
        "                      rejected)\n"
        "  --pmu-out FILE      enable the PMU and write its per-core\n"
        "                      counters as CSV\n"
        "\n"
        "output:\n"
        "  --csv               machine-readable output\n"
        "  --json FILE         write the run's flat JSON summary for\n"
        "                      jordprof (a single run, --cluster or\n"
        "                      --seed-sweep; --sweep rejects it). A\n"
        "                      single run's summary holds its\n"
        "                      results, per-op PrivLib calls and\n"
        "                      cycles, VLB and VTD counts and, with\n"
        "                      --check, JordSan's violations\n"
        "  --trace-out FILE    write a Chrome trace-event / Perfetto\n"
        "                      JSON trace of the run\n"
        "\n"
        "Value-taking flags also accept the --flag=value form.\n");
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Every value-taking flag accepts both "--flag value" and
        // "--flag=value" (the fault-plan spec itself contains '=', so
        // only the first '=' splits).
        std::string flag = arg;
        std::string inline_val;
        bool has_inline = false;
        if (arg.rfind("--", 0) == 0) {
            if (std::size_t eq = arg.find('=');
                eq != std::string::npos) {
                flag = arg.substr(0, eq);
                inline_val = arg.substr(eq + 1);
                has_inline = true;
                if (inline_val.empty())
                    sim::fatal("%s requires a value", flag.c_str());
            }
        }
        auto value = [&]() -> std::string {
            if (has_inline)
                return inline_val;
            if (i + 1 >= argc)
                sim::fatal("%s requires a value", flag.c_str());
            return argv[++i];
        };
        if (flag == "--workload")
            opt.workload = value();
        else if (flag == "--system")
            opt.system = value();
        else if (flag == "--mrps")
            opt.mrps = std::strtod(value().c_str(), nullptr);
        else if (flag == "--requests")
            opt.requests =
                std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--cores")
            opt.cores = static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (flag == "--sockets")
            opt.sockets = static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (flag == "--orchestrators")
            opt.orchestrators = static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (flag == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--trace-out")
            opt.traceOut = value();
        else if (flag == "--prof-out")
            opt.profOut = value();
        else if (flag == "--pmu-out")
            opt.pmuOut = value();
        else if (flag == "--prof-hz") {
            opt.profHz = std::strtod(value().c_str(), nullptr);
            opt.profHzSet = true;
            if (opt.profHz < 0)
                sim::fatal("--prof-hz expects a rate >= 0, got %g",
                           opt.profHz);
        }
        else if (flag == "--fault-plan") {
            opt.faultPlan = value();
            opt.workerOnlyFlags.push_back(flag);
        } else if (flag == "--timeout-us") {
            opt.timeoutUs = std::strtod(value().c_str(), nullptr);
            opt.workerOnlyFlags.push_back(flag);
        } else if (flag == "--max-retries") {
            opt.maxRetries = static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10));
            opt.workerOnlyFlags.push_back(flag);
        } else if (flag == "--retry-backoff-us") {
            opt.retryBackoffUs = std::strtod(value().c_str(), nullptr);
            opt.workerOnlyFlags.push_back(flag);
        } else if (flag == "--shed-cap")
            opt.shedCap = static_cast<std::size_t>(
                std::strtoull(value().c_str(), nullptr, 10));
        else if (flag == "--check") {
            // Bare --check enables every family; --check=a,b a subset.
            std::string spec = has_inline ? inline_val : "";
            if (!check::CheckConfig::parse(spec, opt.check))
                sim::fatal("--check expects a comma-separated subset "
                           "of access,vlb,difftable, got '%s'",
                           spec.c_str());
        } else if (flag == "--csv")
            opt.csv = true;
        else if (flag == "--json")
            opt.jsonOut = value();
        else if (flag == "--jobs")
            opt.jobs = par::resolveJobs(static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10)));
        else if (flag == "--sweep") {
            std::string spec = value();
            // The knee rule reads the loads in ascending order.
            if (std::sscanf(spec.c_str(), "%lf:%lf:%u", &opt.sweepLo,
                            &opt.sweepHi, &opt.sweepN) != 3 ||
                !(opt.sweepLo > 0) || opt.sweepHi < opt.sweepLo ||
                opt.sweepN == 0)
                sim::fatal("--sweep expects LO:HI:N with 0 < LO <= HI "
                           "and N >= 1, got '%s'",
                           spec.c_str());
            opt.sweep = true;
        } else if (flag == "--cluster")
            opt.cluster = static_cast<unsigned>(
                std::strtoul(value().c_str(), nullptr, 10));
        else if (flag == "--lb") {
            opt.lb = value();
            opt.clusterOnlyFlags.push_back(flag);
        } else if (flag == "--traffic") {
            opt.traffic = value();
            opt.clusterOnlyFlags.push_back(flag);
        } else if (flag == "--duration-ms") {
            opt.durationMs = std::strtod(value().c_str(), nullptr);
            opt.clusterOnlyFlags.push_back(flag);
        } else if (flag == "--slo-us") {
            opt.sloUs = std::strtod(value().c_str(), nullptr);
            opt.clusterOnlyFlags.push_back(flag);
        } else if (flag == "--autoscale") {
            std::string spec = value();
            unsigned long lo = 0, hi = 0;
            if (std::sscanf(spec.c_str(), "%lu..%lu", &lo, &hi) != 2 ||
                lo == 0 || hi < lo)
                sim::fatal("--autoscale expects A..B with 1 <= A <= B, "
                           "got '%s'",
                           spec.c_str());
            opt.autoscale = true;
            opt.autoscaleLo = static_cast<unsigned>(lo);
            opt.autoscaleHi = static_cast<unsigned>(hi);
            opt.clusterOnlyFlags.push_back(flag);
        } else if (flag == "--seed-sweep") {
            std::string spec = value();
            unsigned long long lo = 0, hi = 0;
            if (std::sscanf(spec.c_str(), "%llu..%llu", &lo, &hi) != 2 ||
                hi < lo)
                sim::fatal("--seed-sweep expects A..B with A <= B, "
                           "got '%s'",
                           spec.c_str());
            opt.seedLo = lo;
            opt.seedHi = hi;
            opt.seedSweep = true;
        } else if (flag == "--help" || flag == "-h") {
            printUsage();
            std::exit(0);
        } else {
            sim::fatal("unknown flag '%s' (try --help)", arg.c_str());
        }
    }
    return opt;
}

WorkerConfig
makeWorkerConfig(const Options &opt)
{
    WorkerConfig cfg;
    if (opt.cores != 32 || opt.sockets != 1)
        cfg.machine = sim::MachineConfig::scaled(opt.cores, opt.sockets);
    cfg.system = parseSystem(opt.system);
    cfg.numOrchestrators = opt.orchestrators;
    cfg.seed = opt.seed;
    if (!opt.faultPlan.empty())
        cfg.faultPlan = fault::FaultPlan::parse(opt.faultPlan);
    cfg.timeoutUs = opt.timeoutUs;
    cfg.maxRetries = opt.maxRetries;
    cfg.retryBackoffUs = opt.retryBackoffUs;
    cfg.shedCap = opt.shedCap;
    cfg.check = opt.check;
    return cfg;
}

/** Whole-run counts of the worker's layers, read from their owners:
 * PrivLib's per-op stats, every core's I- and D-VLB, and the VTD. */
std::map<std::string, double>
layerCounts(WorkerServer &worker)
{
    auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    std::map<std::string, double> out;
    for (unsigned i = 0;
         i < static_cast<unsigned>(privlib::PrivOp::NumOps); ++i) {
        auto op = static_cast<privlib::PrivOp>(i);
        const privlib::OpStats &stats = worker.privlib().stats(op);
        std::string base = std::string("privlib.") + privlib::privOpName(op);
        out[base + ".calls"] = count(stats.count);
        out[base + ".cycles"] = count(stats.cycles);
    }
    std::uint64_t hits = 0, misses = 0;
    for (unsigned core = 0; core < worker.config().machine.numCores;
         ++core)
        for (const uat::Vlb *vlb :
             {&worker.uat().ivlb(core), &worker.uat().dvlb(core)}) {
            hits += vlb->stats().hits;
            misses += vlb->stats().misses;
        }
    out["uat.vlb.hits"] = count(hits);
    out["uat.vlb.misses"] = count(misses);
    out["uat.vtd.shootdowns_pessimistic"] =
        count(worker.uat().vtd().stats().pessimistic);
    return out;
}

/**
 * The flat summary of one worker run (--json, and the start of
 * --prof-out's BASE.json): @p res over the measured window, then the
 * layer counts over the whole run as the change from @p before, read
 * by layerCounts() ahead of run(), and JordSan's violations.
 */
std::map<std::string, double>
runSummary(const RunResult &res, WorkerServer &worker,
           const std::map<std::string, double> &before)
{
    auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    std::map<std::string, double> out = layerCounts(worker);
    for (auto &[key, value] : out)
        value -= before.at(key);
    // A shootdown is a fan-out with a completion latency.
    out["uat.vtd.shootdowns"] = count(res.shootdownNs.count());

    out["offered_mrps"] = res.offeredMrps;
    out["achieved_mrps"] = res.achievedMrps;
    out["mean_us"] = res.latencyUs.mean();
    out["p50_us"] = res.latencyUs.p50();
    out["p99_us"] = res.latencyUs.p99();
    out["completed"] = count(res.completedRequests);
    out["failed"] = count(res.failedRequests);
    out["timed_out"] = count(res.timedOutRequests);
    out["shed"] = count(res.shedRequests);
    out["invocations"] = count(res.invocations);
    out["retries"] = count(res.retries);
    out["aborted_invocations"] = count(res.abortedInvocations);
    out["faults_injected"] = count(res.faultsInjected);
    out["utilization"] = res.executorUtilization;
    out["service_mean_us"] = res.serviceUs.mean();
    out["service_p99_us"] = res.serviceUs.p99();
    out["dispatch_mean_ns"] = res.dispatchNs.mean();
    out["dispatch_p99_ns"] = res.dispatchNs.p99();
    out["shootdown_mean_ns"] = res.shootdownNs.mean();
    out["shootdown_p99_ns"] = res.shootdownNs.p99();

    if (const check::Checker *checker = worker.checker()) {
        using check::CheckFamily;
        static constexpr std::pair<const char *, CheckFamily>
            kFamilies[] = {{"access", CheckFamily::Access},
                           {"vlb", CheckFamily::Vlb},
                           {"difftable", CheckFamily::Difftable}};
        for (const auto &[name, family] : kFamilies)
            out[std::string("check.violations.") + name] =
                count(checker->violations(family));
    }
    return out;
}

int
runOnce(const Options &opt)
{
    workloads::Workload w = workloads::makeByName(opt.workload);
    WorkerConfig cfg = makeWorkerConfig(opt);
    WorkerServer worker(cfg, w.registry);

    trace::Tracer tracer(cfg.machine.freqGhz);
    if (!opt.traceOut.empty()) {
        worker.setTracer(&tracer);
        char mrps[32];
        std::snprintf(mrps, sizeof(mrps), "%.4f", opt.mrps);
        tracer.setMeta("workload", opt.workload);
        tracer.setMeta("mrps", mrps);
        tracer.setMeta("machine",
                       std::to_string(cfg.machine.numCores) + "c/" +
                           std::to_string(cfg.machine.numSockets) + "s");
    }

    // Profiling: the PMU attaches whenever a profile output was
    // requested, the sampling profiler only for --prof-out.  An
    // explicit --prof-hz 0 turns profiling off entirely: nothing is
    // attached, so the run is byte-identical to an unprofiled one.
    bool want_prof = !opt.profOut.empty() || !opt.pmuOut.empty();
    double hz = opt.profHzSet ? opt.profHz : 100000.0;
    double horizon_hz = cfg.machine.freqGhz * 1e9;
    if (hz > horizon_hz)
        sim::fatal("--prof-hz %g exceeds the event-queue horizon: a "
                   "%g GHz clock allows at most %g samples per "
                   "simulated second",
                   hz, cfg.machine.freqGhz, horizon_hz);
    if (opt.profHzSet && hz == 0 && want_prof) {
        std::fprintf(stderr, "profiling disabled by --prof-hz 0; "
                             "skipping profile outputs\n");
        want_prof = false;
    }
    std::optional<prof::Pmu> pmu;
    std::optional<prof::Profiler> profiler;
    if (want_prof) {
        pmu.emplace(cfg.machine.numCores);
        worker.setPmu(&*pmu);
        if (!opt.profOut.empty()) {
            prof::Profiler::Config pcfg;
            pcfg.hz = hz;
            pcfg.freqGhz = cfg.machine.freqGhz;
            profiler.emplace(worker.eventQueue(), worker, pcfg);
            worker.setProfiler(&*profiler);
        }
    }

    std::map<std::string, double> before = layerCounts(worker);
    RunResult res = worker.run(opt.mrps, opt.requests, w.mix);
    std::map<std::string, double> summary =
        runSummary(res, worker, before);

    auto openOut = [](const std::string &path) {
        std::ofstream out(path);
        if (!out)
            sim::fatal("cannot open '%s'", path.c_str());
        return out;
    };
    if (profiler) {
        {
            auto out = openOut(opt.profOut + ".folded");
            profiler->writeFolded(out);
        }
        {
            auto out = openOut(opt.profOut + ".timeseries.csv");
            profiler->writeTimeSeriesCsv(out);
        }
        {
            auto out = openOut(opt.profOut + ".topdown.csv");
            pmu->writeTopDownCsv(out);
        }
        std::map<std::string, double> profile = summary;
        profile["samples"] = static_cast<double>(profiler->samples());
        profile["total_ticks"] =
            static_cast<double>(pmu->totalTicks());
        for (unsigned c = 0; c < prof::Pmu::kNumCounters; ++c) {
            auto counter = static_cast<prof::PmuCounter>(c);
            profile[std::string("counter.") +
                    prof::pmuCounterName(counter)] =
                static_cast<double>(pmu->totalCounter(counter));
        }
        for (unsigned b = 0; b < prof::Pmu::kNumBuckets; ++b) {
            auto bucket = static_cast<prof::PmuBucket>(b);
            std::uint64_t total = 0;
            for (unsigned core = 0; core < pmu->numCores(); ++core)
                total += pmu->bucket(core, bucket);
            profile[std::string("topdown.") +
                    prof::pmuBucketName(bucket)] =
                static_cast<double>(total);
        }
        auto out = openOut(opt.profOut + ".json");
        prof::writeFlatJson(out, profile);
        std::fprintf(stderr,
                     "wrote %llu profile samples to %s.{folded,"
                     "timeseries.csv,topdown.csv,json}\n",
                     static_cast<unsigned long long>(
                         profiler->samples()),
                     opt.profOut.c_str());
    }
    if (pmu && !opt.pmuOut.empty()) {
        auto out = openOut(opt.pmuOut);
        pmu->writeCountersCsv(out);
        std::fprintf(stderr, "wrote PMU counters to %s\n",
                     opt.pmuOut.c_str());
    }

    if (!opt.traceOut.empty()) {
        std::ofstream out(opt.traceOut);
        if (!out)
            sim::fatal("cannot open '%s'", opt.traceOut.c_str());
        trace::writeChromeTrace(tracer, out);
        std::fprintf(stderr, "wrote %zu spans to %s\n",
                     tracer.numSpans(), opt.traceOut.c_str());
    }
    if (!opt.jsonOut.empty()) {
        auto out = openOut(opt.jsonOut);
        prof::writeFlatJson(out, summary);
        std::fprintf(stderr, "wrote %zu summary keys to %s\n",
                     summary.size(), opt.jsonOut.c_str());
    }

    int rc = 0;
    if (check::Checker *checker = worker.checker()) {
        checker->report(std::cerr);
        if (checker->totalViolations())
            rc = 2;
    }

    if (opt.csv) {
        std::printf("workload,system,offered_mrps,achieved_mrps,"
                    "mean_us,p50_us,p99_us,invocations,utilization,"
                    "completed,failed,timedout,shed,retries\n");
        std::printf("%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%llu,%.4f,"
                    "%llu,%llu,%llu,%llu,%llu\n",
                    opt.workload.c_str(), opt.system.c_str(), opt.mrps,
                    res.achievedMrps, res.latencyUs.mean(),
                    res.latencyUs.p50(), res.latencyUs.p99(),
                    static_cast<unsigned long long>(res.invocations),
                    res.executorUtilization,
                    static_cast<unsigned long long>(
                        res.completedRequests),
                    static_cast<unsigned long long>(res.failedRequests),
                    static_cast<unsigned long long>(
                        res.timedOutRequests),
                    static_cast<unsigned long long>(res.shedRequests),
                    static_cast<unsigned long long>(res.retries));
        return rc;
    }

    std::printf("%s on %s @ %.2f MRPS offered\n", opt.workload.c_str(),
                opt.system.c_str(), opt.mrps);
    std::printf("  achieved     %.2f MRPS\n", res.achievedMrps);
    std::printf("  latency      %.2f us mean, %.2f us p50, "
                "%.2f us p99\n",
                res.latencyUs.mean(), res.latencyUs.p50(),
                res.latencyUs.p99());
    std::printf("  service      %.2f us mean per invocation\n",
                res.serviceUs.mean());
    std::printf("  invocations  %llu (%.2f per request)\n",
                static_cast<unsigned long long>(res.invocations),
                static_cast<double>(res.invocations) /
                    static_cast<double>(
                        std::max<std::uint64_t>(1,
                                                res.completedRequests)));
    std::printf("  outcomes     %llu completed, %llu failed, "
                "%llu timed out, %llu shed (%llu retries)\n",
                static_cast<unsigned long long>(res.completedRequests),
                static_cast<unsigned long long>(res.failedRequests),
                static_cast<unsigned long long>(res.timedOutRequests),
                static_cast<unsigned long long>(res.shedRequests),
                static_cast<unsigned long long>(res.retries));
    if (res.faultsInjected || res.abortedInvocations)
        std::printf("  faults       %llu injected, %llu invocations "
                    "aborted and reclaimed\n",
                    static_cast<unsigned long long>(res.faultsInjected),
                    static_cast<unsigned long long>(
                        res.abortedInvocations));
    std::printf("  utilization  %.0f%% of %u executors\n",
                100.0 * res.executorUtilization, worker.numExecutors());
    double ghz = worker.config().machine.freqGhz;
    std::printf("  overheads    isolation %.0f ns/inv, dispatch %.0f "
                "ns/req, pipes %.0f ns/inv\n",
                sim::cyclesToNs(res.totals.isolation, ghz) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, res.invocations)),
                res.dispatchNs.mean(),
                sim::cyclesToNs(res.totals.pipe, ghz) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, res.invocations)));
    return rc;
}

int
runCluster(const Options &opt, par::ThreadPool *pool)
{
    if (!opt.traceOut.empty() || !opt.profOut.empty() ||
        !opt.pmuOut.empty())
        sim::fatal("--cluster does not support --trace-out, "
                   "--prof-out or --pmu-out");
    if (opt.check.any())
        sim::fatal("--cluster does not support --check");

    workloads::Workload w = workloads::makeByName(opt.workload);
    cluster::ClusterConfig cfg;
    cfg.worker = makeWorkerConfig(opt);
    // --shed-cap is the *fleet-level* admission cap here; the
    // calibration runs measure the server itself unshedded.
    cfg.worker.shedCap = 0;
    cfg.serverQueueCap = static_cast<std::uint32_t>(opt.shedCap);
    cfg.calibration.requests = opt.requests;
    cfg.numServers = opt.cluster;
    cfg.lb = cluster::parseLbPolicy(opt.lb);
    cfg.traffic = cluster::TrafficConfig::parse(opt.traffic);
    cfg.traffic.mrps = opt.mrps;
    cfg.traffic.durationUs = opt.durationMs * 1000.0;
    cfg.sloUs = opt.sloUs;
    cfg.seed = opt.seed;
    if (opt.autoscale) {
        cfg.autoscale.enabled = true;
        cfg.autoscale.minServers = opt.autoscaleLo;
        cfg.autoscale.maxServers = opt.autoscaleHi;
    }

    cluster::ServerModel model = cluster::calibrateServer(
        w, cfg.worker, cfg.calibration, pool);
    cluster::ClusterResult res = cluster::ClusterSim(cfg, model).run();

    if (!opt.jsonOut.empty()) {
        std::ofstream out(opt.jsonOut);
        if (!out)
            sim::fatal("cannot open '%s'", opt.jsonOut.c_str());
        prof::writeFlatJson(out, cluster::summaryJson(res));
    }

    if (opt.csv) {
        std::printf("workload,system,servers,lb,traffic,offered_mrps,"
                    "achieved_mrps,goodput_mrps,mean_us,p50_us,p99_us,"
                    "slo_us,cost_server_s,completed,shed,cold_starts,"
                    "slo_burn,final_servers\n");
        std::printf(
            "%s,%s,%u,%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,"
            "%.6f,%llu,%llu,%llu,%.6f,%u\n",
            opt.workload.c_str(), opt.system.c_str(), opt.cluster,
            opt.lb.c_str(), opt.traffic.c_str(), res.offeredMrps,
            res.achievedMrps, res.goodputMrps, res.meanUs, res.p50Us,
            res.p99Us, res.sloUs, res.costServerSeconds,
            static_cast<unsigned long long>(res.completed),
            static_cast<unsigned long long>(res.shed),
            static_cast<unsigned long long>(res.coldStarts),
            res.sloBurn, res.finalActiveServers);
        return 0;
    }

    std::printf("%s on %s, fleet of %u (lb=%s, traffic=%s) @ %.2f "
                "MRPS offered\n",
                opt.workload.c_str(), opt.system.c_str(), opt.cluster,
                opt.lb.c_str(), opt.traffic.c_str(), opt.mrps);
    std::printf("  server       %.3f MRPS capacity, %.1f us mean "
                "latency, concurrency %u\n",
                model.capacityMrps, model.meanLatencyUs,
                model.concurrency);
    std::printf("  throughput   %.2f MRPS achieved, %.2f MRPS goodput "
                "(SLO %.1f us)\n",
                res.achievedMrps, res.goodputMrps, res.sloUs);
    std::printf("  latency      %.2f us mean, %.2f us p50, "
                "%.2f us p99\n",
                res.meanUs, res.p50Us, res.p99Us);
    std::printf("  outcomes     %llu completed, %llu shed, "
                "%llu cold starts\n",
                static_cast<unsigned long long>(res.completed),
                static_cast<unsigned long long>(res.shed),
                static_cast<unsigned long long>(res.coldStarts));
    std::printf("  cost         %.6f server-seconds (%u servers "
                "final)\n",
                res.costServerSeconds, res.finalActiveServers);
    for (const cluster::TenantStats &tenant : res.tenants)
        std::printf("  tenant       %-12s %llu completed, %llu shed, "
                    "p99 %.2f us, SLO %.1f us (%.1f%% attained)\n",
                    tenant.name.c_str(),
                    static_cast<unsigned long long>(tenant.completed),
                    static_cast<unsigned long long>(tenant.shed),
                    tenant.p99Us, tenant.sloUs,
                    100.0 * tenant.sloAttainment);
    if (opt.autoscale) {
        std::printf("  autoscale   ");
        for (const cluster::ScaleEvent &event : res.scaleEvents)
            std::printf(" %u@%.0fus", event.activeServers, event.atUs);
        std::printf("\n");
    }
    return 0;
}

int
runSweep(const Options &opt, par::ThreadPool *pool)
{
    if (!opt.jsonOut.empty())
        sim::fatal("--sweep does not support --json (a single run, "
                   "--cluster and --seed-sweep write it)");
    workloads::Workload w = workloads::makeByName(opt.workload);
    workloads::SweepConfig cfg;
    cfg.worker = makeWorkerConfig(opt);
    cfg.requestsPerPoint = opt.requests;
    cfg.pool = pool;
    double slo_us = workloads::measureSloUs(w, cfg);
    auto loads =
        workloads::loadSeries(opt.sweepLo, opt.sweepHi, opt.sweepN);
    workloads::SweepResult res = workloads::sweepLoad(
        w, parseSystem(opt.system), loads, slo_us, cfg);

    if (opt.csv) {
        std::printf("offered_mrps,achieved_mrps,p99_us,meets_slo\n");
        for (const auto &point : res.points)
            std::printf("%.4f,%.4f,%.4f,%d\n", point.offeredMrps,
                        point.achievedMrps, point.p99Us,
                        point.meetsSlo ? 1 : 0);
        return 0;
    }
    std::printf("%s on %s, SLO = %.1f us\n", opt.workload.c_str(),
                opt.system.c_str(), slo_us);
    for (const auto &point : res.points)
        std::printf("  %7.2f MRPS -> %7.2f achieved, p99 %8.1f us %s\n",
                    point.offeredMrps, point.achievedMrps, point.p99Us,
                    point.meetsSlo ? "" : " (over SLO)");
    std::printf("throughput under SLO: %.2f MRPS\n",
                res.throughputUnderSlo);
    return 0;
}

int
runSeedSweep(const Options &opt, par::ThreadPool *pool)
{
    // Seed-sweep runs are plain measurement runs: per-run observers
    // would need per-seed output files, so reject them up front.
    if (!opt.traceOut.empty() || !opt.profOut.empty() ||
        !opt.pmuOut.empty())
        sim::fatal("--seed-sweep does not support --trace-out, "
                   "--prof-out or --pmu-out");
    if (opt.check.any())
        sim::fatal("--seed-sweep does not support --check");

    workloads::Workload w = workloads::makeByName(opt.workload);
    workloads::SeedSweepConfig cfg;
    cfg.worker = makeWorkerConfig(opt);
    cfg.seedLo = opt.seedLo;
    cfg.seedHi = opt.seedHi;
    cfg.mrps = opt.mrps;
    cfg.requests = opt.requests;
    cfg.pool = pool;
    std::vector<RunResult> results = workloads::runSeedSweep(w, cfg);

    if (!opt.jsonOut.empty()) {
        std::ofstream out(opt.jsonOut);
        if (!out)
            sim::fatal("cannot open '%s'", opt.jsonOut.c_str());
        prof::writeFlatJson(out,
                            workloads::seedSweepJson(cfg, results));
        std::fprintf(stderr, "wrote %zu per-seed summaries to %s\n",
                     results.size(), opt.jsonOut.c_str());
    }
    if (opt.csv) {
        std::fputs(workloads::seedSweepCsv(opt.workload, opt.system,
                                           cfg, results)
                       .c_str(),
                   stdout);
        return 0;
    }
    std::printf("%s on %s @ %.2f MRPS offered, seeds %llu..%llu\n",
                opt.workload.c_str(), opt.system.c_str(), opt.mrps,
                static_cast<unsigned long long>(opt.seedLo),
                static_cast<unsigned long long>(opt.seedHi));
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &res = results[i];
        std::printf("  seed %llu: %.3f MRPS achieved, %.2f us mean, "
                    "%.2f us p50, %.2f us p99, %llu/%llu completed\n",
                    static_cast<unsigned long long>(opt.seedLo + i),
                    res.achievedMrps, res.latencyUs.mean(),
                    res.latencyUs.p50(), res.latencyUs.p99(),
                    static_cast<unsigned long long>(
                        res.completedRequests),
                    static_cast<unsigned long long>(
                        res.completedRequests + res.failedRequests +
                        res.timedOutRequests + res.shedRequests));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.sweep && opt.seedSweep)
        sim::fatal("--sweep and --seed-sweep are mutually exclusive");
    if (opt.cluster > 0 && (opt.sweep || opt.seedSweep))
        sim::fatal("--cluster is mutually exclusive with --sweep and "
                   "--seed-sweep");
    // Mode/flag compatibility: a flag that only one mode reads is an
    // error in the other, never a silent no-op.
    if (opt.cluster > 0 && !opt.workerOnlyFlags.empty())
        sim::fatal("%s is a worker-only flag and has no effect with "
                   "--cluster (remove it)",
                   opt.workerOnlyFlags.front().c_str());
    if (opt.cluster == 0 && !opt.clusterOnlyFlags.empty())
        sim::fatal("%s is a fleet-only flag and requires --cluster N",
                   opt.clusterOnlyFlags.front().c_str());
    std::unique_ptr<par::ThreadPool> pool;
    if (opt.jobs > 1)
        pool = std::make_unique<par::ThreadPool>(opt.jobs);
    if (opt.cluster > 0)
        return runCluster(opt, pool.get());
    if (opt.seedSweep)
        return runSeedSweep(opt, pool.get());
    return opt.sweep ? runSweep(opt, pool.get()) : runOnce(opt);
}
