/**
 * @file
 * The benchmark runner: runs one named workload as repeated identical
 * same-seed reps on one thread, runs a yardstick slice between every two
 * reps, checks each rep's simulated result, and prints everything it
 * measured as one JSON object on stdout. run.py turns that into the
 * benchmark's metrics.
 *
 *   perfbench_timed --workload NAME --seed N --seconds S --yardstick PATH
 *
 * The traced binary is this runner linked with the generated layer
 * wrappers; it also prints the spans and per-layer call aggregates.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "prof/pmu.hh"
#include "spans.hh"
#include "workloads/workloads.hh"

extern char **environ;

using namespace jord;

namespace {

/** One named workload. Every field is fixed: the work of a rep is the
 * same on every run and every commit, only the seed varies. */
struct Scenario {
    const char *name;
    bool fleet;
    const char *app;
    unsigned cores;
    unsigned sockets;
    unsigned orchestrators;
    /** Worker: offered load and external requests per rep. */
    double mrps;
    std::uint64_t requests;
    /** Fleet: servers, load as a share of fleet capacity, simulated
     * traffic per rep and calibration length. */
    unsigned servers;
    double load;
    double durationUs;
    std::uint64_t calibrationRequests;
};

const Scenario kScenarios[] = {
    // Table 2 machine, Media at ~3/4 of its 1.95 MRPS under SLO.
    {"worker32-media", false, "Media", 32, 1, 4, 1.5, 2400, 0, 0, 0, 0},
    // Fig. 14's largest machine at its 0.03 MRPS per core.
    {"worker256-hipster", false, "Hipster", 256, 2, 32, 0.03 * 256, 4000,
     0, 0, 0, 0},
    // 64 calibrated Hotel servers behind random2 at 0.7 of capacity.
    {"fleet64-hotel", true, "Hotel", 32, 1, 4, 0, 0, 64, 0.7, 1500.0,
     12000},
};

/** Warm-up fraction of WorkerServer::run (its default). */
constexpr double kWorkerWarmup = 0.2;
/** Timed reps a run makes at least, however short --seconds is. */
constexpr unsigned kMinReps = 3;
/** Setup reps of the fleet, whose setup is a full calibration. */
constexpr unsigned kFleetSetupReps = 3;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** FNV-1a over the bit patterns of the values added. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 1099511628211ull;
        }
    }

    void
    add(double d)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof bits);
        add(bits);
    }

    void
    add(const stats::Sampler &s)
    {
        add(s.count());
        if (s.empty())
            return;
        add(s.mean());
        add(s.min());
        add(s.max());
        for (double p : {50.0, 90.0, 99.0, 99.9})
            add(s.percentile(p));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t
digestOf(const runtime::RunResult &r, std::uint64_t events)
{
    Digest d;
    d.add(events);
    d.add(r.offeredMrps);
    d.add(r.achievedMrps);
    for (std::uint64_t v :
         {r.invocations, r.completedRequests, r.failedRequests,
          r.timedOutRequests, r.shedRequests, r.retries,
          r.abortedInvocations, r.faultsInjected})
        d.add(v);
    d.add(r.executorUtilization);
    for (std::uint64_t v : {r.totals.exec, r.totals.isolation,
                            r.totals.dispatch, r.totals.comm,
                            r.totals.pipe, r.totals.queue})
        d.add(v);
    d.add(r.latencyUs);
    d.add(r.serviceUs);
    d.add(r.dispatchNs);
    d.add(r.shootdownNs);
    for (std::uint64_t c : r.perFunctionCount)
        d.add(c);
    return d.value();
}

std::uint64_t
digestOf(const cluster::ClusterResult &r, std::uint64_t events)
{
    Digest d;
    d.add(events);
    for (double v : {r.offeredMrps, r.achievedMrps, r.goodputMrps,
                     r.meanUs, r.p50Us, r.p99Us, r.costServerSeconds,
                     r.sloUs, r.sloBurn})
        d.add(v);
    for (std::uint64_t v : {r.generated, r.completed, r.shed, r.failed,
                            r.coldStarts, r.retries, r.hedges})
        d.add(v);
    for (const cluster::ServerStats &s : r.servers) {
        d.add(s.completed);
        d.add(s.shed);
        d.add(s.coldStarts);
        d.add(s.p99Us);
    }
    return d.value();
}

std::uint64_t
digestOf(const cluster::ServerModel &m)
{
    Digest d;
    for (const auto &[us, q] : m.latencyQuantilesUs) {
        d.add(us);
        d.add(q);
    }
    d.add(m.meanLatencyUs);
    d.add(m.capacityMrps);
    d.add(static_cast<std::uint64_t>(m.concurrency));
    d.add(static_cast<std::uint64_t>(m.numExecutors));
    return d.value();
}

/** What one rep measured and checked. */
struct Rep {
    /** "setup" (fleet calibration), "warm", "run" or "pmu". */
    std::string kind;
    double workloadS = 0;
    double serverS = 0;
    double runS = 0;
    /** Indices of the yardstick slices around the rep. */
    std::size_t yardBefore = 0;
    std::size_t yardAfter = 0;
    std::uint64_t digest = 0;
    /** Requests that had to resolve, and those that did not complete. */
    std::uint64_t attempted = 0;
    std::uint64_t incomplete = 0;
    /** Requests simulated in total (the throughput numerator). */
    std::uint64_t simulated = 0;
    std::uint64_t events = 0;
    /** Every request resolved exactly once. */
    bool resolved = true;
    std::vector<std::pair<const char *, std::uint64_t>> counts;
};

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Host seconds of one yardstick slice's phases. */
struct YardSlice {
    double cacheS = 0;
    double dramS = 0;
    double faultS = 0;
};

/** Run one yardstick slice in its own process. */
YardSlice
yardstickSlice(const std::string &path)
{
    int fds[2];
    if (pipe(fds) != 0)
        sim::fatal("perfbench: pipe: %s", std::strerror(errno));
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::string arg0 = path;
    char *argv[] = {arg0.data(), nullptr};
    pid_t pid = 0;
    int rc = posix_spawn(&pid, path.c_str(), &actions, nullptr, argv,
                         environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        sim::fatal("perfbench: cannot run yardstick %s: %s", path.c_str(),
                   std::strerror(rc));
    }
    std::string out;
    char buf[256];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof buf)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    YardSlice slice;
    unsigned long long checksum = 0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        std::sscanf(out.c_str(), "%lf %lf %lf %llu", &slice.cacheS,
                    &slice.dramS, &slice.faultS, &checksum) != 4 ||
        slice.cacheS <= 0 || slice.dramS <= 0 || slice.faultS <= 0)
        sim::fatal("perfbench: yardstick slice failed: '%s'", out.c_str());
    static unsigned long long expected = checksum;
    if (checksum != expected)
        sim::fatal("perfbench: yardstick checksum %llu != %llu", checksum,
                   expected);
    return slice;
}

/**
 * Pin this process, and so every yardstick slice it spawns, to the
 * highest CPU it may run on: reps and slices then see the same CPU's
 * share of the host, which is what the correction divides out.
 */
void
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
        if (!CPU_ISSET(cpu, &allowed))
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
        return;
    }
}

/** Runs the reps of one scenario and records what they measured. */
class Bench
{
  public:
    Bench(const Scenario &sc, std::uint64_t seed, std::string yardstick)
        : sc_(sc), seed_(seed), yardstick_(std::move(yardstick)),
          traced_(perfbench::kNumWrapped > 0)
    {
    }

    void
    run(double seconds)
    {
        double start = wallNow();
        slice();
        if (sc_.fleet) {
            for (unsigned i = 0; i < kFleetSetupReps; ++i) {
                fleetSetup();
                slice();
            }
            fleetRep("warm");
        } else {
            workerRep("warm");
        }
        slice();
        unsigned timed = 0;
        while (timed < kMinReps || wallNow() - start < seconds) {
            if (sc_.fleet)
                fleetRep("run");
            else
                workerRep("run");
            slice();
            ++timed;
        }
        if (traced_ && !sc_.fleet) {
            workerRep("pmu");
            slice();
        }
    }

    void
    print(std::FILE *out) const
    {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        std::fprintf(out,
                     "{\"workload\": \"%s\", \"fleet\": %s, "
                     "\"seed\": %" PRIu64 ", \"traced\": %s, "
                     "\"peak_rss_kb\": %ld, \"yardstick_s\": [",
                     sc_.name, sc_.fleet ? "true" : "false", seed_,
                     traced_ ? "true" : "false", ru.ru_maxrss);
        for (std::size_t i = 0; i < yard_.size(); ++i)
            std::fprintf(out, "%s[%.9f, %.9f, %.9f]", i ? ", " : "",
                         yard_[i].cacheS, yard_[i].dramS, yard_[i].faultS);
        std::fprintf(out, "], \"reps\": [");
        for (std::size_t i = 0; i < reps_.size(); ++i) {
            const Rep &r = reps_[i];
            std::fprintf(
                out,
                "%s{\"kind\": \"%s\", \"workload_s\": %.9f, \"server_s\": "
                "%.9f, \"run_s\": %.9f, \"yard_before\": %zu, "
                "\"yard_after\": %zu, \"digest\": \"%s\", \"attempted\": "
                "%" PRIu64 ", \"incomplete\": %" PRIu64
                ", \"simulated\": %" PRIu64 ", \"events\": %" PRIu64
                ", \"resolved\": %s, \"counts\": {",
                i ? ", " : "", r.kind.c_str(), r.workloadS, r.serverS,
                r.runS, r.yardBefore, r.yardAfter, hex(r.digest).c_str(),
                r.attempted, r.incomplete, r.simulated, r.events,
                r.resolved ? "true" : "false");
            for (std::size_t c = 0; c < r.counts.size(); ++c)
                std::fprintf(out, "%s\"%s\": %" PRIu64, c ? ", " : "",
                             r.counts[c].first, r.counts[c].second);
            std::fprintf(out, "}}");
        }
        std::fprintf(out, "]");
        if (traced_) {
            std::fprintf(out, ", \"trace\": ");
            perfbench::spans::writeJson(out);
        }
        std::fprintf(out, "}\n");
    }

  private:
    const Scenario &sc_;
    std::uint64_t seed_;
    std::string yardstick_;
    bool traced_;
    std::vector<YardSlice> yard_;
    std::vector<Rep> reps_;
    /** The fleet's calibrated server model, from the first setup rep. */
    std::optional<cluster::ServerModel> model_;
    cluster::ClusterConfig fleetCfg_;

    void
    slice()
    {
        yard_.push_back(yardstickSlice(yardstick_));
    }

    /** Begin a rep between the last slice and the next one. */
    Rep &
    beginRep(const char *kind)
    {
        reps_.push_back(Rep{});
        Rep &r = reps_.back();
        r.kind = kind;
        r.yardBefore = yard_.size() - 1;
        r.yardAfter = yard_.size();
        return r;
    }

    runtime::WorkerConfig
    workerConfig() const
    {
        runtime::WorkerConfig cfg;
        // The Table 2 machine is the default; others are its scalings.
        if (sc_.cores != 32 || sc_.sockets != 1)
            cfg.machine = sim::MachineConfig::scaled(sc_.cores, sc_.sockets);
        cfg.numOrchestrators = sc_.orchestrators;
        cfg.seed = seed_;
        return cfg;
    }

    /** A worker rep; a "pmu" rep runs with the simulated PMU attached. */
    void
    workerRep(const char *kind)
    {
        bool with_pmu = std::strcmp(kind, "pmu") == 0;
        Rep &r = beginRep(kind);
        int rep_span = perfbench::spans::open(
            std::string("rep.") + kind, -1, static_cast<int>(reps_.size()));
        double t0 = wallNow();
        int s = perfbench::spans::open("build", rep_span, -1);
        workloads::Workload wl = workloads::makeByName(sc_.app);
        perfbench::spans::close(s);
        double t1 = wallNow();
        s = perfbench::spans::open("server", rep_span, -1);
        auto server = std::make_unique<runtime::WorkerServer>(
            workerConfig(), wl.registry);
        perfbench::spans::close(s);
        double t2 = wallNow();

        std::unique_ptr<prof::Pmu> pmu;
        if (with_pmu) {
            pmu = std::make_unique<prof::Pmu>(sc_.cores);
            server->setPmu(pmu.get());
        }
        const mem::CoherenceStats mem0 = server->coherence().stats();
        std::uint64_t priv0 = privOps(*server);
        std::uint64_t shoot0 = server->uat().vtd().stats().writes;

        double t3 = wallNow();
        s = perfbench::spans::open(kind, rep_span, -1);
        runtime::RunResult res = server->run(sc_.mrps, sc_.requests, wl.mix);
        perfbench::spans::close(s);
        double t4 = wallNow();
        perfbench::spans::close(rep_span);

        r.workloadS = t1 - t0;
        r.serverS = t2 - t1;
        r.runS = t4 - t3;
        r.events = server->eventQueue().numDispatched();
        r.digest = digestOf(res, r.events);
        r.simulated = sc_.requests;
        r.attempted =
            sc_.requests - static_cast<std::uint64_t>(
                               static_cast<double>(sc_.requests) *
                               kWorkerWarmup);
        std::uint64_t resolved = res.completedRequests +
                                 res.failedRequests +
                                 res.timedOutRequests + res.shedRequests;
        r.resolved = resolved == r.attempted &&
                     res.latencyUs.count() == res.completedRequests;
        r.incomplete = r.attempted - std::min(r.attempted,
                                              res.completedRequests);
        const mem::CoherenceStats &mem1 = server->coherence().stats();
        r.counts = {
            {"runtime.invocations", res.invocations},
            {"mem.accesses", (mem1.reads + mem1.writes + mem1.atomics) -
                                 (mem0.reads + mem0.writes + mem0.atomics)},
            {"mem.messages", mem1.messages - mem0.messages},
            {"privlib.ops", privOps(*server) - priv0},
            {"uat.shootdowns", server->uat().vtd().stats().writes - shoot0},
        };
        if (pmu) {
            using prof::PmuCounter;
            r.counts.push_back({"pmu.vlb_d_misses",
                                pmu->totalCounter(PmuCounter::VlbDMisses)});
            r.counts.push_back({"pmu.vtw_walks",
                                pmu->totalCounter(PmuCounter::VtwWalks)});
            r.counts.push_back(
                {"pmu.vtd_shootdowns",
                 pmu->totalCounter(PmuCounter::VtdShootdowns)});
            r.counts.push_back({"pmu.noc_hops",
                                pmu->totalCounter(PmuCounter::NocHops)});
            r.counts.push_back(
                {"pmu.dispatch_scans",
                 pmu->totalCounter(PmuCounter::DispatchScans)});
        }
    }

    static std::uint64_t
    privOps(runtime::WorkerServer &server)
    {
        std::uint64_t n = 0;
        for (unsigned op = 0;
             op < static_cast<unsigned>(privlib::PrivOp::NumOps); ++op)
            n += server.privlib()
                     .stats(static_cast<privlib::PrivOp>(op))
                     .count;
        return n;
    }

    cluster::ClusterConfig
    fleetConfig() const
    {
        cluster::ClusterConfig cfg;
        cfg.worker = workerConfig();
        cfg.calibration.requests = sc_.calibrationRequests;
        cfg.numServers = sc_.servers;
        cfg.lb = cluster::LbPolicy::Random2;
        cfg.traffic.shape = cluster::TrafficShape::Constant;
        cfg.traffic.durationUs = sc_.durationUs;
        cfg.serverQueueCap = 256;
        cfg.seed = seed_;
        return cfg;
    }

    void
    fleetSetup()
    {
        Rep &r = beginRep("setup");
        int rep_span = perfbench::spans::open(
            "rep.setup", -1, static_cast<int>(reps_.size()));
        double t0 = wallNow();
        int s = perfbench::spans::open("build", rep_span, -1);
        workloads::Workload wl = workloads::makeByName(sc_.app);
        perfbench::spans::close(s);
        double t1 = wallNow();
        s = perfbench::spans::open("calibrate", rep_span, -1);
        cluster::ClusterConfig cfg = fleetConfig();
        cluster::ServerModel model = cluster::calibrateServer(
            wl, cfg.worker, cfg.calibration, nullptr);
        cfg.traffic.mrps = sc_.load * sc_.servers * model.capacityMrps;
        cfg.coldStart.prewarm = model.concurrency;
        perfbench::spans::close(s);
        s = perfbench::spans::open("server", rep_span, -1);
        cluster::ClusterSim fleet(cfg, model);
        perfbench::spans::close(s);
        double t2 = wallNow();
        perfbench::spans::close(rep_span);

        r.workloadS = t1 - t0;
        r.serverS = t2 - t1;
        r.digest = digestOf(model);
        if (!model_) {
            model_ = model;
            fleetCfg_ = cfg;
        }
    }

    void
    fleetRep(const char *kind)
    {
        Rep &r = beginRep(kind);
        int rep_span = perfbench::spans::open(
            std::string("rep.") + kind, -1, static_cast<int>(reps_.size()));
        cluster::ClusterSim fleet(fleetCfg_, *model_);
        double t0 = wallNow();
        int s = perfbench::spans::open(kind, rep_span, -1);
        cluster::ClusterResult res = fleet.run();
        perfbench::spans::close(s);
        double t1 = wallNow();
        perfbench::spans::close(rep_span);

        r.runS = t1 - t0;
        r.events = fleet.eventQueue().numDispatched();
        r.digest = digestOf(res, r.events);
        r.simulated = res.generated;
        r.attempted = res.generated;
        r.resolved = res.completed + res.shed + res.failed == res.generated;
        r.incomplete = res.generated - std::min(res.generated,
                                                res.completed);
        r.counts = {
            {"cluster.requests", res.generated},
            {"cluster.cold_starts", res.coldStarts},
        };
    }
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_timed --workload NAME --seed N "
                 "--seconds S --yardstick PATH\n  workloads:");
    for (const Scenario &sc : kScenarios)
        std::fprintf(stderr, " %s", sc.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, yardstick;
    std::uint64_t seed = 1;
    double seconds = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = argv[i + 1];
        } else if (flag == "--yardstick") {
            yardstick = argv[i + 1];
        } else if (flag == "--seed") {
            seed = std::strtoull(argv[i + 1], &end, 10);
            if (*end != '\0')
                usage();
        } else if (flag == "--seconds") {
            seconds = std::strtod(argv[i + 1], &end);
            if (*end != '\0' || !(seconds >= 0))
                usage();
        } else {
            usage();
        }
    }
    if (argc % 2 == 0 || seconds < 0 || yardstick.empty())
        usage();
    const Scenario *sc = nullptr;
    for (const Scenario &s : kScenarios)
        if (workload == s.name)
            sc = &s;
    if (!sc)
        usage();

    pinToOneCpu();
    perfbench::spans::calibrateOverhead();
    Bench bench(*sc, seed, yardstick);
    bench.run(seconds);
    bench.print(stdout);
    return 0;
}
