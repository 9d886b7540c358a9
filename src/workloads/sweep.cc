#include "workloads/sweep.hh"

#include <cmath>
#include <cstdio>

#include "par/par.hh"
#include "sim/logging.hh"

namespace jord::workloads {

using runtime::RunResult;
using runtime::SystemKind;
using runtime::WorkerConfig;
using runtime::WorkerServer;

namespace {

/** Load used to measure the minimal-load service time (MRPS). */
constexpr double kMinimalLoadMrps = 0.01;

} // namespace

double
measureSloUs(const Workload &workload, const SweepConfig &cfg)
{
    WorkerConfig wc = cfg.worker;
    wc.system = SystemKind::JordNI;
    WorkerServer worker(wc, workload.registry);
    std::uint64_t requests =
        std::max<std::uint64_t>(2000, cfg.requestsPerPoint / 10);
    RunResult res = worker.run(kMinimalLoadMrps, requests, workload.mix);
    if (res.latencyUs.empty())
        sim::fatal("SLO measurement produced no samples");
    return kSloMultiplier * res.latencyUs.mean();
}

void
finalizeSweep(SweepResult &out)
{
    out.throughputUnderSlo = 0;
    // Knee detection is monotone: once a load misses the SLO, a
    // higher load passing again is P99 sampling noise, not recovery.
    bool failed_before = false;
    for (const SweepPoint &point : out.points) {
        if (point.meetsSlo && !failed_before)
            out.throughputUnderSlo =
                std::max(out.throughputUnderSlo, point.achievedMrps);
        if (!point.meetsSlo)
            failed_before = true;
    }
}

SweepResult
sweepLoad(const Workload &workload, SystemKind system,
          const std::vector<double> &loads_mrps, double slo_us,
          const SweepConfig &cfg)
{
    SweepResult out;
    out.system = system;
    out.sloUs = slo_us;

    // Every point is an independent run committing to its own slot;
    // the order-dependent knee detection runs afterwards over the
    // in-order series, so any completion order yields the same result.
    out.points = par::orderedMap<SweepPoint>(
        cfg.pool, loads_mrps.size(), [&](std::size_t i) {
            double load = loads_mrps[i];
            WorkerConfig wc = cfg.worker;
            wc.system = system;
            WorkerServer worker(wc, workload.registry);
            RunResult res =
                worker.run(load, cfg.requestsPerPoint, workload.mix);
            SweepPoint point;
            point.offeredMrps = load;
            point.achievedMrps = res.achievedMrps;
            point.p99Us = res.latencyUs.p99();
            point.meanUs = res.latencyUs.mean();
            point.meetsSlo = point.p99Us <= slo_us &&
                             res.completedRequests > 0;
            return point;
        });
    finalizeSweep(out);
    return out;
}

std::vector<double>
loadSeries(double lo, double hi, unsigned n)
{
    std::vector<double> loads;
    if (n == 0)
        return loads;
    if (n == 1) {
        loads.push_back(hi);
        return loads;
    }
    double ratio = std::pow(hi / lo, 1.0 / (n - 1));
    double load = lo;
    for (unsigned i = 0; i < n; ++i) {
        loads.push_back(load);
        load *= ratio;
    }
    loads.back() = hi;
    return loads;
}

// --- Seed sweeps ---------------------------------------------------------

std::vector<RunResult>
runSeedSweep(const Workload &workload, const SeedSweepConfig &cfg)
{
    if (cfg.seedHi < cfg.seedLo)
        sim::fatal("seed sweep range %llu..%llu is empty",
                   static_cast<unsigned long long>(cfg.seedLo),
                   static_cast<unsigned long long>(cfg.seedHi));
    std::size_t n =
        static_cast<std::size_t>(cfg.seedHi - cfg.seedLo + 1);
    return par::orderedMap<RunResult>(
        cfg.pool, n, [&](std::size_t i) {
            WorkerConfig wc = cfg.worker;
            wc.seed = cfg.seedLo + i;
            WorkerServer worker(wc, workload.registry);
            return worker.run(cfg.mrps, cfg.requests, workload.mix);
        });
}

std::string
seedSweepCsv(const std::string &workload_name,
             const std::string &system_name, const SeedSweepConfig &cfg,
             const std::vector<RunResult> &runs)
{
    std::string out =
        "seed,workload,system,offered_mrps,achieved_mrps,mean_us,"
        "p50_us,p99_us,invocations,completed,failed,timedout,shed,"
        "retries\n";
    char line[512];
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult &res = runs[i];
        std::snprintf(
            line, sizeof(line),
            "%llu,%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%llu,%llu,%llu,"
            "%llu,%llu,%llu\n",
            static_cast<unsigned long long>(cfg.seedLo + i),
            workload_name.c_str(), system_name.c_str(), cfg.mrps,
            res.achievedMrps, res.latencyUs.mean(),
            res.latencyUs.p50(), res.latencyUs.p99(),
            static_cast<unsigned long long>(res.invocations),
            static_cast<unsigned long long>(res.completedRequests),
            static_cast<unsigned long long>(res.failedRequests),
            static_cast<unsigned long long>(res.timedOutRequests),
            static_cast<unsigned long long>(res.shedRequests),
            static_cast<unsigned long long>(res.retries));
        out += line;
    }
    return out;
}

std::map<std::string, double>
seedSweepJson(const SeedSweepConfig &cfg,
              const std::vector<RunResult> &runs)
{
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunResult &res = runs[i];
        std::string prefix =
            "seed." + std::to_string(cfg.seedLo + i) + ".";
        out[prefix + "achieved_mrps"] = res.achievedMrps;
        out[prefix + "mean_us"] = res.latencyUs.mean();
        out[prefix + "p50_us"] = res.latencyUs.p50();
        out[prefix + "p99_us"] = res.latencyUs.p99();
        out[prefix + "completed"] =
            static_cast<double>(res.completedRequests);
        out[prefix + "invocations"] =
            static_cast<double>(res.invocations);
    }
    return out;
}

} // namespace jord::workloads
