/**
 * @file
 * Availability under injected faults: goodput and tail latency as the
 * injected crash rate rises, with the failure-handling runtime enabled
 * (per-request deadlines, bounded retries with exponential backoff, and
 * admission-control shedding).
 *
 * Two sections:
 *   1. Crash-rate sweep on Jord (Hotel): goodput, good-request P99, and
 *      the terminal-outcome mix for each injected per-invocation crash
 *      probability. Same-seed runs are deterministic, so the table is
 *      byte-stable across invocations.
 *   2. NightCore pipe-drop sweep: the same availability question for
 *      the process-based baseline, whose failure mode is a dropped
 *      gateway/engine pipe message rather than an in-PD crash.
 *
 * Flags: --quick shrinks the sweep for CI smoke runs; --jobs N runs
 * the sweep points host-parallel with byte-identical output; --json
 * PATH writes the machine-comparable summary (goodput, good fraction,
 * good P99 per sweep point) that CI byte-compares with the committed
 * BENCH_fault_availability.json.
 */

#include <cstdlib>

#include "bench/common.hh"
#include "fault/fault.hh"
#include "par/par.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

using namespace jord;
using runtime::RunResult;
using runtime::SystemKind;
using runtime::WorkerConfig;
using runtime::WorkerServer;

namespace {

struct PointConfig {
    double rate = 0;       ///< crash (Jord) or pipe-drop (NightCore)
    double mrps = 1.5;
    std::uint64_t requests = 12000;
};

RunResult
runPoint(const workloads::Workload &w, SystemKind system,
         const PointConfig &pc)
{
    WorkerConfig wc;
    wc.system = system;
    wc.timeoutUs = 300.0;
    wc.maxRetries = 2;
    wc.shedCap = 512;
    wc.faultPlan.seed = 42;
    if (system == SystemKind::NightCore)
        wc.faultPlan.defaults.pipeDrop = pc.rate;
    else
        wc.faultPlan.defaults.crash = pc.rate;
    WorkerServer worker(wc, w.registry);
    return worker.run(pc.mrps, pc.requests, w.mix, 0.2);
}

/** Stable metric-key fragment for an injection rate: "0.010". */
std::string
rateKey(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", rate);
    return buf;
}

void
addRow(stats::Table &table, double rate, const RunResult &res)
{
    std::uint64_t measured = res.completedRequests + res.failedRequests +
                             res.timedOutRequests + res.shedRequests;
    double good_frac =
        measured ? static_cast<double>(res.completedRequests) / measured
                 : 0;
    table.addRow({stats::Table::cell(rate, "%.3f"),
                  stats::Table::cell(res.achievedMrps, "%.3f"),
                  stats::Table::cell(100.0 * good_frac, "%.2f"),
                  stats::Table::cell(res.latencyUs.p99(), "%.2f"),
                  std::to_string(res.completedRequests),
                  std::to_string(res.failedRequests),
                  std::to_string(res.timedOutRequests),
                  std::to_string(res.shedRequests),
                  std::to_string(res.retries),
                  std::to_string(res.faultsInjected)});
}

/** Record one sweep point's gate-worthy metrics under @p prefix. */
void
addJson(std::map<std::string, double> &json, const std::string &prefix,
        const RunResult &res)
{
    std::uint64_t measured = res.completedRequests + res.failedRequests +
                             res.timedOutRequests + res.shedRequests;
    double good_frac =
        measured ? static_cast<double>(res.completedRequests) / measured
                 : 0;
    json[prefix + ".goodput_mrps"] = res.achievedMrps;
    json[prefix + ".good_frac"] = good_frac;
    json[prefix + ".good_p99_us"] = res.latencyUs.p99();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args =
        bench::BenchArgs::parse(argc, argv, "fault_availability");
    bool quick = args.quick;

    PointConfig pc;
    pc.requests = quick ? 3000 : 12000;

    std::vector<double> crash_rates =
        quick ? std::vector<double>{0, 0.01, 0.05}
              : std::vector<double>{0, 0.005, 0.01, 0.02, 0.05, 0.10};
    std::vector<double> drop_rates =
        quick ? std::vector<double>{0, 0.02}
              : std::vector<double>{0, 0.01, 0.02, 0.05};

    workloads::Workload hotel = workloads::makeHotel();

    // Compute phase: both sections' points as one flat job list (the
    // Jord crash sweep first, then the NightCore drop sweep), each
    // returned at its index; the tables render afterwards so --jobs N
    // output is byte-identical to --jobs 1.
    std::unique_ptr<par::ThreadPool> pool = args.makePool();
    std::vector<RunResult> results = par::orderedMap<RunResult>(
        pool.get(), crash_rates.size() + drop_rates.size(),
        [&](std::size_t i) {
            PointConfig point = pc;
            if (i < crash_rates.size()) {
                point.rate = crash_rates[i];
                return runPoint(hotel, SystemKind::Jord, point);
            }
            point.rate = drop_rates[i - crash_rates.size()];
            return runPoint(hotel, SystemKind::NightCore, point);
        });

    const std::vector<std::string> cols = {
        "Rate",    "Goodput (MRPS)", "Good %", "Good P99 (us)",
        "Done",    "Failed",         "T/O",    "Shed",
        "Retries", "Injected"};

    std::map<std::string, double> json;

    bench::banner("Availability: Jord (Hotel), injected crash rate");
    std::printf("timeout=300us, retries=2, backoff=20us, shed cap=512\n");
    stats::Table jord_table(cols);
    for (std::size_t i = 0; i < crash_rates.size(); ++i) {
        addRow(jord_table, crash_rates[i], results[i]);
        addJson(json,
                "fault_availability.jord.crash" + rateKey(crash_rates[i]),
                results[i]);
    }
    std::printf("%s\n", jord_table.render().c_str());
    std::printf(
        "Expected shape: goodput degrades gracefully (retries absorb\n"
        "most single-invocation crashes at low rates); no deadlock or\n"
        "leak at any rate -- the run aborts if the quiescence checker\n"
        "finds a leaked PD or ArgBuf.\n");

    bench::banner("Availability: NightCore (Hotel), pipe-drop rate");
    stats::Table ntc_table(cols);
    for (std::size_t i = 0; i < drop_rates.size(); ++i) {
        const RunResult &res = results[crash_rates.size() + i];
        addRow(ntc_table, drop_rates[i], res);
        addJson(json,
                "fault_availability.nightcore.drop" +
                    rateKey(drop_rates[i]),
                res);
    }
    std::printf("%s\n", ntc_table.render().c_str());
    std::printf(
        "NightCore drops are detected at the gateway (send + recv\n"
        "latency is still paid), so each drop costs a full pipe round\n"
        "trip before the retry path engages.\n");

    bench::writeBenchJson(args.jsonPath, json);
    return 0;
}
