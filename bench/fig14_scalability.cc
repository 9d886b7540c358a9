/**
 * @file
 * Figure 14: sensitivity of average function service time, VLB
 * shootdown latency and dispatch latency to the system scale
 * (16/64/128/256 cores and a 2-socket 2x128 configuration, §6.3).
 *
 * The paper's findings: service time and shootdown latency grow
 * sublinearly (ArgBuf traffic is ~15 blocks/request regardless of
 * scale; invalidations are parallelized in hardware so the shootdown
 * tracks the furthest core), while a *single* orchestrator's dispatch
 * scan grows with the executor count and cross-socket latency, reaching
 * ~12 µs on the 2-socket 256-core machine — motivating per-socket
 * orchestrators.
 *
 * Host-parallel: --jobs N runs the scale points (and their dispatch
 * scanners) concurrently — largest machine first so the critical path
 * drains early — with byte-identical output; the CI
 * parallel-determinism job also gates the wall-clock speedup here.
 */

#include <algorithm>
#include <cstdlib>

#include "bench/common.hh"
#include "par/par.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

using namespace jord;
using runtime::RunResult;
using runtime::WorkerConfig;
using runtime::WorkerServer;

namespace {

struct Scale {
    const char *name;
    unsigned cores;
    unsigned sockets;
};

/** What one scale point contributes to the table: its loaded run
 * fills the first two fields, its dispatch scanner the third. */
struct ScaleRow {
    double serviceUs = 0;
    double shootdownNs = 0;
    double dispatchUs = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args =
        bench::BenchArgs::parse(argc, argv, "fig14");
    const std::uint64_t requests = args.quick ? 3000 : 12000;
    std::unique_ptr<par::ThreadPool> pool = args.makePool();

    const Scale scales[] = {
        {"16-core", 16, 1},   {"64-core", 64, 1},
        {"128-core", 128, 1}, {"256-core", 256, 1},
        {"2-socket", 256, 2},
    };
    constexpr std::size_t kNumScales = 5;

    workloads::Workload w = workloads::makeHipster();

    // Two jobs per scale: the loaded run and the single-orchestrator
    // dispatch scanner. Job 2k and 2k+1 belong to scale
    // kNumScales-1-k: largest machines first, since they dominate
    // wall-clock and must not start in the last scheduling round.
    // Printing follows in fixed order, so --jobs N output matches
    // --jobs 1.
    auto scaleOf = [](std::size_t job) { return kNumScales - 1 - job / 2; };
    std::vector<ScaleRow> parts = par::orderedMap<ScaleRow>(
        pool.get(), 2 * kNumScales, [&](std::size_t job) {
            const Scale &scale = scales[scaleOf(job)];
            ScaleRow part;
            if (job % 2 == 0) {
                // Service time and shootdown latency come from a
                // realistically deployed worker (per-socket
                // orchestrators) at a fixed per-core load, so they
                // reflect scale, not utilization.
                WorkerConfig cfg;
                cfg.machine =
                    sim::MachineConfig::scaled(scale.cores, scale.sockets);
                cfg.numOrchestrators = std::max(2u, scale.cores / 8);
                WorkerServer worker(cfg, w.registry);
                double load = 0.03 * scale.cores;
                RunResult res = worker.run(load, requests, w.mix);
                part.serviceUs = res.serviceUs.mean();
                part.shootdownNs = res.shootdownNs.mean();
            } else {
                // The dispatch series is the paper's stress case: a
                // single orchestrator scanning every executor in the
                // system, all of whose queue-length lines changed since
                // its last scan.
                WorkerConfig scan_cfg;
                scan_cfg.machine =
                    sim::MachineConfig::scaled(scale.cores, scale.sockets);
                scan_cfg.numOrchestrators = 1;
                scan_cfg.perSocketOrchestrators = false;
                WorkerServer scanner(scan_cfg, w.registry);
                part.dispatchUs = scanner.measureDispatchScanNs() / 1000.0;
            }
            return part;
        });
    std::vector<ScaleRow> rows(kNumScales);
    for (std::size_t job = 0; job < parts.size(); job += 2) {
        rows[scaleOf(job)] = parts[job];
        rows[scaleOf(job)].dispatchUs = parts[job + 1].dispatchUs;
    }

    bench::banner("Figure 14: scalability with system size (Hipster)");

    stats::Table table({"Scale", "Avg service (us)",
                        "VLB shootdown (ns)", "Dispatch (us)"});
    std::map<std::string, double> json;
    for (std::size_t n = 0; n < kNumScales; ++n) {
        const ScaleRow &row = rows[n];
        table.addRow({scales[n].name,
                      stats::Table::cell(row.serviceUs, "%.2f"),
                      stats::Table::cell(row.shootdownNs, "%.1f"),
                      stats::Table::cell(row.dispatchUs, "%.2f")});
        std::string prefix = std::string("fig14.") + scales[n].name;
        json[prefix + ".service_us"] = row.serviceUs;
        json[prefix + ".shootdown_ns"] = row.shootdownNs;
        json[prefix + ".dispatch_us"] = row.dispatchUs;
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nExpected shape: service time and shootdown latency\n"
                "grow sublinearly with core count; the single\n"
                "orchestrator's dispatch latency grows steeply and\n"
                "jumps on the 2-socket machine (paper: ~12 us),\n"
                "motivating per-socket orchestrators (§6.3).\n");
    bench::writeBenchJson(args.jsonPath, json);
    return 0;
}
