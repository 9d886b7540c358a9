/**
 * @file
 * Ablations of the runtime design choices DESIGN.md calls out: the
 * number of orchestrators, the JBSQ bound, and the dispatch-scan
 * memory-level parallelism. Each knob is swept on Hipster at a fixed
 * offered load and at the throughput knee.
 *
 * Host-parallel: --jobs N runs the fourteen knob settings (and the
 * load points inside each sweep) concurrently as one fan-out; each job
 * owns its workers and returns its row, so the tables are
 * byte-identical to --jobs 1.
 */

#include <cstdlib>
#include <iterator>

#include "bench/common.hh"
#include "par/par.hh"
#include "stats/table.hh"
#include "workloads/sweep.hh"

using namespace jord;
using runtime::RunResult;
using runtime::SystemKind;
using runtime::WorkerConfig;
using runtime::WorkerServer;

namespace {

/** Throughput under SLO for one worker configuration. */
double
tputUnderSlo(const workloads::Workload &w, const WorkerConfig &wc,
             double slo_us, std::uint64_t requests,
             par::ThreadPool *pool)
{
    workloads::SweepConfig cfg;
    cfg.worker = wc;
    cfg.requestsPerPoint = requests;
    cfg.pool = pool;
    auto loads = workloads::loadSeries(1.0, 14.0, 8);
    return workloads::sweepLoad(w, SystemKind::Jord, loads, slo_us,
                                cfg)
        .throughputUnderSlo;
}

/** One knob setting's results; each section fills what it prints. */
struct Row {
    double tput = 0;
    std::uint64_t executors = 0; // orchestrator count
    double meanUs = 0;           // orchestrator count
    double p99Us = 0;            // JBSQ bound
    double scanNs = 0;           // dispatch-scan MLP
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args =
        bench::BenchArgs::parse(argc, argv, "ablation_runtime");
    const std::uint64_t requests = args.quick ? 1500 : 4000;
    std::unique_ptr<par::ThreadPool> pool = args.makePool();

    workloads::Workload w = workloads::makeHipster();
    workloads::SweepConfig base;
    base.requestsPerPoint = requests;
    base.pool = pool.get();
    double slo_us = workloads::measureSloUs(w, base);

    const unsigned orchs[] = {1, 2, 4, 8};
    const unsigned bounds[] = {1, 2, 3, 6, 12};
    const unsigned mlps[] = {1, 2, 4, 8, 16};

    // Compute phase: every knob setting is an independent job in one
    // fan-out (each nests its sweep's load points on the same pool).
    // Jobs [0, kJbsq) vary the orchestrators, [kJbsq, kMlp) the JBSQ
    // bound and [kMlp, kSettings) the scan MLP.
    const std::size_t kJbsq = std::size(orchs);
    const std::size_t kMlp = kJbsq + std::size(bounds);
    const std::size_t kSettings = kMlp + std::size(mlps);
    std::vector<Row> rows = par::orderedMap<Row>(
        pool.get(), kSettings, [&](std::size_t i) {
            WorkerConfig wc;
            Row row;
            if (i < kJbsq) {
                wc.numOrchestrators = orchs[i];
                row.tput =
                    tputUnderSlo(w, wc, slo_us, requests, pool.get());
                WorkerServer worker(wc, w.registry);
                RunResult res = worker.run(4.0, requests, w.mix);
                row.executors = worker.numExecutors();
                row.meanUs = res.latencyUs.mean();
            } else if (i < kMlp) {
                wc.jbsqBound = bounds[i - kJbsq];
                row.tput =
                    tputUnderSlo(w, wc, slo_us, requests, pool.get());
                WorkerServer worker(wc, w.registry);
                RunResult res = worker.run(4.0, requests, w.mix);
                row.p99Us = res.latencyUs.p99();
            } else {
                wc.dispatchMlp = mlps[i - kMlp];
                WorkerServer worker(wc, w.registry);
                row.scanNs = worker.measureDispatchScanNs();
                row.tput =
                    tputUnderSlo(w, wc, slo_us, requests, pool.get());
            }
            return row;
        });

    bench::banner("Ablation 1: orchestrator count (Hipster)");
    {
        stats::Table table({"Orchestrators", "Executors",
                            "Tput under SLO (MRPS)",
                            "Mean latency @4MRPS (us)"});
        for (std::size_t i = 0; i < std::size(orchs); ++i) {
            const Row &row = rows[i];
            table.addRow({stats::Table::cell(std::uint64_t(orchs[i])),
                          stats::Table::cell(row.executors),
                          stats::Table::cell(row.tput, "%.2f"),
                          stats::Table::cell(row.meanUs, "%.2f")});
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("Too few orchestrators bottleneck dispatch of\n"
                    "nested invocations; too many waste executor "
                    "cores.\n");
    }

    bench::banner("Ablation 2: JBSQ bound");
    {
        stats::Table table({"JBSQ bound", "Tput under SLO (MRPS)",
                            "P99 @4MRPS (us)"});
        for (std::size_t i = 0; i < std::size(bounds); ++i) {
            const Row &row = rows[kJbsq + i];
            table.addRow({stats::Table::cell(std::uint64_t(bounds[i])),
                          stats::Table::cell(row.tput, "%.2f"),
                          stats::Table::cell(row.p99Us, "%.2f")});
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("A small bound keeps tail latency low (single-\n"
                    "queue-like balance); very small bounds throttle\n"
                    "the orchestrator at high load.\n");
    }

    bench::banner("Ablation 3: dispatch-scan MLP");
    {
        stats::Table table({"Scan MLP", "Dispatch latency (ns)",
                            "Tput under SLO (MRPS)"});
        for (std::size_t i = 0; i < std::size(mlps); ++i) {
            const Row &row = rows[kMlp + i];
            table.addRow({stats::Table::cell(std::uint64_t(mlps[i])),
                          stats::Table::cell(row.scanNs, "%.0f"),
                          stats::Table::cell(row.tput, "%.2f")});
        }
        std::printf("%s\n", table.render().c_str());
        std::printf("Queue-length loads overlap in the LSQ; without\n"
                    "MLP the JBSQ scan becomes the §6.3 bottleneck\n"
                    "even on one socket.\n");
    }
    return 0;
}
