/**
 * @file
 * Figure 13: Jord with a B-tree VMA table (Jord_BT) vs the plain list.
 *
 * The paper (Hotel; other workloads behave similarly) reports Jord_BT
 * at ~60% of Jord's throughput under SLO: the VLB miss penalty grows
 * from ~2 ns to ~20 ns (root-to-leaf node walk instead of one computed
 * VTE access) and PrivLib spends ~167% more time managing VMAs because
 * of B-tree rebalancing — yet Jord_BT still beats NightCore.
 */

#include <cstdlib>

#include "sim/logging.hh"
#include "sim/rng.hh"

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

/** Measure the VLB miss penalty (walk latency, warm L1) on a stack. */
double
missPenaltyNs(bool btree, bool hot)
{
    bench::Stack stack(sim::MachineConfig::isca25Default(), btree);
    // Populate a realistically sized table: thousands of live VMAs
    // spread over several size classes, so the B-tree is several levels
    // deep and its nodes compete for L1 capacity like in a loaded
    // worker. The plain list stays a one-block computed access.
    constexpr unsigned kVmas = 8000;
    std::vector<sim::Addr> vmas;
    vmas.reserve(kVmas);
    for (unsigned i = 0; i < kVmas; ++i) {
        std::uint64_t len = 256ull << (i % 6);
        privlib::PrivResult vma =
            stack.privlib->mmap(0, len, uat::Perm::rw());
        if (!vma.ok)
            sim::fatal("fig13: mmap failed");
        vmas.push_back(vma.value);
    }

    sim::Rng rng(7);
    std::uint64_t total = 0;
    constexpr unsigned kIters = 4000;
    // "hot" measures the common case the paper quotes (a small working
    // set of recently used VMAs whose table blocks stay in the L1);
    // the spread pattern walks the whole table.
    std::uint64_t span = hot ? 16 : vmas.size();
    for (unsigned i = 0; i < kIters + 64; ++i) {
        sim::Addr va = vmas[rng.uniformInt(span)];
        stack.uat->dvlb(0).invalidateAll();
        uat::UatAccess acc =
            stack.uat->dataAccess(0, va, uat::Perm::r());
        if (!acc.ok())
            sim::fatal("fig13: walk fault");
        if (i >= 64)
            total += acc.latency;
    }
    return sim::cyclesToNs(static_cast<double>(total) / kIters,
                           stack.machine.freqGhz);
}

} // namespace

/** One system's table row. */
struct SystemRow {
    double tput = 0;
    double service = 0;
    double mgmt = 0;
};

/** One top-level job's result: a miss penalty, or the system rows
 * that depend on the SLO measured by the same job. */
struct Part {
    double penaltyNs = 0;
    std::vector<SystemRow> rows;
};

int
main(int argc, char **argv)
{
    bench::BenchArgs args =
        bench::BenchArgs::parse(argc, argv, "fig13");
    const std::uint64_t requests = args.quick ? 2500 : 10000;
    std::unique_ptr<par::ThreadPool> pool = args.makePool();

    workloads::Workload w = workloads::makeHotel();
    workloads::SweepConfig cfg;
    cfg.requestsPerPoint = requests;
    cfg.pool = pool.get();
    std::vector<double> loads = workloads::loadSeries(0.5, 9.0, 12);
    const SystemKind systems[] = {SystemKind::Jord, SystemKind::JordBT};

    // Compute phase: the four miss-penalty microbenchmarks, then the
    // SLO measurement, whose job then fans one job per system; results
    // print afterwards in the fixed order.
    const std::pair<bool, bool> penalty_cfgs[] = {
        {false, true}, {true, true}, {false, false}, {true, false}};
    constexpr std::size_t kSloJob = 4;
    std::vector<Part> parts = par::orderedMap<Part>(
        pool.get(), kSloJob + 1, [&](std::size_t job) {
            Part part;
            if (job < kSloJob) {
                part.penaltyNs = missPenaltyNs(penalty_cfgs[job].first,
                                               penalty_cfgs[job].second);
                return part;
            }
            double slo_us = workloads::measureSloUs(w, cfg);
            part.rows = par::orderedMap<SystemRow>(
                pool.get(), 2, [&](std::size_t i) {
                    SystemRow row;
                    workloads::SweepResult sweep = workloads::sweepLoad(
                        w, systems[i], loads, slo_us, cfg);
                    row.tput = sweep.throughputUnderSlo;
                    // Service time + PrivLib accounting at a common
                    // moderate load.
                    WorkerConfig wc = cfg.worker;
                    wc.system = systems[i];
                    WorkerServer worker(wc, w.registry);
                    worker.privlib().resetStats();
                    RunResult res = worker.run(2.0, requests, w.mix);
                    row.service = res.serviceUs.mean();
                    row.mgmt =
                        sim::cyclesToNs(
                            static_cast<double>(
                                worker.privlib().vmaManagementCycles()),
                            wc.machine.freqGhz) /
                        static_cast<double>(res.invocations);
                    return row;
                });
            return part;
        });
    const std::vector<SystemRow> &rows = parts[kSloJob].rows;

    bench::banner("Figure 13: plain-list vs B-tree VMA table (Hotel)");

    std::printf("VLB miss penalty (hot working set):   plain list "
                "%.1f ns, B-tree %.1f ns\n",
                parts[0].penaltyNs, parts[1].penaltyNs);
    std::printf("VLB miss penalty (spread over table): plain list "
                "%.1f ns, B-tree %.1f ns\n",
                parts[2].penaltyNs, parts[3].penaltyNs);
    std::printf("(paper: 2 ns common case vs 20 ns with the B-tree)\n\n");

    stats::Table table({"System", "Tput under SLO (MRPS)",
                        "Mean service (us)",
                        "VMA mgmt (ns/invocation)"});
    double tput[2], service[2], mgmt[2];
    for (int i = 0; i < 2; ++i) {
        tput[i] = rows[i].tput;
        service[i] = rows[i].service;
        mgmt[i] = rows[i].mgmt;
        table.addRow({systemName(systems[i]),
                      stats::Table::cell(tput[i], "%.2f"),
                      stats::Table::cell(service[i], "%.2f"),
                      stats::Table::cell(mgmt[i], "%.1f")});
    }
    std::printf("%s\n", table.render().c_str());
    if (tput[0] > 0 && service[0] > 0 && mgmt[0] > 0) {
        std::printf("Jord_BT / Jord throughput: %.2f (paper ~0.6)\n",
                    tput[1] / tput[0]);
        std::printf("Service-time increase: +%.0f%% (paper +43%%)\n",
                    100.0 * (service[1] / service[0] - 1.0));
        std::printf("PrivLib VMA-management increase: +%.0f%% "
                    "(paper +167%%)\n",
                    100.0 * (mgmt[1] / mgmt[0] - 1.0));
    }
    return 0;
}
