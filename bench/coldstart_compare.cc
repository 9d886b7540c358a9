/**
 * @file
 * Cold-start comparison (§2.1): what happens when a function's
 * concurrency suddenly doubles?
 *
 * NightCore must provision new worker processes (0.8 ms each, §6.2);
 * Jord's "cold start" is a PD + stack/heap allocation in tens of
 * nanoseconds, so a load spike passes through without a latency cliff.
 * Both systems are driven from a cold start (no warmup window) with a
 * single pre-provisioned worker per function for NightCore.
 */

#include <cstdlib>
#include <iterator>

#include "bench/common.hh"
#include "par/par.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

using namespace jord;
using runtime::RunResult;
using runtime::SystemKind;
using runtime::WorkerConfig;
using runtime::WorkerServer;

int
main(int argc, char **argv)
{
    bench::BenchArgs args =
        bench::BenchArgs::parse(argc, argv, "coldstart_compare");
    const std::uint64_t requests = args.quick ? 2000 : 6000;

    bench::banner("Cold start: first-burst latency, Jord vs NightCore");

    workloads::Workload w = workloads::makeHotel();

    stats::Table table({"System", "Provisioned", "P50 (us)", "P99 (us)",
                        "Max (us)"});
    struct Cfg {
        SystemKind system;
        unsigned provisioned;
    };
    const Cfg cfgs[] = {
        {SystemKind::Jord, 0},
        {SystemKind::NightCore, 1},
        {SystemKind::NightCore, 64},
    };
    // One host-parallel job per configuration; each owns its worker
    // and the table renders afterwards in the fixed order.
    std::unique_ptr<par::ThreadPool> pool = args.makePool();
    std::vector<RunResult> results = par::orderedMap<RunResult>(
        pool.get(), std::size(cfgs), [&](std::size_t i) {
            WorkerConfig wc;
            wc.system = cfgs[i].system;
            if (cfgs[i].provisioned)
                wc.provisioning.preProvisioned = cfgs[i].provisioned;
            WorkerServer worker(wc, w.registry);
            // No warmup exclusion: the cold start is the measurement.
            return worker.run(2.0, requests, w.mix, 0.0);
        });
    for (std::size_t i = 0; i < std::size(cfgs); ++i) {
        const Cfg &c = cfgs[i];
        const RunResult &res = results[i];
        table.addRow(
            {systemName(c.system),
             c.system == SystemKind::Jord
                 ? std::string("n/a")
                 : stats::Table::cell(std::uint64_t(c.provisioned)),
             stats::Table::cell(res.latencyUs.p50(), "%.1f"),
             stats::Table::cell(res.latencyUs.p99(), "%.1f"),
             stats::Table::cell(res.latencyUs.max(), "%.1f")});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("Under-provisioned NightCore pays ~0.8 ms per worker it\n"
                "must spin up during the burst; Jord allocates a PD and\n"
                "stack/heap per invocation (~tens of ns) and shows no\n"
                "cold-start cliff (§2.1, §6.2).\n");
    return 0;
}
