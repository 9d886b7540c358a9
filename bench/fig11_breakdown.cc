/**
 * @file
 * Figure 11: service-time breakdown for the eight Table 3 functions
 * (GC, PO / SN, MR / UU, RP / F, CP) under Jord and NightCore.
 *
 * For Jord the service time splits into execution + memory isolation +
 * dispatch (plus zero-copy communication); for NightCore into execution
 * + pipe overhead. The paper reports Jord averaging 48% lower service
 * time, with dispatch+isolation ~11% of Jord's service time except for
 * ReadPage's >100-way fan-out, and NightCore's overhead exceeding its
 * execution time for most functions (3x for RP).
 *
 * The numbers are the run's own per-function accounting (RunResult's
 * perFunctionBreakdown, perFunctionServiceUs and perFunctionCount).
 * `trace_report` recomputes the same table from an exported trace.
 */

#include "bench/common.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

using namespace jord;
using runtime::RunResult;
using runtime::SystemKind;
using runtime::WorkerConfig;
using runtime::WorkerServer;

int
main()
{
    const std::uint64_t requests = 20000;

    // Moderate load (~35% of each workload's saturation) so queueing
    // does not swamp the intrinsic overheads, mirroring the paper's
    // breakdown conditions.
    const double loads[] = {4.0, 2.5, 1.2, 0.3};

    bench::banner("Figure 11: service-time breakdown for selected "
                  "functions");

    stats::Table table({"Fn", "System", "Service (us)", "Exec (us)",
                        "Isolation (us)", "Dispatch (us)", "Comm (us)",
                        "Pipe (us)", "Wait (us)", "Overhead %"});

    auto all = workloads::makeAll();
    for (std::size_t wi = 0; wi < all.size(); ++wi) {
        workloads::Workload &w = all[wi];
        for (SystemKind system :
             {SystemKind::Jord, SystemKind::NightCore}) {
            WorkerConfig cfg;
            cfg.system = system;
            WorkerServer worker(cfg, w.registry);
            // Compare at comparable utilization: NightCore saturates
            // far earlier, so it runs at a quarter of Jord's load.
            double load = system == SystemKind::NightCore
                              ? loads[wi] / 4.0
                              : loads[wi];
            RunResult res = worker.run(load, requests, w.mix);
            for (const auto &[abbr, fn] : w.selected) {
                double n = static_cast<double>(res.perFunctionCount[fn]);
                if (n == 0)
                    continue;
                const runtime::Breakdown &bd = res.perFunctionBreakdown[fn];
                // Mean µs per invocation of one breakdown category.
                auto us = [&](sim::Cycles cycles) {
                    return sim::cyclesToUs(cycles, cfg.machine.freqGhz) / n;
                };
                double service = res.perFunctionServiceUs[fn].mean();
                double overhead =
                    us(bd.isolation) + us(bd.dispatch) + us(bd.pipe);
                table.addRow(
                    {abbr, systemName(system),
                     stats::Table::cell(service, "%.2f"),
                     stats::Table::cell(us(bd.exec), "%.2f"),
                     stats::Table::cell(us(bd.isolation), "%.3f"),
                     stats::Table::cell(us(bd.dispatch), "%.3f"),
                     stats::Table::cell(us(bd.comm), "%.3f"),
                     stats::Table::cell(us(bd.pipe), "%.2f"),
                     stats::Table::cell(us(bd.queue), "%.2f"),
                     stats::Table::cell(100.0 * overhead / service,
                                        "%.1f")});
            }
        }
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nExpected shape: Jord service ~half of NightCore's;\n"
                "Jord isolation+dispatch ~11%% of service time (higher\n"
                "for RP); NightCore pipe overhead >= exec for most\n"
                "functions, ~3x for RP.\n");
    return 0;
}
