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
 * The numbers come from the src/trace subsystem: each run is traced and
 * the per-function means are recomputed from the span stream by
 * trace::analyzeSpans — the same analysis `trace_report` applies to an
 * exported trace file.
 */

#include <cstdlib>

#include "bench/common.hh"
#include "stats/table.hh"
#include "trace/breakdown.hh"
#include "trace/trace.hh"
#include "workloads/workloads.hh"

using namespace jord;
using runtime::SystemKind;
using runtime::WorkerConfig;
using runtime::WorkerServer;

namespace {

const trace::BreakdownRow *
rowById(const trace::BreakdownReport &report, runtime::FunctionId fn)
{
    for (const trace::BreakdownRow &row : report.rows)
        if (row.fnId == static_cast<std::int32_t>(fn))
            return &row;
    return nullptr;
}

} // namespace

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
            trace::Tracer tracer(cfg.machine.freqGhz);
            worker.setTracer(&tracer);
            // Compare at comparable utilization: NightCore saturates
            // far earlier, so it runs at a quarter of Jord's load.
            double load = system == SystemKind::NightCore
                              ? loads[wi] / 4.0
                              : loads[wi];
            worker.run(load, requests, w.mix);
            worker.setTracer(nullptr);
            trace::BreakdownReport report =
                trace::analyzeSpans(tracer);
            for (const auto &[abbr, fn] : w.selected) {
                const trace::BreakdownRow *row = rowById(report, fn);
                if (!row)
                    continue;
                table.addRow(
                    {abbr, systemName(system),
                     stats::Table::cell(row->serviceUs, "%.2f"),
                     stats::Table::cell(row->execUs, "%.2f"),
                     stats::Table::cell(row->isolationUs, "%.3f"),
                     stats::Table::cell(row->dispatchUs, "%.3f"),
                     stats::Table::cell(row->commUs, "%.3f"),
                     stats::Table::cell(row->pipeUs, "%.2f"),
                     stats::Table::cell(row->queueUs, "%.2f"),
                     stats::Table::cell(row->overheadPct(), "%.1f")});
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
