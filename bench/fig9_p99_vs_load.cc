/**
 * @file
 * Figure 9: 99th-percentile latency vs offered load for Jord, Jord_NI
 * and NightCore on all four workloads, plus throughput under SLO.
 *
 * Reproduces the headline claims of §6.1: Jord performs within ~16% of
 * the insecure Jord_NI upper bound (Media ~70% due to its 12-way nested
 * fan-out) and delivers over 2x NightCore's throughput under SLO on
 * average, with NightCore failing the SLO even at minimum load for the
 * communication-heavy workloads (Hipster, Media).
 *
 * Host-parallel: --jobs N fans the work across N threads as a job
 * graph — each workload's SLO measurement precedes its three system
 * sweeps, and every sweep fans its load points — with output
 * byte-identical to --jobs 1 (the CI parallel-determinism gate).
 *
 * Environment knobs: JORD_FIG9_REQUESTS (default 20000) trades run time
 * for P99 fidelity.
 */

#include <cstdlib>
#include <map>

#include "bench/common.hh"
#include "par/par.hh"
#include "stats/table.hh"
#include "workloads/sweep.hh"

using namespace jord;
using runtime::SystemKind;
using workloads::SweepConfig;
using workloads::SweepResult;

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, "fig9");

    SweepConfig cfg;
    cfg.requestsPerPoint = args.quick ? 2000 : 8000;
    cfg.requestsPerPoint = sim::env::getU64("JORD_FIG9_REQUESTS", cfg.requestsPerPoint);
    std::unique_ptr<par::ThreadPool> pool = args.makePool();
    cfg.pool = pool.get();

    // Per-workload load ranges follow the paper's x-axes (MRPS).
    const std::map<std::string, std::pair<double, double>> ranges = {
        {"Hipster", {0.5, 16.0}},
        {"Hotel", {0.5, 9.0}},
        {"Media", {0.25, 7.0}},
        {"Social", {0.05, 1.4}},
    };
    const SystemKind systems[] = {SystemKind::JordNI, SystemKind::Jord,
                                  SystemKind::NightCore};
    constexpr std::size_t kNumSystems = 3;

    // Quick mode (CI's byte-compared BENCH_fig9.json baseline) runs
    // Hotel only, on a short load series.
    std::vector<workloads::Workload> all = workloads::makeAll();
    std::vector<const workloads::Workload *> active;
    for (const workloads::Workload &w : all)
        if (!args.quick || w.name == "Hotel")
            active.push_back(&w);

    // Compute phase: a job graph over all workloads and systems. Each
    // node commits to its own slot; printing happens afterwards, in
    // the fixed serial order, so output is thread-count independent.
    std::vector<std::vector<double>> loads(active.size());
    bench::Slots<double> slo(active.size());
    bench::Slots<SweepResult> sweeps(active.size() * kNumSystems);

    par::JobGraph graph;
    for (std::size_t wi = 0; wi < active.size(); ++wi) {
        const workloads::Workload *w = active[wi];
        auto range = ranges.at(w->name);
        loads[wi] = workloads::loadSeries(range.first, range.second,
                                          args.quick ? 5 : 14);
        par::JobGraph::NodeId slo_node = graph.add(
            [&, w, wi] { slo.set(wi, workloads::measureSloUs(*w, cfg)); });
        for (std::size_t si = 0; si < kNumSystems; ++si) {
            SystemKind system = systems[si];
            par::JobGraph::NodeId node = graph.add([&, w, wi, system,
                                                    si] {
                sweeps.set(wi * kNumSystems + si,
                           workloads::sweepLoad(*w, system, loads[wi],
                                                slo.at(wi), cfg));
            });
            graph.precede(slo_node, node);
        }
    }
    graph.run(pool.get());

    bench::banner("Figure 9: P99 latency vs load (per workload/system)");

    stats::Table summary({"Workload", "SLO (us)", "JordNI (MRPS)",
                          "Jord (MRPS)", "NightCore (MRPS)",
                          "Jord/JordNI", "Jord/NightCore"});
    std::map<std::string, double> json;

    for (std::size_t wi = 0; wi < active.size(); ++wi) {
        const workloads::Workload &w = *active[wi];
        double slo_us = slo.at(wi);
        json["fig9." + w.name + ".slo_us"] = slo_us;

        std::printf("--- %s (SLO = %.1f us) ---\n", w.name.c_str(),
                    slo_us);
        stats::Table series({"System", "Offered (MRPS)",
                             "Achieved (MRPS)", "P99 (us)", "SLO?"});
        std::map<SystemKind, double> under_slo;
        for (std::size_t si = 0; si < kNumSystems; ++si) {
            SystemKind system = systems[si];
            const SweepResult &res = sweeps.at(wi * kNumSystems + si);
            for (const auto &p : res.points) {
                series.addRow({systemName(system),
                               stats::Table::cell(p.offeredMrps, "%.2f"),
                               stats::Table::cell(p.achievedMrps,
                                                  "%.2f"),
                               stats::Table::cell(p.p99Us, "%.1f"),
                               p.meetsSlo ? "yes" : "NO"});
            }
            under_slo[system] = res.throughputUnderSlo;
            std::string prefix =
                "fig9." + w.name + "." + systemName(system);
            json[prefix + ".goodput_mrps"] = res.throughputUnderSlo;
            if (!res.points.empty()) {
                json[prefix + ".min_load_p99_us"] = res.points[0].p99Us;
                json[prefix + ".min_load_mean_us"] =
                    res.points[0].meanUs;
            }
        }
        std::printf("%s\n", series.render().c_str());

        double ni = under_slo[SystemKind::JordNI];
        double jord = under_slo[SystemKind::Jord];
        double ntc = under_slo[SystemKind::NightCore];
        summary.addRow(
            {w.name, stats::Table::cell(slo_us, "%.1f"),
             stats::Table::cell(ni, "%.2f"),
             stats::Table::cell(jord, "%.2f"),
             stats::Table::cell(ntc, "%.2f"),
             stats::Table::cell(ni > 0 ? jord / ni : 0, "%.2f"),
             ntc > 0 ? stats::Table::cell(jord / ntc, "%.2f")
                     : std::string("inf")});
    }

    bench::banner("Figure 9 summary: throughput under SLO");
    std::printf("%s", summary.render().c_str());
    std::printf("\nExpected shape: Jord/JordNI >= ~0.84 (Media ~0.7);\n"
                "Jord/NightCore > 2 on average; NightCore misses the\n"
                "SLO at all loads for Hipster and Media.\n");
    bench::writeBenchJson(args.jsonPath, json);
    return 0;
}
