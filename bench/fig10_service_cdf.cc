/**
 * @file
 * Figure 10: cumulative distribution of function service time on Jord.
 *
 * The paper reports that across the four workloads 75% of function
 * service times fall below ~5 µs, with Media and Social showing long
 * tails (one Social function, ComposePost, needs ~75 µs).
 */

#include <cstdlib>

#include "bench/common.hh"
#include "par/par.hh"
#include "stats/table.hh"
#include "workloads/workloads.hh"

using namespace jord;
using runtime::RunResult;
using runtime::WorkerConfig;
using runtime::WorkerServer;

int
main(int argc, char **argv)
{
    bench::BenchArgs args =
        bench::BenchArgs::parse(argc, argv, "fig10");
    const std::uint64_t requests = args.quick ? 5000 : 20000;

    bench::banner("Figure 10: CDF of function service time (Jord, "
                  "low load)");

    // Low load so queueing does not distort intrinsic service times.
    const double loads[] = {1.0, 0.7, 0.4, 0.08};
    const double percentiles[] = {10, 25, 50, 75, 90, 95, 99, 100};

    stats::Table table({"Workload", "P10 (us)", "P25 (us)", "P50 (us)",
                        "P75 (us)", "P90 (us)", "P95 (us)", "P99 (us)",
                        "Max (us)"});
    auto all = workloads::makeAll();
    // One host-parallel job per workload; each run owns its worker and
    // commits its result to its slot, printing follows in order.
    std::unique_ptr<par::ThreadPool> pool = args.makePool();
    std::vector<RunResult> results = par::orderedMap<RunResult>(
        pool.get(), all.size(), [&](std::size_t wi) {
            WorkerConfig cfg;
            WorkerServer worker(cfg, all[wi].registry);
            return worker.run(loads[wi], requests, all[wi].mix);
        });
    for (std::size_t wi = 0; wi < all.size(); ++wi) {
        workloads::Workload &w = all[wi];
        const RunResult &res = results[wi];

        std::vector<std::string> row{w.name};
        for (double p : percentiles)
            row.push_back(stats::Table::cell(
                res.serviceUs.percentile(p), "%.2f"));
        table.addRow(std::move(row));

        std::printf("--- %s: service-time CDF (16 points) ---\n",
                    w.name.c_str());
        for (auto [us, frac] : res.serviceUs.cdf(16))
            std::printf("  %6.2f us  %.3f\n", us, frac);
        std::printf("\n");
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nExpected shape: ~75%% of service times below ~5 us;\n"
                "Media and Social have long tails, Social reaching\n"
                "~75 us (ComposePost).\n");
    return 0;
}
