/**
 * @file
 * Figure 12: sensitivity of performance to the number of I-VLB and
 * D-VLB entries.
 *
 * The paper varies entries in {1, 2, 4, 16} on the two most sensitive
 * workloads: Hipster for the I-VLB (two entries — the function's code
 * plus PrivLib's — already reach 99% of full throughput) and Media for
 * the D-VLB (eight entries cover the worst case of many live ArgBufs).
 *
 * Host-parallel: --jobs N runs the two variants concurrently; each
 * measures its SLO, then fans its four VLB sizes, and each sweep fans
 * its own load points; output is byte-identical to --jobs 1.
 */

#include <cstdlib>

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

struct Variant {
    const char *workload;
    bool vary_ivlb;
    double lo, hi;
};

/** One (variant, entries) table row. */
struct SizeRow {
    double tputUnderSlo = 0;
    double lowLoadP99Us = 0;
    double hitRate = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args =
        bench::BenchArgs::parse(argc, argv, "fig12");
    const std::uint64_t requests = args.quick ? 1500 : 6000;
    std::unique_ptr<par::ThreadPool> pool = args.makePool();

    bench::banner("Figure 12: VLB-size sensitivity "
                  "(Hipster I-VLB, Media D-VLB)");

    const unsigned sizes[] = {1, 2, 4, 16};
    constexpr std::size_t kNumSizes = 4;
    const Variant variants[] = {
        {"Hipster", true, 0.5, 13.0},
        {"Media", false, 0.25, 4.5},
    };
    constexpr std::size_t kNumVariants = 2;

    workloads::SweepConfig scfg;
    scfg.requestsPerPoint = requests;
    scfg.pool = pool.get();

    // One job per variant: its SLO measurement, then one nested job per
    // VLB size.
    struct VariantResult {
        double sloUs = 0;
        std::vector<SizeRow> rows;
    };
    std::vector<VariantResult> results = par::orderedMap<VariantResult>(
        pool.get(), kNumVariants, [&](std::size_t vi) {
            const Variant &variant = variants[vi];
            workloads::Workload w = workloads::makeByName(variant.workload);
            std::vector<double> loads =
                workloads::loadSeries(variant.lo, variant.hi, 10);
            VariantResult res;
            res.sloUs = workloads::measureSloUs(w, scfg);
            res.rows = par::orderedMap<SizeRow>(
                pool.get(), kNumSizes, [&](std::size_t si) {
                    unsigned entries = sizes[si];
                    workloads::SweepConfig cfg = scfg;
                    if (variant.vary_ivlb)
                        cfg.worker.machine.ivlbEntries = entries;
                    else
                        cfg.worker.machine.dvlbEntries = entries;

                    workloads::SweepResult sweep = workloads::sweepLoad(
                        w, SystemKind::Jord, loads, res.sloUs, cfg);

                    // Hit rate measured separately at a moderate load.
                    WorkerConfig wc = cfg.worker;
                    WorkerServer worker(wc, w.registry);
                    RunResult run =
                        worker.run(loads[3], requests / 2, w.mix);
                    double hits = 0, total = 0;
                    for (unsigned core = 0; core < wc.machine.numCores;
                         ++core) {
                        const uat::VlbStats &s =
                            variant.vary_ivlb
                                ? worker.uat().ivlb(core).stats()
                                : worker.uat().dvlb(core).stats();
                        hits += static_cast<double>(s.hits);
                        total += static_cast<double>(s.hits + s.misses);
                    }
                    return SizeRow{sweep.throughputUnderSlo,
                                   sweep.points.front().p99Us,
                                   total > 0 ? hits / total : 0};
                });
            return res;
        });

    for (std::size_t vi = 0; vi < kNumVariants; ++vi) {
        const Variant &variant = variants[vi];
        std::printf("--- %s, varying %s (SLO = %.1f us) ---\n",
                    variant.workload,
                    variant.vary_ivlb ? "I-VLB" : "D-VLB",
                    results[vi].sloUs);
        stats::Table table({"Entries", "Tput under SLO (MRPS)",
                            "P99 @ low load (us)", "VLB hit rate"});
        for (std::size_t si = 0; si < kNumSizes; ++si) {
            const SizeRow &row = results[vi].rows[si];
            table.addRow(
                {stats::Table::cell(std::uint64_t(sizes[si])),
                 stats::Table::cell(row.tputUnderSlo, "%.2f"),
                 stats::Table::cell(row.lowLoadP99Us, "%.2f"),
                 stats::Table::cell(row.hitRate, "%.4f")});
        }
        std::printf("%s\n", table.render().c_str());
    }
    std::printf("Expected shape: 2 I-VLB entries reach ~99%% of the\n"
                "16-entry throughput; 4-8 D-VLB entries suffice even\n"
                "for Media; a single entry degrades both.\n");
    return 0;
}
