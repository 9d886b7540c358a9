/**
 * @file
 * chaos_availability: fleet availability under seeded chaos — crash
 * rate x gray severity x resilience mechanisms on/off.
 *
 * Extends bench/fault_availability (single worker, in-PD faults) to
 * the fleet: the fault plan's `cluster:` clause injects server
 * crashes, gray windows and link faults into ClusterSim, and
 * ResilienceConfig toggles the mechanisms that react. Three sections:
 *
 *  1. crash-rate sweep x {off, guarded}: "guarded" enables heartbeat
 *     health checking, model-scaled hedges and a 20% retry budget.
 *     Guarding trades tail latency for availability — failures drop
 *     by an order of magnitude while the fleet runs short-handed;
 *  2. gray-severity sweep (server 0 scripted gray for the whole run)
 *     x {off, eject}: "eject" enables LB outlier ejection plus
 *     hedging. Above the ejection threshold the fleet P99 returns to
 *     the clean-fleet level (asserted in tests/test_cluster.cc);
 *  3. correlated mass crash (half the fleet at once) x {none,
 *     budgeted}: a 20% retry budget recovers lost requests without a
 *     retry storm — goodput must be no worse than with retries off.
 *
 * Every point is conservation-gated: the run aborts (non-zero exit)
 * unless generated == completed + shed + failed, so CI's chaos smoke
 * catches any leaked or double-counted request.
 *
 * Flags: --quick shrinks the sweep for CI smoke runs; --jobs N fans
 * the points host-parallel (byte-identical to --jobs 1); --json PATH
 * overrides where BENCH_chaos.json lands.
 */

#include <cstdlib>
#include <map>

#include "bench/common.hh"
#include "cluster/cluster.hh"
#include "par/par.hh"
#include "stats/table.hh"

using namespace jord;
using cluster::ClusterConfig;
using cluster::ClusterResult;
using cluster::ClusterSim;

namespace {

/** Abort (non-zero exit) unless every request resolved exactly once. */
void
gateConservation(const char *label, const ClusterResult &res)
{
    std::uint64_t resolved = res.completed + res.shed + res.failed;
    if (res.generated != resolved)
        sim::fatal("chaos conservation violated at %s: generated=%llu "
                   "!= completed+shed+failed=%llu",
                   label, static_cast<unsigned long long>(res.generated),
                   static_cast<unsigned long long>(resolved));
}

/** "0 = no crash, -1 = never recovered" rendered for the table. */
std::string
ttrCell(const ClusterResult &res)
{
    if (res.crashes == 0)
        return "-";
    if (res.timeToRecoverUs < 0)
        return "never";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", res.timeToRecoverUs);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchArgs args = bench::BenchArgs::parse(argc, argv, "chaos");
    std::unique_ptr<par::ThreadPool> pool = args.makePool();

    workloads::Workload hotel = workloads::makeHotel();

    ClusterConfig base;
    base.calibration.requests = args.quick ? 3000 : 12000;
    base.numServers = 8;
    base.traffic.durationUs = args.quick ? 20000.0 : 60000.0;
    base.serverQueueCap = 256;
    base.faultPlan.seed = 42;

    cluster::ServerModel model = cluster::calibrateServer(
        hotel, base.worker, base.calibration, pool.get());
    std::printf("calibrated server: %.3f MRPS capacity, %.1f us mean "
                "latency, concurrency %u (%u executors)\n",
                model.capacityMrps, model.meanLatencyUs,
                model.concurrency, model.numExecutors);
    base.traffic.mrps = 0.7 * base.numServers * model.capacityMrps;

    // Resilience bundles. The hedge delay is bracketed by the model:
    // above the typical latency (or every request hedges and the extra
    // copies overload the fleet) and under the derived SLO of 10x mean
    // (a hedge that fires after the loss detector has already failed
    // the request rescues nothing).
    double hedge_us = 6.0 * model.meanLatencyUs;
    cluster::ResilienceConfig guarded;
    guarded.healthCheck = true;
    guarded.hedgeUs = hedge_us;
    guarded.retryBudgetFrac = 0.2;
    cluster::ResilienceConfig eject;
    eject.outlierEject = true;
    eject.hedgeUs = hedge_us;
    cluster::ResilienceConfig budgeted;
    budgeted.healthCheck = true;
    budgeted.retryBudgetFrac = 0.2;

    std::vector<double> crash_rates =
        args.quick ? std::vector<double>{0, 0.02}
                   : std::vector<double>{0, 0.01, 0.02, 0.05};
    std::vector<double> gray_mults =
        args.quick ? std::vector<double>{4} : std::vector<double>{2, 4, 8};

    // All sections' points as one flat list, fanned once; each point
    // is its own serial DES, so --jobs N output is byte-identical.
    std::vector<ClusterConfig> points;
    for (double rate : crash_rates) {
        for (bool on : {false, true}) {
            ClusterConfig cfg = base;
            cfg.faultPlan.cluster.serverCrash = rate;
            cfg.faultPlan.cluster.gray = rate;
            if (on)
                cfg.resilience = guarded;
            points.push_back(cfg);
        }
    }
    std::size_t gray_first = points.size();
    for (double mult : gray_mults) {
        for (bool on : {false, true}) {
            ClusterConfig cfg = base;
            cfg.faultPlan.cluster.grayServer = 0;
            cfg.faultPlan.cluster.grayMult = mult;
            if (on)
                cfg.resilience = eject;
            points.push_back(cfg);
        }
    }
    std::size_t mass_first = points.size();
    for (bool on : {false, true}) {
        ClusterConfig cfg = base;
        // 0.4x capacity: the surviving half-fleet runs at 0.8x, so the
        // budgeted retries have headroom to land (at 0.7x the halved
        // fleet is past saturation and no retry policy can help).
        cfg.traffic.mrps = 0.4 * base.numServers * model.capacityMrps;
        cfg.faultPlan.cluster.crashAtMs =
            0.3 * base.traffic.durationUs / 1000.0;
        cfg.faultPlan.cluster.crashFrac = 0.5;
        cfg.resilience = budgeted;
        if (!on)
            cfg.resilience.retryBudgetFrac = 0;
        points.push_back(cfg);
    }

    std::vector<ClusterResult> results = par::orderedMap<ClusterResult>(
        pool.get(), points.size(), [&](std::size_t i) {
            ClusterSim sim(points[i], model);
            return sim.run();
        });
    for (std::size_t i = 0; i < results.size(); ++i)
        gateConservation(
            ("point " + std::to_string(i)).c_str(), results[i]);

    std::map<std::string, double> json;
    const std::vector<std::string> cols = {
        "Rate", "Mechanisms", "Goodput (MRPS)", "P99 (us)",
        "SLO burn", "Failed", "Hedge wins", "TTR (us)"};

    bench::banner("chaos: crash+gray rate x mechanisms "
                  "(8 servers, 0.7x capacity)");
    stats::Table crash_table(cols);
    for (std::size_t ri = 0; ri < crash_rates.size(); ++ri) {
        for (bool on : {false, true}) {
            const ClusterResult &res = results[ri * 2 + on];
            const char *mech = on ? "guarded" : "off";
            crash_table.addRow(
                {stats::Table::cell(crash_rates[ri], "%.3f"), mech,
                 stats::Table::cell(res.goodputMrps, "%.2f"),
                 stats::Table::cell(res.p99Us, "%.1f"),
                 stats::Table::cell(res.sloBurn, "%.4f"),
                 stats::Table::cell(res.failed),
                 stats::Table::cell(res.hedgeWins), ttrCell(res)});
            char rate_key[32];
            std::snprintf(rate_key, sizeof(rate_key), "%.3f",
                          crash_rates[ri]);
            std::string prefix = std::string("chaos.crash") + rate_key +
                                 "." + mech;
            json[prefix + ".goodput_mrps"] = res.goodputMrps;
            json[prefix + ".p99_us"] = res.p99Us;
            json[prefix + ".slo_burn"] = res.sloBurn;
            json[prefix + ".failed"] =
                static_cast<double>(res.failed);
        }
    }
    std::printf("%s", crash_table.render().c_str());
    std::printf(
        "\nExpected shape: unguarded failure count grows with the\n"
        "crash rate (the LB keeps routing to dead servers until the\n"
        "detection timeout). Guarded runs trade tail latency for\n"
        "availability: health checks, hedges and budgeted retries cut\n"
        "failures by an order of magnitude while the fleet is running\n"
        "short-handed through restarts.\n");

    bench::banner("chaos: gray severity x ejection "
                  "(server 0 gray all run)");
    stats::Table gray_table({"Gray mult", "Mechanisms",
                             "Goodput (MRPS)", "P99 (us)", "Ejections",
                             "Hedge wins"});
    for (std::size_t gi = 0; gi < gray_mults.size(); ++gi) {
        for (bool on : {false, true}) {
            const ClusterResult &res = results[gray_first + gi * 2 + on];
            const char *mech = on ? "eject" : "off";
            gray_table.addRow(
                {stats::Table::cell(gray_mults[gi], "%.0f"), mech,
                 stats::Table::cell(res.goodputMrps, "%.2f"),
                 stats::Table::cell(res.p99Us, "%.1f"),
                 stats::Table::cell(res.ejections),
                 stats::Table::cell(res.hedgeWins)});
            char mult_key[32];
            std::snprintf(mult_key, sizeof(mult_key), "%.0f",
                          gray_mults[gi]);
            std::string prefix = std::string("chaos.gray") + mult_key +
                                 "." + mech;
            json[prefix + ".goodput_mrps"] = res.goodputMrps;
            json[prefix + ".p99_us"] = res.p99Us;
        }
    }
    std::printf("%s", gray_table.render().c_str());
    std::printf(
        "\nExpected shape: one gray server drags the unguarded fleet\n"
        "P99 to the degraded service time. Above the ejection\n"
        "threshold (grayx > ejectMult) the detector routes around the\n"
        "outlier and P99 returns to the clean-fleet level; a mildly\n"
        "gray server inside the band correctly stays in the fleet.\n");

    bench::banner("chaos: correlated mass crash (50% of fleet) "
                  "x retry budget");
    stats::Table mass_table({"Retries", "Goodput (MRPS)", "P99 (us)",
                             "Failed", "Retries used", "TTR (us)"});
    for (bool on : {false, true}) {
        const ClusterResult &res = results[mass_first + on];
        const char *mech = on ? "budgeted" : "none";
        mass_table.addRow(
            {mech, stats::Table::cell(res.goodputMrps, "%.2f"),
             stats::Table::cell(res.p99Us, "%.1f"),
             stats::Table::cell(res.failed),
             stats::Table::cell(res.retries), ttrCell(res)});
        std::string prefix = std::string("chaos.masscrash.") + mech;
        json[prefix + ".goodput_mrps"] = res.goodputMrps;
        json[prefix + ".failed"] = static_cast<double>(res.failed);
        json[prefix + ".ttr_us"] = res.timeToRecoverUs;
    }
    std::printf("%s", mass_table.render().c_str());
    std::printf(
        "\nThe budget caps retries at 20%% of primary traffic, so the\n"
        "surviving half-fleet absorbs the recovered load without a\n"
        "retry storm: budgeted goodput is never below none.\n");

    bench::writeBenchJson(args.jsonPath, json);
    return 0;
}
