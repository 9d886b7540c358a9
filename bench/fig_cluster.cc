/**
 * @file
 * fig_cluster: fleet-scale simulation — goodput, P99 and cost across
 * fleet size x traffic shape, LB-policy comparison, and an
 * autoscaling showcase.
 *
 * Extends the paper's single-server evaluation (§5) to the deployment
 * it targets — "hundreds of worker servers" behind a front-end — by
 * sweeping calibrated fleets (src/cluster) over open-loop traffic
 * shapes. Three sections:
 *
 *  1. fleet grid: {4, 8, 16} servers x {constant, diurnal, flash} at
 *     0.7x fleet capacity — goodput (MRPS under SLO), fleet P99 and
 *     cost in server-seconds;
 *  2. LB policies at 0.9x capacity on 8 servers — power-of-two-choices
 *     (random2) must strictly beat random-1 on P99 (asserted in
 *     tests/test_cluster.cc);
 *  3. autoscaling on a flash crowd, 2..8 servers — cost saved vs a
 *     static max-size fleet, with the scale-event timeline.
 *
 * Host-parallel: calibration runs and fleet points fan across --jobs
 * threads; each fleet point is its own serial DES, so output is
 * byte-identical to --jobs 1 (the CI parallel-determinism gate).
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
using cluster::LbPolicy;
using cluster::TrafficShape;

int
main(int argc, char **argv)
{
    bench::BenchArgs args =
        bench::BenchArgs::parse(argc, argv, "fig_cluster");
    std::unique_ptr<par::ThreadPool> pool = args.makePool();

    workloads::Workload hotel = workloads::makeHotel();

    ClusterConfig base;
    base.calibration.requests = args.quick ? 3000 : 12000;
    base.traffic.durationUs = args.quick ? 20000.0 : 60000.0;
    base.serverQueueCap = 256;

    // One calibration feeds every fleet point: the model is a pure
    // function of (workload, WorkerConfig), shared by all sections.
    cluster::ServerModel model = cluster::calibrateServer(
        hotel, base.worker, base.calibration, pool.get());
    std::printf("calibrated server: %.3f MRPS capacity, %.1f us mean "
                "latency, concurrency %u (%u executors)\n",
                model.capacityMrps, model.meanLatencyUs,
                model.concurrency, model.numExecutors);

    // Every section's points are independent fleet runs; build the
    // whole list and fan it once.
    const unsigned fleets[] = {4, 8, 16};
    const TrafficShape shapes[] = {TrafficShape::Constant,
                                   TrafficShape::Diurnal,
                                   TrafficShape::Flash};
    const LbPolicy policies[] = {LbPolicy::Random, LbPolicy::Random2,
                                 LbPolicy::Jsq, LbPolicy::RoundRobin,
                                 LbPolicy::Affinity};

    std::vector<ClusterConfig> points;
    for (TrafficShape shape : shapes) {
        for (unsigned n : fleets) {
            ClusterConfig cfg = base;
            cfg.numServers = n;
            cfg.traffic.shape = shape;
            cfg.traffic.mrps = 0.7 * n * model.capacityMrps;
            points.push_back(cfg);
        }
    }
    std::size_t lb_first = points.size();
    for (LbPolicy policy : policies) {
        ClusterConfig cfg = base;
        cfg.numServers = 8;
        cfg.lb = policy;
        cfg.traffic.shape = TrafficShape::Constant;
        cfg.traffic.mrps = 0.9 * 8 * model.capacityMrps;
        points.push_back(cfg);
    }
    std::size_t scale_first = points.size();
    for (bool autoscale : {false, true}) {
        ClusterConfig cfg = base;
        cfg.numServers = 8;
        cfg.traffic.shape = TrafficShape::Flash;
        cfg.traffic.mrps = 0.5 * 8 * model.capacityMrps;
        cfg.traffic.flashFactor = 3.0;
        if (autoscale) {
            cfg.numServers = 2;
            cfg.autoscale.enabled = true;
            cfg.autoscale.minServers = 2;
            cfg.autoscale.maxServers = 8;
        }
        points.push_back(cfg);
    }

    std::vector<ClusterResult> results =
        par::orderedMap<ClusterResult>(
            pool.get(), points.size(), [&](std::size_t i) {
                ClusterSim sim(points[i], model);
                return sim.run();
            });

    std::map<std::string, double> json;

    bench::banner("fig_cluster: fleet size x traffic shape "
                  "(0.7x capacity, random2)");
    stats::Table grid({"Traffic", "Servers", "Offered (MRPS)",
                       "Goodput (MRPS)", "P99 (us)", "Cost (srv-s)",
                       "Shed"});
    std::size_t idx = 0;
    for (TrafficShape shape : shapes) {
        for (unsigned n : fleets) {
            const ClusterResult &res = results[idx++];
            grid.addRow({cluster::trafficShapeName(shape),
                         stats::Table::cell(std::uint64_t{n}),
                         stats::Table::cell(res.offeredMrps, "%.2f"),
                         stats::Table::cell(res.goodputMrps, "%.2f"),
                         stats::Table::cell(res.p99Us, "%.1f"),
                         stats::Table::cell(res.costServerSeconds,
                                            "%.4f"),
                         stats::Table::cell(res.shed)});
            std::string prefix =
                std::string("fig_cluster.") +
                cluster::trafficShapeName(shape) + ".n" +
                std::to_string(n);
            json[prefix + ".goodput_mrps"] = res.goodputMrps;
            json[prefix + ".p99_us"] = res.p99Us;
            json[prefix + ".cost_server_s"] = res.costServerSeconds;
        }
    }
    std::printf("%s", grid.render().c_str());

    bench::banner("fig_cluster: LB policy comparison "
                  "(8 servers, 0.9x capacity, constant)");
    stats::Table lb({"Policy", "Goodput (MRPS)", "P99 (us)", "Shed"});
    for (std::size_t pi = 0; pi < std::size(policies); ++pi) {
        const ClusterResult &res = results[lb_first + pi];
        const char *name = cluster::lbPolicyName(policies[pi]);
        lb.addRow({name, stats::Table::cell(res.goodputMrps, "%.2f"),
                   stats::Table::cell(res.p99Us, "%.1f"),
                   stats::Table::cell(res.shed)});
        json[std::string("fig_cluster.lb.") + name + ".p99_us"] =
            res.p99Us;
        json[std::string("fig_cluster.lb.") + name +
             ".goodput_mrps"] = res.goodputMrps;
    }
    std::printf("%s", lb.render().c_str());
    std::printf("\nExpected shape: random2 strictly below random on "
                "P99 (power of two choices); jsq at or below "
                "random2.\n");

    bench::banner("fig_cluster: autoscaling on a flash crowd "
                  "(0.5x capacity base, 3x burst)");
    const ClusterResult &fixed = results[scale_first];
    const ClusterResult &scaled = results[scale_first + 1];
    stats::Table autos({"Fleet", "Goodput (MRPS)", "P99 (us)",
                        "Cost (srv-s)", "Scale events",
                        "Final servers"});
    autos.addRow({"static 8", stats::Table::cell(fixed.goodputMrps,
                                                 "%.2f"),
                  stats::Table::cell(fixed.p99Us, "%.1f"),
                  stats::Table::cell(fixed.costServerSeconds, "%.4f"),
                  stats::Table::cell(std::uint64_t{0}),
                  stats::Table::cell(std::uint64_t{8})});
    autos.addRow(
        {"autoscale 2..8",
         stats::Table::cell(scaled.goodputMrps, "%.2f"),
         stats::Table::cell(scaled.p99Us, "%.1f"),
         stats::Table::cell(scaled.costServerSeconds, "%.4f"),
         stats::Table::cell(
             std::uint64_t{scaled.scaleEvents.size() - 1}),
         stats::Table::cell(std::uint64_t{scaled.finalActiveServers})});
    std::printf("%s", autos.render().c_str());
    std::printf("\nScale timeline:");
    for (const cluster::ScaleEvent &event : scaled.scaleEvents)
        std::printf(" %u@%.0fus", event.activeServers, event.atUs);
    std::printf("\n");
    json["fig_cluster.autoscale.cost_server_s"] =
        scaled.costServerSeconds;
    json["fig_cluster.autoscale.p99_us"] = scaled.p99Us;
    json["fig_cluster.autoscale.scale_events"] =
        static_cast<double>(scaled.scaleEvents.size() - 1);
    json["fig_cluster.static.cost_server_s"] =
        fixed.costServerSeconds;

    bench::writeBenchJson(args.jsonPath, json);
    return 0;
}
