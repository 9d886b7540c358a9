#include "cluster/server.hh"

#include <algorithm>
#include <cmath>

#include "par/par.hh"
#include "sim/logging.hh"

namespace jord::cluster {

namespace {

/** Load for the latency-distribution run (MRPS). */
constexpr double kLowLoadMrps = 0.05;
/** Offered load for the saturation run (MRPS); far beyond any single
 * server's capacity so achieved == capacity. */
constexpr double kSaturationMrps = 50.0;
/** Quantile-table resolution. */
constexpr std::size_t kCdfPoints = 64;

} // namespace

double
ServerModel::drawServiceUs(sim::Rng &rng) const
{
    if (latencyQuantilesUs.empty())
        sim::panic("drawServiceUs on an uncalibrated ServerModel");
    double u = rng.uniform();
    // Linear interpolation along the calibrated CDF; below the first
    // knot the draw clamps to the minimum observed latency. The knot
    // is the first whose fraction is at least u. Calibrated fractions
    // are evenly spaced (Sampler::cdf), so the search starts where u
    // falls under even spacing and walks from there; the fractions
    // ascend, so the walk ends on that knot from any start.
    const auto &q = latencyQuantilesUs;
    const std::size_t n = q.size();
    std::size_t i = std::min(
        n - 1, static_cast<std::size_t>(u * static_cast<double>(n)));
    while (i < n && q[i].second < u)
        ++i;
    while (i > 0 && q[i - 1].second >= u)
        --i;
    if (i == 0)
        return q.front().first;
    if (i == n)
        return q.back().first;
    double span = q[i].second - q[i - 1].second;
    double frac = span > 0 ? (u - q[i - 1].second) / span : 1.0;
    return q[i - 1].first + frac * (q[i].first - q[i - 1].first);
}

ServerModel
calibrateServer(const workloads::Workload &workload,
                const runtime::WorkerConfig &worker,
                const CalibrationConfig &cal, par::ThreadPool *pool)
{
    // Two independent runs, each owning its WorkerServer; fan them
    // like sweep points (DESIGN.md §9).
    struct CalRun {
        runtime::RunResult result;
        unsigned numExecutors = 0;
    };
    const double loads[2] = {kLowLoadMrps, kSaturationMrps};
    std::vector<CalRun> runs = par::orderedMap<CalRun>(
        pool, std::size_t{2},
        [&](std::size_t i) {
            runtime::WorkerServer server(worker, workload.registry);
            CalRun run;
            run.result =
                server.run(loads[i], cal.requests, workload.mix);
            run.numExecutors = server.numExecutors();
            return run;
        });

    const runtime::RunResult &low = runs[0].result;
    const runtime::RunResult &sat = runs[1].result;
    if (low.latencyUs.empty())
        sim::fatal("calibration low-load run completed no requests "
                   "(%g MRPS, %llu requests)",
                   kLowLoadMrps,
                   static_cast<unsigned long long>(cal.requests));

    ServerModel model;
    model.latencyQuantilesUs = low.latencyUs.cdf(kCdfPoints);
    model.meanLatencyUs = low.latencyUs.mean();
    model.capacityMrps = sat.achievedMrps;
    if (model.capacityMrps <= 0)
        sim::fatal("calibration saturation run achieved no throughput");
    // Little's law: L = lambda * W, with lambda in requests/µs.
    double little = model.capacityMrps * model.meanLatencyUs;
    model.concurrency = static_cast<std::uint32_t>(
        std::max(1.0, std::round(little)));
    model.numExecutors = runs[0].numExecutors;
    return model;
}

} // namespace jord::cluster
