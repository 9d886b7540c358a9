/**
 * @file
 * Load-sweep harness: the measurement methodology of §5.
 *
 * Throughput under a 99th-percentile latency SLO is the paper's primary
 * metric, with the SLO set to 10x the minimal-load service time on
 * Jord_NI. This helper measures that SLO, sweeps offered load for a
 * system variant, and reports the P99-vs-load series of Fig. 9 together
 * with the achieved throughput under SLO.
 *
 * Sweep points are independent runs: each owns its WorkerServer (and
 * with it machine, event queue, RNG, samplers), so a sweep fans its
 * points across a par::ThreadPool when one is configured. Points
 * commit into pre-sized, index-addressed slots and the
 * order-dependent aggregates are recomputed afterwards by
 * finalizeSweep(), so results are byte-identical to a serial sweep
 * regardless of the thread count.
 */

#ifndef JORD_WORKLOADS_SWEEP_HH
#define JORD_WORKLOADS_SWEEP_HH

#include <map>
#include <string>
#include <vector>

#include "runtime/worker.hh"
#include "workloads/workloads.hh"

namespace jord::par {
class ThreadPool;
} // namespace jord::par

namespace jord::workloads {

/** The §5 SLO: this many times the minimal-load mean latency. The
 * worker sweeps (measureSloUs) and the fleet's derived SLO
 * (cluster::ClusterSim) both apply it. */
inline constexpr double kSloMultiplier = 10.0;

/** One point of a load sweep. */
struct SweepPoint {
    double offeredMrps = 0;
    double achievedMrps = 0;
    double p99Us = 0;
    double meanUs = 0;
    bool meetsSlo = false;
};

/** A full sweep for one (workload, system) pair. */
struct SweepResult {
    runtime::SystemKind system;
    double sloUs = 0;
    std::vector<SweepPoint> points;
    /** Highest achieved throughput whose P99 met the SLO. */
    double throughputUnderSlo = 0;
};

/** Sweep configuration. */
struct SweepConfig {
    runtime::WorkerConfig worker;
    /** External requests per load point. */
    std::uint64_t requestsPerPoint = 20000;
    /**
     * Host-parallel engine: load points fan across this pool (null =
     * serial). Output is byte-identical either way (DESIGN.md §9).
     */
    par::ThreadPool *pool = nullptr;
};

/**
 * Measure the SLO for a workload: kSloMultiplier x the mean request
 * latency on Jord_NI under minimal load (§5).
 */
double measureSloUs(const Workload &workload, const SweepConfig &cfg);

/**
 * Sweep the given offered loads for one system variant.
 *
 * @param slo_us Pass the value from measureSloUs (shared across the
 * systems being compared).
 */
SweepResult sweepLoad(const Workload &workload,
                      runtime::SystemKind system,
                      const std::vector<double> &loads_mrps,
                      double slo_us, const SweepConfig &cfg);

/**
 * Recompute the order-dependent aggregates of a sweep from its points
 * in index order: the monotone SLO-knee detection (once a load misses
 * the SLO, a higher load passing again is P99 sampling noise, not
 * recovery) and throughputUnderSlo. Called by sweepLoad after the
 * points are committed; exposed so slot-at-a-time fills — in any
 * order — can be finalized identically (regression-tested).
 */
void finalizeSweep(SweepResult &result);

/** Geometrically spaced loads in [lo, hi] (inclusive), n points. */
std::vector<double> loadSeries(double lo, double hi, unsigned n);

// --- Seed sweeps ---------------------------------------------------------

/** Configuration for a per-seed sweep of one (workload, system, load)
 * combination: `jordsim --seed-sweep A..B`. */
struct SeedSweepConfig {
    /** Base configuration; its seed field is overridden per run. */
    runtime::WorkerConfig worker;
    /** Inclusive seed range. */
    std::uint64_t seedLo = 1;
    std::uint64_t seedHi = 1;
    double mrps = 1.0;
    std::uint64_t requests = 20000;
    /** Seeds fan across this pool (null = serial). */
    par::ThreadPool *pool = nullptr;
};

/**
 * Run seeds seedLo..seedHi (inclusive); result i belongs to seed
 * seedLo + i. Each seed's run owns a private WorkerServer, so runs
 * are independent and the vector is byte-identical across thread
 * counts.
 */
std::vector<runtime::RunResult> runSeedSweep(const Workload &workload,
                                             const SeedSweepConfig &cfg);

/**
 * Merged per-seed CSV (header plus one row per seed), byte-stable:
 * the CI determinism gate compares this output across --jobs values.
 */
std::string seedSweepCsv(const std::string &workload_name,
                         const std::string &system_name,
                         const SeedSweepConfig &cfg,
                         const std::vector<runtime::RunResult> &runs);

/**
 * Flat "seed.<N>.<metric>" map of the headline per-seed metrics, for
 * prof::writeFlatJson / jordprof diffing.
 */
std::map<std::string, double>
seedSweepJson(const SeedSweepConfig &cfg,
              const std::vector<runtime::RunResult> &runs);

} // namespace jord::workloads

#endif // JORD_WORKLOADS_SWEEP_HH
