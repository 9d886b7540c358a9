/**
 * @file
 * Calibrated per-server model for the fleet simulation.
 *
 * The cluster simulator does not timestep N full machine models in one
 * event loop — that would couple their RNG/event streams and break the
 * per-job determinism contract (DESIGN.md §9). Instead it runs the
 * *real* WorkerServer twice per configuration in a calibration phase
 * (fanned across the host pool like any other sweep):
 *
 *  1. a low-load run captures the end-to-end latency distribution as
 *     an inverse-CDF quantile table, and
 *  2. a saturation run captures the server's capacity in MRPS.
 *
 * The fleet phase then models each server as an M/G/K queue whose K
 * comes from Little's law over the calibrated capacity and mean
 * latency, and whose service times are inverse-CDF draws from the
 * calibrated table. Calibration is a pure function of (workload,
 * WorkerConfig), so fleet results inherit the simulator's fidelity —
 * Jord vs NightCore, shed caps, fault plans — while the fleet loop
 * stays a single deterministic DES.
 */

#ifndef JORD_CLUSTER_SERVER_HH
#define JORD_CLUSTER_SERVER_HH

#include <cstdint>
#include <vector>

#include "runtime/worker.hh"
#include "sim/rng.hh"
#include "workloads/workloads.hh"

namespace jord::par {
class ThreadPool;
} // namespace jord::par

namespace jord::cluster {

/** Calibrated behaviour of one worker-server configuration. */
struct ServerModel {
    /**
     * Low-load end-to-end latency CDF as (latency µs, cumulative
     * fraction) pairs, ascending; drawServiceUs interpolates it.
     */
    std::vector<std::pair<double, double>> latencyQuantilesUs;
    double meanLatencyUs = 0;
    /** Saturation throughput of one server (MRPS). */
    double capacityMrps = 0;
    /**
     * Requests one server works on concurrently: Little's law over
     * (capacityMrps, meanLatencyUs), floored at 1. This is the K of
     * the per-server M/G/K queue.
     */
    std::uint32_t concurrency = 1;
    unsigned numExecutors = 0;

    /** Inverse-CDF service-time draw (one uniform draw). */
    double drawServiceUs(sim::Rng &rng) const;
};

/** Calibration knobs. */
struct CalibrationConfig {
    /** External requests per calibration run. */
    std::uint64_t requests = 20000;
};

/**
 * Calibrate one server configuration: both runs own a private
 * WorkerServer and fan across @p pool (null = serial); the result is
 * byte-identical either way.
 */
ServerModel calibrateServer(const workloads::Workload &workload,
                            const runtime::WorkerConfig &worker,
                            const CalibrationConfig &cal,
                            par::ThreadPool *pool);

} // namespace jord::cluster

#endif // JORD_CLUSTER_SERVER_HH
