/**
 * @file
 * Fleet-scale simulation: N worker servers behind a front-end LB.
 *
 * ClusterSim is a serial discrete-event simulation of a fleet of
 * calibrated worker servers (cluster/server.hh) behind a load
 * balancer (cluster/lb.hh), driven by an open-loop traffic model
 * (cluster/traffic.hh) and managed by a function-placement /
 * autoscaling controller. Each server is an M/G/K queue with a warm
 * PD pool per tenant: requests that find no warm slot pay a cold
 * start, completions keep slots warm for a keep-alive window, and the
 * controller prewarms pools and scales the active server set on queue
 * occupancy or SLO burn with hysteresis (distinct high/low
 * thresholds plus a cooldown).
 *
 * A request has one lifecycle: it arrives, the LB picks a server, and
 * the server sheds it at admission or queues it; it then starts on a
 * free executor and completes once. So `generated == completed +
 * shed` once the run drains.
 *
 * Determinism: one ClusterSim run is a pure function of
 * (ClusterConfig, ServerModel). All randomness flows through three
 * seeded streams (traffic, LB dispatch, service draws), every event
 * tie fires in schedule order (sim::EventQueue), and the calibration
 * feeding the ServerModel fans across the host pool under the
 * DESIGN.md §9 contract — so fleet results are byte-identical at any
 * --jobs and across same-seed runs.
 */

#ifndef JORD_CLUSTER_CLUSTER_HH
#define JORD_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "cluster/lb.hh"
#include "cluster/server.hh"
#include "cluster/traffic.hh"
#include "sim/event_queue.hh"
#include "stats/histogram.hh"
#include "stats/sampler.hh"

namespace jord::cluster {

/** Autoscaling-controller policy; its thresholds, control interval
 * and cooldown are constants in cluster.cc. */
struct AutoscalePolicy {
    bool enabled = false;
    unsigned minServers = 1;
    /** 0 = the cluster's numServers. */
    unsigned maxServers = 0;
};

/** Warm PD-pool / cold-start model (per server, per tenant); the
 * cold-start cost and keep-alive window are constants in cluster.cc. */
struct ColdStartPolicy {
    /** Slots the controller prewarms per (server, tenant) at every
     * control tick (0 = no prewarming; pools then only grow through
     * completions). */
    unsigned prewarm = 4;
};

/** Fleet configuration. */
struct ClusterConfig {
    /** Per-server configuration; calibration runs the real simulator
     * on it (cluster/server.hh). */
    runtime::WorkerConfig worker;
    CalibrationConfig calibration;
    unsigned numServers = 4;
    LbPolicy lb = LbPolicy::Random2;
    TrafficConfig traffic;
    AutoscalePolicy autoscale;
    ColdStartPolicy coldStart;
    /** Per-server outstanding-request cap: arrivals dispatched to a
     * server already holding this many are shed at admission, the
     * fleet-level mirror of WorkerConfig::shedCap (0 = never shed). */
    std::uint32_t serverQueueCap = 0;
    /** Fleet SLO in µs; 0 derives the §5 rule from calibration
     * (workloads::kSloMultiplier x the low-load mean latency). Tenants
     * scale it by their sloMultiplier. */
    double sloUs = 0;
    std::uint64_t seed = 42;
};

/** Per-server results. */
struct ServerStats {
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t coldStarts = 0;
    double p99Us = 0;
    /** Powered-on simulated time (cost contribution). */
    double activeSeconds = 0;
};

/** Per-tenant results (measured window). */
struct TenantStats {
    std::string name;
    double sloUs = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    double p99Us = 0;
    /** Fraction of completions that met this tenant's SLO. */
    double sloAttainment = 0;
};

/** One autoscaler action (or the initial state at t = 0). */
struct ScaleEvent {
    double atUs = 0;
    unsigned activeServers = 0;
};

/** Results of one fleet run. */
struct ClusterResult {
    double offeredMrps = 0;
    double achievedMrps = 0;
    /** Completions that met their tenant SLO, per measured µs. */
    double goodputMrps = 0;
    double meanUs = 0;
    double p50Us = 0;
    double p99Us = 0;
    /** Integrated powered-on server time (the cost metric). */
    double costServerSeconds = 0;
    double sloUs = 0;
    std::uint64_t generated = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t coldStarts = 0;
    /** Always 0: a fleet request never fails, retries or hedges. They
     * stay because perfbench's fleet digest reads them. */
    std::uint64_t failed = 0;
    std::uint64_t retries = 0;
    std::uint64_t hedges = 0;
    /** In-window completions that missed their SLO, as a fraction of
     * in-window arrivals. */
    double sloBurn = 0;
    std::vector<ServerStats> servers;
    std::vector<TenantStats> tenants;
    /** Initial state plus every autoscaler action, in time order. */
    std::vector<ScaleEvent> scaleEvents;
    unsigned finalActiveServers = 0;
};

/**
 * The fleet simulator. One instance runs once.
 */
class ClusterSim
{
  public:
    ClusterSim(const ClusterConfig &cfg, const ServerModel &model);

    ClusterSim(const ClusterSim &) = delete;
    ClusterSim &operator=(const ClusterSim &) = delete;

    /** The fleet's event queue (bench instrumentation: events/sec). */
    sim::EventQueue &eventQueue() { return events_; }

    ClusterResult run();

  private:
    /** A queued request: all the state it carries until it starts. */
    struct QEntry {
        sim::Tick arrival;
        std::uint32_t tenant;
    };

    struct Server {
        /** Receiving traffic (in the LB's active set). */
        bool inFleet = false;
        /** Accruing cost; a draining server is powered on but out of
         * the fleet until its last request completes. */
        bool poweredOn = false;
        std::uint32_t running = 0;
        std::deque<QEntry> queue;
        /** Per-tenant warm PD-slot expiry ticks (ascending). */
        std::vector<std::deque<sim::Tick>> warm;
        stats::Histogram latencyNs;
        std::uint64_t completed = 0;
        std::uint64_t shed = 0;
        std::uint64_t coldStarts = 0;
        sim::Tick poweredOnAt = 0;
        std::uint64_t poweredTicks = 0;
    };

    void pumpArrival();
    void onArrival(const Arrival &arrival);
    void tryStart(std::uint32_t s);
    /** A request of @p tenant that arrived at @p arrival finished on
     * server @p s. */
    void complete(std::uint32_t s, std::uint32_t tenant,
                  sim::Tick arrival);
    void controlTick();
    void accrueOccupancy();
    void powerOn(std::uint32_t s);
    void beginDrain(std::uint32_t s);
    void powerOff(std::uint32_t s);
    void recordScaleEvent();
    bool inWindow(sim::Tick arrival) const
    {
        return arrival >= warmupTicks_;
    }

    const ClusterConfig &cfg_;
    const ServerModel &model_;
    double freqGhz_;
    double sloUs_ = 0;
    sim::Tick warmupTicks_ = 0;
    sim::Tick keepAliveTicks_ = 0;

    sim::EventQueue events_;

    TrafficSource source_;
    LoadBalancer lb_;
    sim::Rng lbRng_;
    sim::Rng serviceRng_;

    std::vector<Server> servers_;
    /** Fleet membership for the LB, ascending server ids. */
    std::vector<std::uint32_t> active_;
    /** Per-server outstanding (queued + running), LB's load view. */
    std::vector<std::uint32_t> outstanding_;
    std::uint32_t totalOutstanding_ = 0;
    bool arrivalsDone_ = false;
    /** The one arrival pumpArrival() keeps scheduled. */
    Arrival nextArrival_;

    // Autoscaler state. Occupancy is time-integrated over the control
    // interval (outstanding-requests x ticks), not sampled at the
    // tick: an instantaneous sample near a threshold flaps on Poisson
    // noise, the interval average does not.
    unsigned maxServers_ = 0;
    unsigned cooldown_ = 0;
    std::uint64_t intervalCompleted_ = 0;
    std::uint64_t intervalSloMiss_ = 0;
    std::uint64_t outstandingIntegral_ = 0;
    sim::Tick lastOccupancyUpdate_ = 0;
    sim::Tick intervalStart_ = 0;

    // Measured-window accumulators.
    std::uint64_t generated_ = 0;
    std::uint64_t generatedWindow_ = 0;
    std::uint64_t completedWindow_ = 0;
    std::uint64_t sloOkWindow_ = 0;
    std::vector<stats::Sampler> tenantLatencyUs_;
    std::vector<std::uint64_t> tenantCompleted_;
    std::vector<std::uint64_t> tenantShed_;
    std::vector<std::uint64_t> tenantSloOk_;

    ClusterResult result_;
};

/**
 * Flat `cluster.*` summary of a finished fleet run, for
 * prof::writeFlatJson / jordprof: the fleet totals, then one
 * `cluster.server<k>.` and one `cluster.tenant.<name>.` group per
 * server and tenant.
 */
std::map<std::string, double> summaryJson(const ClusterResult &result);

} // namespace jord::cluster

#endif // JORD_CLUSTER_CLUSTER_HH
