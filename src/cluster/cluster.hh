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
 * The fleet can also run under chaos: the fault plan's `cluster:`
 * clause (fault/fault.hh) injects server crashes (warm pools lost,
 * restart pays a Groundhog-style snapshot-restore cost per re-warmed
 * slot), gray degradation windows, and LB<->server link drops and
 * delays. ResilienceConfig enables the mechanisms that react:
 * heartbeat health checking, LB outlier ejection, hedged requests,
 * a fleet-wide retry budget, and per-(server,tenant) circuit
 * breakers. Every request resolves as exactly one of completed, shed,
 * or failed, so `generated == completed + shed + failed` holds under
 * any fault plan (the chaos bench's conservation gate).
 *
 * Determinism: one ClusterSim run is a pure function of
 * (ClusterConfig, ServerModel). All randomness flows through three
 * seeded streams (traffic, LB dispatch, service draws) plus the fault
 * plan's pure-hash decisions, every event tie fires in schedule order
 * (sim::EventQueue), and the calibration feeding the ServerModel fans
 * across the host pool under the DESIGN.md §9 contract — so fleet
 * results are byte-identical at any --jobs and across same-seed runs,
 * and a zero-rate fault plan leaves them bit-for-bit unchanged.
 */

#ifndef JORD_CLUSTER_CLUSTER_HH
#define JORD_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "cluster/lb.hh"
#include "cluster/server.hh"
#include "cluster/traffic.hh"
#include "fault/fault.hh"
#include "sim/event_queue.hh"
#include "stats/histogram.hh"
#include "stats/sampler.hh"

namespace jord::trace {
class MetricsRegistry;
} // namespace jord::trace

namespace jord::obs {
class FleetObserver;
struct ServerSnapshot;
} // namespace jord::obs

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

/**
 * Fault-tolerance mechanisms (all off by default; with every field at
 * its default the simulation is byte-identical to a fault-free run).
 */
struct ResilienceConfig {
    /** Hedge: dispatch a second copy of a still-outstanding request to
     * a distinct server after this delay; first completion wins, the
     * loser is cancelled (0 = off). */
    double hedgeUs = 0;
    /** Hedges are capped at this fraction of generated primaries.
     * Without the cap hedging is bistable: any transient that pushes
     * latency past hedgeUs (a cold-start burst, a crash backlog) makes
     * every request hedge, and the doubled load keeps latency above
     * the trigger forever. */
    double hedgeBudgetFrac = 0.1;
    /** LB outlier ejection: at every control tick, eject active
     * servers whose interval P99 exceeds ejectMult x the fleet median.
     * Re-admission after a probation of control ticks, doubling with
     * each consecutive re-ejection so a persistently slow server
     * spends vanishing time in the fleet. */
    bool outlierEject = false;
    double ejectMult = 3.0;
    /** Fleet-wide retry budget: failed requests are retried only while
     * total retries stay under this fraction of generated primaries,
     * so a retry storm cannot amplify overload (0 = retries off). */
    double retryBudgetFrac = 0;
    /** Heartbeat health checking: the LB stops routing to a server
     * after consecutive missed beats and re-admits it on the first
     * beat after restart. Without it the LB keeps dispatching to dead
     * servers and loses those requests. */
    bool healthCheck = false;
    /** Per-(server,tenant) circuit breaker: breakerThreshold
     * consecutive failures open the breaker for a cooldown; arrivals
     * routed to an open breaker are shed at admission. */
    bool breaker = false;
    unsigned breakerThreshold = 8;

    bool
    any() const
    {
        return hedgeUs > 0 || outlierEject || retryBudgetFrac > 0 ||
               healthCheck || breaker;
    }
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
    ResilienceConfig resilience;
    /** Only the plan's `cluster:` clause and seed are read here;
     * function-scope clauses are worker-only. */
    fault::FaultPlan faultPlan;
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
    std::uint64_t failed = 0;
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
    std::uint64_t failed = 0;
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
    /** Requests lost to crashes or link drops and not recovered by a
     * hedge or retry (generated == completed + shed + failed). */
    std::uint64_t failed = 0;
    std::uint64_t coldStarts = 0;
    std::uint64_t retries = 0;
    std::uint64_t hedges = 0;
    /** Completions where the hedge copy beat the primary. */
    std::uint64_t hedgeWins = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t ejections = 0;
    std::uint64_t breakerOpens = 0;
    /** Arrivals shed because their (server,tenant) breaker was open
     * (included in `shed`). */
    std::uint64_t breakerShed = 0;
    /** First crash to the fleet being fully up with outstanding back
     * at its pre-crash level: 0 = no crash, -1 = never recovered. */
    double timeToRecoverUs = 0;
    /** In-window requests that missed their SLO or failed, as a
     * fraction of in-window arrivals. */
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

    /**
     * Attach the observability plane (must happen before run()). Null
     * by default; every instrumentation site is one pointer test, so
     * an unobserved run is byte-identical to a build without the
     * plane.
     */
    void setObserver(obs::FleetObserver *obs) { obs_ = obs; }

    /** The fleet's event queue (bench instrumentation: events/sec). */
    sim::EventQueue &eventQueue() { return events_; }

    /** The fleet SLO in µs: ClusterConfig::sloUs, or the §5 rule over
     * the calibrated mean latency when that is 0. */
    double sloUs() const { return sloUs_; }
    /** Servers the fleet can ever hold: numServers, or the
     * autoscaler's ceiling when that is higher. */
    unsigned maxServers() const { return maxServers_; }

    ClusterResult run();

  private:
    /** Lifecycle of one dispatched copy of a request. */
    enum CopyState : std::uint8_t {
        CopyNone = 0, ///< never dispatched
        CopyQueued,   ///< in a server's admission queue
        CopyInFlight, ///< link-delayed, not yet at the server
        CopyRunning,  ///< executing; completion event pending
        CopyLost,     ///< lost (crash / link drop); detection pending
        CopyDead,     ///< resolved: completed, cancelled, or failed
    };

    struct Copy {
        std::uint32_t server = 0;
        /** Pending event handle (completion, delayed enqueue, or
         * failure detection — depending on state). */
        std::uint64_t ev = 0;
        std::uint8_t state = CopyNone;
    };

    /** Per-request state, kept while any event or queue entry still
     * references its table slot (refs counts those) and freed after. */
    struct ReqState {
        /** Request id, in arrival order: names the request to the
         * observer and keys the fault plan's link hashes. */
        std::uint64_t id = 0;
        sim::Tick arrival = 0;
        std::uint64_t session = 0;
        std::uint64_t hedgeEv = 0;
        std::uint32_t tenant = 0;
        int refs = 0;
        std::uint8_t attempt = 0;
        bool done = false;
        /** Taken and not yet freed: keeps maybeFree from listing a
         * slot on freeReqs_ twice. */
        bool live = false;
        Copy copies[2];
    };

    /** A queued copy: request table slot and copy index. */
    struct QEntry {
        std::uint32_t req;
        std::uint8_t copy;
    };

    struct Server {
        /** Receiving traffic (in the LB's active set). */
        bool inFleet = false;
        /** Accruing cost; a draining server is powered on but out of
         * the fleet until its last request completes. */
        bool poweredOn = false;
        /** Crashed and not yet restarted. */
        bool down = false;
        /** Ejected by the LB outlier detector (on probation). */
        bool ejected = false;
        std::uint32_t running = 0;
        std::deque<QEntry> queue;
        /** copyKey(req, copy) of the running copies, in start order,
         * so a crash kills them deterministically. */
        std::vector<std::uint64_t> runningCopies;
        /** Per-tenant warm PD-slot expiry ticks (ascending). */
        std::vector<std::deque<sim::Tick>> warm;
        stats::Histogram latencyNs;
        /** Interval latencies for outlier ejection (reset per control
         * tick; only recorded when ejection is enabled). */
        stats::Sampler intervalUs;
        std::uint64_t completed = 0;
        std::uint64_t shed = 0;
        std::uint64_t failed = 0;
        std::uint64_t coldStarts = 0;
        unsigned missedBeats = 0;
        unsigned probation = 0;
        /** Consecutive ejections without a clean interval between
         * them; drives the probation backoff. */
        unsigned ejectStreak = 0;
        sim::Tick poweredOnAt = 0;
        std::uint64_t poweredTicks = 0;
    };

    struct Breaker {
        unsigned fails = 0;
        sim::Tick openUntil = 0;
    };

    static constexpr sim::Tick kNoTick = ~static_cast<sim::Tick>(0);

    /** One copy of one request as a single word: request table slot
     * and copy index. Event closures capture it next to `this`, well
     * inside sim::EventFn's inline budget. */
    static std::uint64_t
    copyKey(std::uint32_t r, unsigned copy)
    {
        return static_cast<std::uint64_t>(r) << 1 | copy;
    }
    static std::uint32_t
    keyReq(std::uint64_t key)
    {
        return static_cast<std::uint32_t>(key >> 1);
    }
    static unsigned
    keyCopy(std::uint64_t key)
    {
        return static_cast<unsigned>(key & 1);
    }

    void pumpArrival();
    void onArrival(const Arrival &arrival);
    /** Take a request table slot for a new request. */
    std::uint32_t allocReq();
    void dispatchCopy(std::uint32_t r, unsigned copy, std::uint32_t s);
    void enqueueCopy(std::uint32_t r, unsigned copy, std::uint32_t s);
    /** Mark a copy lost and schedule its failure detection. */
    void scheduleDetection(std::uint32_t r, unsigned copy);
    void tryStart(std::uint32_t s);
    void copyCompleted(std::uint32_t r, unsigned copy);
    void copyFailed(std::uint32_t r, unsigned copy);
    void resolveLoser(std::uint32_t r, unsigned copy);
    void hedgeFire(std::uint32_t r);
    void scheduleFaultEvents();
    void crashServer(std::uint32_t s);
    void restartServer(std::uint32_t s);
    void heartbeatTick();
    void outlierTick();
    void checkRecovered();
    void maybeFree(std::uint32_t r);
    double grayFactor(std::uint32_t s) const;
    const std::vector<std::uint32_t> &routable();
    bool breakerOpen(std::uint32_t s, std::uint32_t tenant) const;
    void breakerResult(std::uint32_t s, std::uint32_t tenant, bool ok);
    void controlTick();
    /** Telemetry window boundary: snapshot the fleet, flush, and
     * reschedule while work remains. */
    void obsTick();
    /** Instantaneous per-server queue/running/warm-slot state for the
     * observer (non-mutating: expired warm slots are counted out, not
     * popped). */
    void obsSnapshot(std::vector<obs::ServerSnapshot> &snap) const;
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
    const ResilienceConfig &res_;
    double freqGhz_;
    double sloUs_ = 0;
    sim::Tick warmupTicks_ = 0;
    sim::Tick keepAliveTicks_ = 0;
    sim::Tick windowTicks_ = 0;
    sim::Tick failDetectTicks_ = 0;
    sim::Tick hedgeTicks_ = 0;
    sim::Tick breakerCooldownTicks_ = 0;
    /** The LB view is filtered (health / ejection) only when a
     * mechanism that feeds it is on; otherwise it aliases active_. */
    bool useView_ = false;

    sim::EventQueue events_;

    TrafficSource source_;
    LoadBalancer lb_;
    sim::Rng lbRng_;
    sim::Rng serviceRng_;
    fault::ClusterFaultInjector injector_;
    obs::FleetObserver *obs_ = nullptr;

    std::vector<Server> servers_;
    /** Fleet membership for the LB, ascending server ids. */
    std::vector<std::uint32_t> active_;
    /** Per-server outstanding (queued + running), LB's load view. */
    std::vector<std::uint32_t> outstanding_;
    /** LB health view (heartbeat detector); 1 = routable. */
    std::vector<char> healthy_;
    std::vector<std::uint32_t> viewScratch_;
    std::vector<std::uint32_t> hedgeScratch_;
    std::uint32_t totalOutstanding_ = 0;
    bool arrivalsDone_ = false;
    /** The one arrival pumpArrival() keeps scheduled. */
    Arrival nextArrival_;

    /**
     * Request table: a slab indexed by slot, never iterated. A request
     * takes a slot at admission and returns it to freeReqs_ once no
     * event or queue entry references it, so the table holds only the
     * requests in flight; a copy awaiting failure detection pins its
     * own slot, not every request admitted after it. Slots travel in
     * QEntry, runningCopies and the event closures.
     */
    std::vector<ReqState> table_;
    std::vector<std::uint32_t> freeReqs_;
    /** Breaker per (server, tenant), at s * numTenants + tenant. */
    std::vector<Breaker> breakers_;
    std::uint64_t nextReqId_ = 0;

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

    // Chaos accounting.
    std::uint64_t failed_ = 0;
    std::uint64_t failedWindow_ = 0;
    std::uint64_t retries_ = 0;
    std::uint64_t hedges_ = 0;
    std::uint64_t hedgeWins_ = 0;
    std::uint64_t crashes_ = 0;
    std::uint64_t restarts_ = 0;
    std::uint64_t ejections_ = 0;
    std::uint64_t breakerOpens_ = 0;
    std::uint64_t breakerShed_ = 0;
    unsigned downCount_ = 0;
    sim::Tick firstCrashTick_ = kNoTick;
    sim::Tick ttrTicks_ = kNoTick;
    std::uint32_t outstandingAtCrash_ = 0;

    // Measured-window accumulators.
    std::uint64_t generated_ = 0;
    std::uint64_t generatedWindow_ = 0;
    std::uint64_t completedWindow_ = 0;
    std::uint64_t sloOkWindow_ = 0;
    std::vector<stats::Sampler> tenantLatencyUs_;
    std::vector<std::uint64_t> tenantCompleted_;
    std::vector<std::uint64_t> tenantShed_;
    std::vector<std::uint64_t> tenantFailed_;
    std::vector<std::uint64_t> tenantSloOk_;

    ClusterResult result_;
};

/**
 * Register a finished fleet run's statistics into @p registry. Every
 * name carries a `cluster.server<k>.` / `cluster.tenant.<name>.`
 * prefix, so N servers sharing one registry stay distinguishable
 * (the registry's find-or-create lookup would otherwise silently sum
 * same-named metrics).
 */
void attachClusterMetrics(const ClusterResult &result,
                          trace::MetricsRegistry &registry);

} // namespace jord::cluster

#endif // JORD_CLUSTER_CLUSTER_HH
