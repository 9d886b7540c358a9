/**
 * @file
 * Fleet observability plane: distributed request traces, windowed
 * telemetry, SLO burn-rate alerts, and ground-truth incident events.
 *
 * A FleetObserver is attached to one ClusterSim run (null by default:
 * every instrumentation site in the fleet simulator is a single
 * pointer test, so `--obs-*` off is byte-identical to a run without
 * the plane). When attached it collects, from the same serial
 * discrete-event stream the simulator already executes:
 *
 *  - **distributed request traces**: fleet span kinds (lb_decision,
 *    queue, cold_start, warm_hit, hedge_primary, hedge_loser,
 *    retry_attempt, breaker_shed) linked per request across servers
 *    on one named Chrome-trace track per server (track/pid s+1;
 *    track 0 is the front-end LB), so Perfetto renders the fleet
 *    timeline with labeled processes;
 *
 *  - **windowed telemetry**: a ring of per-server, per-tenant
 *    interval snapshots (arrivals, completions, shed, failed, SLO
 *    misses, cold starts, warm-pool size, time-weighted queue depth
 *    and occupancy, interval P50/P99 via Histogram merge) flushed
 *    every `--obs-interval-ms` and exported as a long-format CSV
 *    time series;
 *
 *  - an **SLO monitor**: per-tenant error budgets (1 - target
 *    attainment) and a multi-window burn-rate pair (fast 5-interval /
 *    slow 60-interval). An alert raises when *both* burn rates exceed
 *    the threshold — the fast window gives detection latency, the
 *    slow window suppresses one-interval blips — and clears when the
 *    fast rate falls back under it. Alerts are deterministic events:
 *    they land in the event stream, the fleet trace, and the metrics
 *    registry;
 *
 *  - **ground-truth incidents**: every chaos injection the fault
 *    plan actually fired (server crashes with their restart time,
 *    gray windows, link drops/delays) is logged as an incident event,
 *    so `tools/jordmon` can join alerts against what really happened
 *    and report detect latency, time-to-recover, and blast radius
 *    per incident.
 *
 * Determinism: the observer only reads the simulation (hooks carry
 * the current tick), keeps no wall-clock or hash-ordered state, and
 * emits every artifact in a fixed sort order — so all outputs are
 * byte-identical across same-seed runs at any `--jobs`.
 */

#ifndef JORD_OBS_OBS_HH
#define JORD_OBS_OBS_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "stats/histogram.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace jord::obs {

/** Observability-plane configuration (all off by default). */
struct ObsConfig {
    /** Telemetry window size; 0 = windowed stream, SLO monitor and
     * incident log off. */
    double intervalUs = 0;
    /** Capture the fleet span trace. */
    bool trace = false;
    /** SLO objective: target fraction of requests meeting their
     * tenant SLO. The error budget is 1 - target. */
    double sloTargetFrac = 0.99;
    /** Burn-rate window pair, in telemetry intervals. */
    unsigned burnFastWindows = 5;
    unsigned burnSlowWindows = 60;
    /** Alert when both window burn rates exceed this multiple of the
     * error budget. */
    double burnThreshold = 2.0;

    bool windowed() const { return intervalUs > 0; }
    bool enabled() const { return windowed() || trace; }
};

/** One tenant as the observer sees it. */
struct ObsTenant {
    std::string name;
    double sloUs = 0;
};

/** Per-server state snapshot the simulator hands to flushWindow(). */
struct ServerSnapshot {
    std::uint32_t queued = 0;
    std::uint32_t running = 0;
    /** Live (unexpired) warm PD slots across all tenants. */
    std::uint64_t warmSlots = 0;
};

/** One flushed telemetry row; tenant < 0 is the server aggregate. */
struct WindowRow {
    std::uint64_t window = 0;
    sim::Tick startTick = 0;
    sim::Tick endTick = 0;
    std::uint32_t server = 0;
    std::int32_t tenant = -1;
    std::uint64_t arrivals = 0;
    std::uint64_t completions = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    std::uint64_t sloMiss = 0;
    std::uint64_t coldStarts = 0;
    std::uint64_t warmSlots = 0;
    /** Time-weighted mean outstanding (aggregate rows only). */
    double queueDepth = 0;
    /** queueDepth / server concurrency (aggregate rows only). */
    double occupancy = 0;
    double p50Us = 0;
    double p99Us = 0;
};

/** Event-stream record kinds (incidents and alerts). */
enum class EventKind : std::uint8_t {
    Crash,     ///< server crash; end = restart (ground truth)
    Gray,      ///< gray window run on a server (ground truth)
    LinkDrop,  ///< one dispatch message lost (ground truth)
    LinkDelay, ///< one dispatch message delayed (ground truth)
    AlertRaise,///< SLO monitor raised a tenant alert
    AlertClear,///< SLO monitor cleared a tenant alert
};

/** One incident or alert event. */
struct Event {
    sim::Tick startTick = 0;
    sim::Tick endTick = 0;
    EventKind kind = EventKind::Crash;
    /** Server id, -1 for fleet/tenant-scoped events. */
    std::int32_t server = -1;
    /** Tenant index, -1 for server-scoped events. */
    std::int32_t tenant = -1;
    /** Alert burn rate at raise/clear; 0 for incidents. */
    double value = 0;
};

/**
 * The observability plane for one fleet run. See the file comment.
 */
class FleetObserver
{
  public:
    FleetObserver(const ObsConfig &cfg, unsigned num_servers,
                  std::vector<ObsTenant> tenants, unsigned concurrency,
                  double freq_ghz);

    FleetObserver(const FleetObserver &) = delete;
    FleetObserver &operator=(const FleetObserver &) = delete;

    const ObsConfig &config() const { return cfg_; }

    /** Telemetry window length in ticks (0 unless windowed). The
     * simulator schedules its flush ticks on this period so window
     * boundaries line up exactly with flushWindow() calls. */
    sim::Tick windowTicks() const { return windowTicks_; }

    // --- Request-path hooks (called by ClusterSim) ------------------

    /** Admitted arrival routed to @p server. */
    void onArrival(sim::Tick now, std::uint64_t req,
                   std::uint32_t tenant, std::uint32_t server,
                   bool measured);
    /** Arrival shed at admission (cap or open breaker). */
    void onShed(sim::Tick now, std::uint32_t tenant,
                std::uint32_t server, bool breaker);
    /** Copy entered a server's admission queue. */
    void onQueue(sim::Tick now, std::uint64_t req, unsigned copy,
                 std::uint32_t server);
    /** Copy started executing (cold = paid a cold start). */
    void onStart(sim::Tick now, std::uint64_t req, unsigned copy,
                 std::uint32_t server, std::uint32_t tenant,
                 bool cold);
    /** Copy completed; resolves the request. */
    void onComplete(sim::Tick now, std::uint64_t req, unsigned copy,
                    std::uint32_t server, std::uint32_t tenant,
                    std::uint64_t latency_ns, bool slo_miss);
    /** Request written off (final failure; no twin, no retry). */
    void onFailed(sim::Tick now, std::uint64_t req,
                  std::uint32_t tenant, std::uint32_t server);
    /** Hedge copy dispatched to @p server. */
    void onHedge(sim::Tick now, std::uint64_t req,
                 std::uint32_t server);
    /** Losing hedge copy cancelled on @p server. */
    void onHedgeLoser(sim::Tick now, std::uint64_t req, unsigned copy,
                      std::uint32_t server);
    /** Retry attempt @p attempt redispatched to @p server. */
    void onRetry(sim::Tick now, std::uint64_t req, unsigned attempt,
                 std::uint32_t server);
    /** A server's outstanding count changed (queue-depth gauge). */
    void onOutstanding(sim::Tick now, std::uint32_t server,
                       std::uint32_t outstanding);

    // --- Ground-truth incident hooks --------------------------------

    void onCrash(sim::Tick now, std::uint32_t server);
    void onRestart(sim::Tick now, std::uint32_t server);
    /** Pre-enumerated gray run [start, end) on @p server. */
    void onGrayRun(sim::Tick start, sim::Tick end,
                   std::uint32_t server);
    void onLinkDrop(sim::Tick now, std::uint64_t req,
                    std::uint32_t server);
    void onLinkDelay(sim::Tick now, std::uint64_t req,
                     std::uint32_t server);

    // --- Window boundary / end of run -------------------------------

    /**
     * Close the current telemetry window at @p now. @p snap holds one
     * entry per server (instantaneous queue/running/warm state). Runs
     * the SLO monitor on the flushed window.
     */
    void flushWindow(sim::Tick now, const std::vector<ServerSnapshot> &snap);

    /** Flush the trailing partial window and close open incidents. */
    void finalize(sim::Tick end, const std::vector<ServerSnapshot> &snap);

    // --- Artifacts --------------------------------------------------

    /** The fleet span trace (null unless config().trace). */
    const trace::Tracer *tracer() const { return tracer_.get(); }

    const std::vector<WindowRow> &windows() const { return rows_; }
    const std::vector<Event> &events() const { return events_; }

    /** Long-format telemetry CSV (one row per window x server, plus
     * per-tenant rows where the tenant had activity). */
    void writeWindowsCsv(std::ostream &out) const;

    /** Incident/alert event CSV, sorted by time. */
    void writeEventsCsv(std::ostream &out) const;

    /** Register end-of-run obs counters (alert/incident/window
     * totals) into @p registry under the `obs.` prefix. */
    void attachMetrics(trace::MetricsRegistry &registry) const;

    double freqGhz() const { return freqGhz_; }
    unsigned numServers() const { return numServers_; }
    const std::vector<ObsTenant> &tenants() const { return tenants_; }

  private:
    /** Per-(server, tenant) window accumulators. The counters are
     * cumulative; the flush takes window deltas via intervalReset()
     * so end-of-run totals survive for attachMetrics(). */
    struct Cell {
        trace::Counter arrivals;
        trace::Counter completions;
        trace::Counter shed;
        trace::Counter failed;
        trace::Counter sloMiss;
        trace::Counter coldStarts;
        stats::Histogram latNs;
    };

    /** Per-server time-integral of outstanding (queue depth). */
    struct DepthGauge {
        double integral = 0;
        sim::Tick last = 0;
        std::uint32_t cur = 0;
    };

    /** Per-tenant burn-rate ring entry: one flushed window. */
    struct BurnSample {
        std::uint64_t errors = 0;
        std::uint64_t arrivals = 0;
    };

    /** Per-request trace state (keyed lookups only, never iterated). */
    struct ReqTrace {
        trace::SpanId span = 0;
        sim::Tick enq[2] = {0, 0};
        sim::Tick run[2] = {0, 0};
        bool queued[2] = {false, false};
        bool running[2] = {false, false};
        bool cold[2] = {false, false};
    };

    Cell &cell(std::uint32_t server, std::uint32_t tenant)
    {
        return cells_[server * tenants_.size() + tenant];
    }
    unsigned serverTrack(std::uint32_t server) const
    {
        return server + 1;
    }
    double burnRate(const std::deque<BurnSample> &ring,
                    unsigned windows) const;
    void instant(const char *name, unsigned track, sim::Tick now,
                 std::uint64_t req, std::int32_t fn = -1);

    ObsConfig cfg_;
    unsigned numServers_;
    std::vector<ObsTenant> tenants_;
    unsigned concurrency_;
    double freqGhz_;
    sim::Tick windowTicks_ = 0;

    std::unique_ptr<trace::Tracer> tracer_;
    std::unordered_map<std::uint64_t, ReqTrace> reqs_;

    std::vector<Cell> cells_;
    std::vector<DepthGauge> depth_;
    std::vector<WindowRow> rows_;
    std::uint64_t window_ = 0;
    sim::Tick windowStart_ = 0;

    // SLO monitor.
    std::vector<std::deque<BurnSample>> burnRing_;
    std::vector<char> alerting_;

    // Incidents.
    std::vector<Event> events_;
    std::vector<sim::Tick> crashOpenAt_;
    static constexpr sim::Tick kNoTick = ~static_cast<sim::Tick>(0);

    // End-of-run totals.
    std::uint64_t alertsRaised_ = 0;
    std::uint64_t alertsCleared_ = 0;
    std::uint64_t incidents_ = 0;
};

} // namespace jord::obs

#endif // JORD_OBS_OBS_HH
