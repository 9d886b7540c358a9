/**
 * @file
 * Deterministic fault injection for the simulated runtime.
 *
 * A FaultPlan describes *what* can go wrong — per-function crash
 * probability, ArgBuf permission-violation injections, latency-spike
 * (straggler) multipliers, and NightCore pipe drops. A FaultInjector is
 * the plan resolved against a worker's function registry; it answers
 * "does this attempt of this request fail, and where?".
 *
 * The plan's `cluster:` clause scales the same machinery to the fleet
 * (src/cluster): whole-server crashes with a Groundhog-style
 * snapshot-restore recovery cost per warm slot, gray (slow-but-alive)
 * degradation windows, and LB<->server link drops/delays. A
 * ClusterFaultInjector answers "does server S crash or run gray in
 * hazard window W?" and "is this dispatch's link message lost or
 * delayed?".
 *
 * Every decision is a pure hash of (plan seed, request id, attempt,
 * site) — or, for fleet events, (plan seed, server, window, site) —
 * never a draw from the simulation's RNG streams. Two consequences the
 * tests rely on:
 *
 *  - same-seed runs replay the exact same injections byte-identically,
 *    independent of event interleaving or how much randomness the
 *    workload itself consumes; and
 *  - a zero-rate plan is perfectly invisible: it consumes no RNG state,
 *    schedules no events, and leaves every existing run bit-for-bit
 *    unchanged.
 */

#ifndef JORD_FAULT_FAULT_HH
#define JORD_FAULT_FAULT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace jord::fault {

/** Injection rates for one function (all probabilities in [0, 1]). */
struct FaultRates {
    /** Invocation aborts partway through a compute segment. */
    double crash = 0;
    /**
     * The function touches memory beyond its ArgBuf bound; the UAT
     * raises a real hardware fault that the runtime must turn into an
     * abort (on NightCore this degenerates to a crash — a wild store
     * kills the process).
     */
    double argbufViolation = 0;
    /** Execution time multiplied by spikeMult (straggler model). */
    double spike = 0;
    /** NightCore only: the dispatch pipe write is lost. */
    double pipeDrop = 0;
    /** Multiplier applied to execution segments on a spike. */
    double spikeMult = 8.0;

    bool
    any() const
    {
        return crash > 0 || argbufViolation > 0 || spike > 0 ||
               pipeDrop > 0;
    }
};

/**
 * Fleet-scope injection rates (the plan's `cluster:` clause). Hazard
 * rates are per (server, window) Bernoulli draws over fixed windows of
 * @ref windowMs; link rates are per dispatched request copy.
 */
struct ClusterFaultRates {
    /** A server crashes in a hazard window with this probability. */
    double serverCrash = 0;
    /** Base reboot time after a crash, before pool recovery. */
    double restartMs = 5.0;
    /**
     * Groundhog-style snapshot-restore cost per warm PD slot: a
     * restarted server pays this for every slot it re-prewarms, so
     * recovery time grows with the pool state the crash destroyed.
     */
    double recoverUsPerSlot = 50.0;
    /** A server runs gray (slow-but-alive) in a hazard window with
     * this probability. */
    double gray = 0;
    /** Service-time multiplier while a server is gray. */
    double grayMult = 4.0;
    /** Hazard-window size for the crash/gray draws. */
    double windowMs = 1.0;
    /** LB->server dispatch message lost with this probability. */
    double linkDrop = 0;
    /** LB->server dispatch message delayed with this probability. */
    double linkDelay = 0;
    /** The added delay for a delayed dispatch. */
    double linkDelayUs = 200.0;
    /** Scripted gray: this server id is gray for the whole run
     * (-1 = none). Gives controlled one-gray-server experiments. */
    int grayServer = -1;
    /** Scripted mass crash: at crashAtMs, the first
     * ceil(crashFrac * fleet) servers crash simultaneously
     * (crashAtMs < 0 = none). Models a correlated failure taking out
     * a capacity fraction in one instant. */
    double crashAtMs = -1.0;
    double crashFrac = 0.5;

    bool
    any() const
    {
        return serverCrash > 0 || gray > 0 || linkDrop > 0 ||
               linkDelay > 0 || grayServer >= 0 || crashAtMs >= 0;
    }
};

/**
 * A fault plan: default rates plus per-function (by name) overrides,
 * plus fleet-scope rates for --cluster runs.
 */
struct FaultPlan {
    /** Injection seed; 0 means "derive from the worker's seed". */
    std::uint64_t seed = 0;
    FaultRates defaults;
    /** Function-name -> rates overrides (resolved at worker setup). */
    std::vector<std::pair<std::string, FaultRates>> byFunction;
    /** Fleet-scope events (only read by src/cluster). */
    ClusterFaultRates cluster;

    bool enabled() const;

    /**
     * Parse a plan spec. Grammar (clauses separated by ';', the first
     * clause is global, later ones may be scoped to a function name or
     * to the reserved `cluster` scope):
     *
     *     crash=0.01,perm=0.002,spike=0.05,spikex=12,drop=0.01,seed=7
     *     crash=0.01;ReadPage:crash=0.2,drop=0.1
     *     cluster:crash=0.02,gray=0.05,grayx=4,window_ms=1
     *
     * Function-clause keys: crash, perm (ArgBuf violation), spike,
     * spikex (multiplier), drop, seed (global clause only).
     * Cluster-clause keys: crash, restart_ms, recover_us, gray, grayx,
     * window_ms, drop, delay, delay_us, gray_server, crash_at_ms,
     * crash_frac. Exits via sim::fatal with a pinpointed message on a
     * malformed spec (unknown key, out-of-range rate, duplicate
     * function clause).
     */
    static FaultPlan parse(const std::string &spec);
};

/** What the injector decided for one invocation attempt. */
struct Decision {
    /** Compute segment that crashes (-1 = none). */
    int crashSegment = -1;
    /** Compute segment that raises the ArgBuf violation (-1 = none). */
    int violationSegment = -1;
    /** Fraction of the faulting segment executed before the abort. */
    double fraction = 0.5;
    /** Execution-time multiplier (1.0 = no spike). */
    double spikeMult = 1.0;

    bool
    any() const
    {
        return crashSegment >= 0 || violationSegment >= 0 ||
               spikeMult > 1.0;
    }
};

/**
 * A FaultPlan resolved against a function registry.
 */
class FaultInjector
{
  public:
    /** Disabled injector: enabled() is false, decisions are empty. */
    FaultInjector() = default;

    /**
     * Resolve @p plan against the deployed function names (indexed by
     * FunctionId). Unknown override names exit via sim::fatal.
     * @p fallback_seed is used when the plan's seed is 0.
     */
    void configure(const FaultPlan &plan,
                   const std::vector<std::string> &fn_names,
                   std::uint64_t fallback_seed);

    bool enabled() const { return enabled_; }

    /**
     * Decide the fate of one attempt. At most one of crash/violation
     * triggers; a spike may combine with either (a straggler can still
     * crash).
     */
    Decision decide(std::uint64_t req_id, unsigned attempt,
                    std::uint32_t fn, unsigned num_segments) const;

    /** NightCore pipe drop for this attempt's dispatch message? */
    bool pipeDrop(std::uint64_t req_id, unsigned attempt,
                  std::uint32_t fn) const;

    const FaultRates &
    ratesFor(std::uint32_t fn) const
    {
        return rates_[fn];
    }

  private:
    bool enabled_ = false;
    std::uint64_t seed_ = 0;
    std::vector<FaultRates> rates_;

    /** Uniform [0,1) from the decision-site hash. */
    double u(std::uint64_t req_id, unsigned attempt,
             unsigned site) const;
    std::uint64_t mix(std::uint64_t req_id, unsigned attempt,
                      unsigned site) const;
};

/** One contiguous gray run: @ref server is gray for every hazard
 * window in [beginWindow, endWindow). A scripted gray_server shows up
 * as one run spanning the whole horizon. */
struct GrayIncident {
    std::uint32_t server = 0;
    std::uint64_t beginWindow = 0;
    std::uint64_t endWindow = 0;
};

/**
 * The plan's fleet-scope rates resolved for one cluster run. Like
 * FaultInjector, every answer is a pure hash — (seed, server, hazard
 * window, site) for server events, (seed, request id, attempt, site)
 * for link events — so fleet chaos replays byte-identically across
 * same-seed runs and is invisible at zero rates.
 */
class ClusterFaultInjector
{
  public:
    /** Disabled injector: enabled() is false, nothing ever fails. */
    ClusterFaultInjector() = default;

    /** @p fallback_seed is used when the plan's seed is 0. */
    void configure(const FaultPlan &plan, std::uint64_t fallback_seed);

    bool enabled() const { return enabled_; }
    const ClusterFaultRates &rates() const { return rates_; }

    /** Does @p server crash in hazard window @p window? (Scripted
     * mass crashes are handled by the caller via rates().crashAtMs;
     * this is only the stochastic hazard.) */
    bool crashes(std::uint32_t server, std::uint64_t window) const;

    /** Fraction of the window elapsed before the crash fires. */
    double crashOffset(std::uint32_t server,
                       std::uint64_t window) const;

    /** Is @p server gray (service times x grayMult) in @p window? */
    bool grayWindow(std::uint32_t server, std::uint64_t window) const;

    /** Is this dispatch copy's LB->server message lost? */
    bool linkDrop(std::uint64_t req_id, unsigned attempt,
                  unsigned copy) const;

    /** Is this dispatch copy's LB->server message delayed? */
    bool linkDelay(std::uint64_t req_id, unsigned attempt,
                   unsigned copy) const;

    /**
     * Enumerate every gray run the plan fires over the first
     * @p num_windows hazard windows: a pure replay of grayWindow()
     * with adjacent gray windows on one server merged, ordered by
     * (server, beginWindow). This is exactly the ground truth the
     * observability plane logs as gray incidents.
     */
    std::vector<GrayIncident>
    grayIncidents(std::uint32_t num_servers,
                  std::uint64_t num_windows) const;

  private:
    bool enabled_ = false;
    std::uint64_t seed_ = 0;
    ClusterFaultRates rates_;

    double u(std::uint64_t a, std::uint64_t b, unsigned site) const;
};

} // namespace jord::fault

#endif // JORD_FAULT_FAULT_HH
