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
 * Every decision is a pure hash of (plan seed, request id, attempt,
 * site), never a draw from the simulation's RNG streams. Two
 * consequences the tests rely on:
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

/** A fault plan: default rates plus per-function (by name) overrides. */
struct FaultPlan {
    /** Injection seed; 0 means "derive from the worker's seed". */
    std::uint64_t seed = 0;
    FaultRates defaults;
    /** Function-name -> rates overrides (resolved at worker setup). */
    std::vector<std::pair<std::string, FaultRates>> byFunction;

    bool enabled() const;

    /**
     * Parse a plan spec. Grammar (clauses separated by ';', the first
     * clause is global, later ones are scoped to a function name):
     *
     *     crash=0.01,perm=0.002,spike=0.05,spikex=12,drop=0.01,seed=7
     *     crash=0.01;ReadPage:crash=0.2,drop=0.1
     *
     * Keys: crash, perm (ArgBuf violation), spike, spikex (multiplier),
     * drop, seed (global clause only). Exits via sim::fatal with a
     * pinpointed message on a malformed spec (unknown key,
     * out-of-range rate, duplicate function clause).
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

} // namespace jord::fault

#endif // JORD_FAULT_FAULT_HH
