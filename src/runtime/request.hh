/**
 * @file
 * Requests and invocations: the units of work flowing through a worker.
 *
 * A Request is what sits in orchestrator/executor queues (external from
 * the load generator, internal from nested jord::call/async). An
 * Invocation is the execution state of a dispatched request on its
 * executor: the continuation of §3.4, with its protection domain,
 * private stack/heap VMA, remaining compute segments, and outstanding
 * children.
 */

#ifndef JORD_RUNTIME_REQUEST_HH
#define JORD_RUNTIME_REQUEST_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/types.hh"
#include "uat/fault.hh"
#include "uat/vte.hh"

namespace jord::runtime {

/** How an invocation (or, transitively, a request) ended. */
enum class Outcome : std::uint8_t {
    Ok,          ///< completed normally
    Crashed,     ///< injected crash mid-segment
    Faulted,     ///< hardware fault (UAT permission violation)
    ChildFailed, ///< a nested ccall failed; the failure propagated up
    TimedOut,    ///< deadline expired before completion
};

inline const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Ok: return "ok";
      case Outcome::Crashed: return "crashed";
      case Outcome::Faulted: return "faulted";
      case Outcome::ChildFailed: return "child_failed";
      case Outcome::TimedOut: return "timed_out";
    }
    return "?";
}

/**
 * A pending function-invocation request. Fields are ordered by size so
 * that a queued request packs into 80 bytes.
 */
struct Request {
    RequestId id = 0;
    /** Entered the orchestrator (external) / was submitted (internal). */
    sim::Tick arrival = 0;
    /** First arrival across retries (== arrival on attempt 0); the
     * end-to-end latency of a retried request spans all attempts. */
    sim::Tick firstArrival = 0;
    /** Absolute deadline tick (0 = no deadline configured). */
    sim::Tick deadline = 0;
    /** Dispatch decision latency charged to this request (Fig. 11). */
    sim::Cycles dispatchCycles = 0;
    /** ArgBuf VMA base (0 under NightCore, which uses pipes). */
    sim::Addr argBuf = 0;
    std::uint64_t argBytes = 0;
    FunctionId fn = 0;
    /** Retry attempt (0 = first try). */
    unsigned attempt = 0;
    /** Orchestrator that owns this request. */
    unsigned orch = 0;
    /** Lifecycle span covering arrival -> response (0 = not traced). */
    std::uint32_t span = 0;
    /** PD currently holding the ArgBuf permission (root for external,
     * the parent's PD for nested requests); the ArgBuf is returned to
     * this PD when the invocation completes. */
    uat::PdId argOwner = 0;
    /** A nested call (jord::call/async) rather than an external
     * request from the load generator. */
    bool internal = false;
    /** Counts toward metrics (post-warmup root request). */
    bool measured = false;
};

/** A completed child's response, waiting to be consumed by the parent. */
struct ChildResult {
    sim::Addr argBuf = 0;
    std::uint64_t argBytes = 0;
    /** The child did not produce a response (it crashed, faulted or
     * timed out); the ArgBuf (if any) carries no valid data. */
    bool failed = false;
};

/** Why an invocation is not currently running. */
enum class InvState {
    Running,   ///< occupying its executor
    Suspended, ///< cexit'd, waiting for children
    Resumable, ///< children done, waiting for the executor
    Done,
};

/**
 * The continuation of one function invocation (§3.4).
 */
struct Invocation {
    /** The request it serves. The request lives in the worker's request
     * table, whose records never move, and does not change while the
     * invocation is live. */
    const Request *req = nullptr;
    /** The request's slot in that table. */
    std::uint32_t reqSlot = 0;
    /** Executor (index into the worker's executor array). */
    unsigned exec = 0;
    InvState state = InvState::Running;

    // --- Jord isolation state ---
    uat::PdId pd = 0;
    sim::Addr stackHeapVma = 0;

    // --- Execution progress ---
    /** Compute segments between call points (spec.calls.size() + 1). */
    std::vector<sim::Cycles> segments;
    /** Next call to issue == next segment to run. */
    unsigned nextCall = 0;
    /** Children issued but not yet completed. */
    unsigned pendingChildren = 0;
    /** Resume when pendingChildren <= this threshold. */
    unsigned resumeThreshold = 0;
    /** Completed children whose responses are unread. */
    std::vector<ChildResult> childResults;

    // --- Failure state ---
    Outcome outcome = Outcome::Ok;
    /** Hardware fault behind Outcome::Faulted (None otherwise). */
    uat::Fault fault = uat::Fault::None;
    /** Deadline fired while this invocation was live; abort at the
     * next scheduling point (segment boundary or resume). */
    bool timedOut = false;
    /** Abort decided while children are outstanding; the executor
     * waits for them (they hold ArgBufs in this PD) and reclaims at
     * resume time. */
    bool abortPending = false;
    /** The prologue ran (there is isolation state to reclaim). */
    bool prologueDone = false;
    /** Injected-fault decision for this attempt (-1 = none). */
    int crashSeg = -1;
    int violationSeg = -1;
    /** Fraction of the faulting segment executed before the abort. */
    double injectFrac = 0.5;

    // --- Accounting ---
    sim::Tick serviceStart = 0; ///< dequeued by the executor
    sim::Tick suspendedAt = 0;
    Breakdown bd;
    /** Invoke span covering the service window (0 = not traced). */
    std::uint32_t span = 0;

    /** Reset every field for a new invocation, keeping the vectors'
     * capacity. */
    void
    recycle()
    {
        std::vector<sim::Cycles> kept_segments = std::move(segments);
        std::vector<ChildResult> kept_results = std::move(childResults);
        *this = Invocation{};
        segments = std::move(kept_segments);
        segments.clear();
        childResults = std::move(kept_results);
        childResults.clear();
    }
};

} // namespace jord::runtime

#endif // JORD_RUNTIME_REQUEST_HH
