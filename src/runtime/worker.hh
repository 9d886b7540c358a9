/**
 * @file
 * WorkerServer: a complete Jord (or baseline) worker server (Fig. 3).
 *
 * Assembles the machine model (mesh, coherence, UAT hardware, PrivLib,
 * kernel), partitions cores into orchestrators and executors, and runs
 * open-loop Poisson workloads through the Fig. 4 invocation flow. The
 * same class models all four evaluated systems (§5): Jord, Jord_NI
 * (isolation bypassed), Jord_BT (B-tree VMA table) and the enhanced
 * NightCore baseline (pipes instead of zero-copy ArgBufs).
 */

#ifndef JORD_RUNTIME_WORKER_HH
#define JORD_RUNTIME_WORKER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "baseline/nightcore.hh"
#include "check/check.hh"
#include "fault/fault.hh"
#include "mem/coherence.hh"
#include "noc/mesh.hh"
#include "os/kernel.hh"
#include "privlib/privlib.hh"
#include "prof/pmu.hh"
#include "prof/profiler.hh"
#include "runtime/instruments.hh"
#include "runtime/registry.hh"
#include "runtime/request.hh"
#include "runtime/slot_table.hh"
#include "sim/arrivals.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "stats/sampler.hh"
#include "uat/btree_table.hh"
#include "uat/uat_system.hh"

namespace jord::runtime {

/** Worker-server configuration. */
struct WorkerConfig {
    sim::MachineConfig machine = sim::MachineConfig::isca25Default();
    SystemKind system = SystemKind::Jord;
    /** Orchestrator threads; the rest of the cores run executors.
     * Nested invocations are dispatched by orchestrators too (§3.3),
     * so communication-heavy workloads need several of them. */
    unsigned numOrchestrators = 4;
    /**
     * With multiple sockets, pin one orchestrator group per socket and
     * dispatch only within it (the §6.3 mitigation). When false a
     * single orchestrator may manage executors across sockets (used to
     * measure the Fig. 14 dispatch curve).
     */
    bool perSocketOrchestrators = true;
    /** JBSQ bound: max outstanding external requests per executor. */
    unsigned jbsqBound = 3;
    /** Memory-level parallelism of the dispatch queue-length scan. */
    unsigned dispatchMlp = 8;
    std::uint64_t seed = 42;
    baseline::ProvisioningModel provisioning;

    // --- Failure handling (all disabled by default: with a zero-rate
    // plan, no timeout and no shed cap, runs are byte-identical to a
    // build without this subsystem) ---
    /** Deterministic fault-injection plan (default: inject nothing). */
    fault::FaultPlan faultPlan;
    /** Per-request deadline in µs (0 = no deadline). */
    double timeoutUs = 0;
    /** Retry budget per external request (0 = fail immediately). */
    unsigned maxRetries = 0;
    /** Base retry delay, doubled per attempt (exponential backoff). */
    double retryBackoffUs = 20.0;
    /** Max queued external requests per orchestrator before shedding
     * (0 = never shed). Internal queues are never shed (§3.3). */
    std::size_t shedCap = 0;

    /**
     * JordSan checker families to enable (all disabled by default;
     * with no family enabled no checker is constructed and runs are
     * byte-identical to a build without the subsystem).
     */
    check::CheckConfig check;
};

/** Weighted entry-point mix for external requests. */
using EntryMix = std::vector<std::pair<FunctionId, double>>;

/** Results of one load run. */
struct RunResult {
    double offeredMrps = 0;
    double achievedMrps = 0;
    /** End-to-end request latency (µs), measured window only. */
    stats::Sampler latencyUs;
    /** Per-invocation service time (µs), dequeue -> completion. */
    stats::Sampler serviceUs;
    /** Per-function service-time samplers (µs), by FunctionId. */
    std::vector<stats::Sampler> perFunctionServiceUs;
    /** Per-function overhead breakdowns, summed over invocations. */
    std::vector<Breakdown> perFunctionBreakdown;
    std::vector<std::uint64_t> perFunctionCount;
    /** Aggregate breakdown over all invocations. */
    Breakdown totals;
    std::uint64_t invocations = 0;
    std::uint64_t completedRequests = 0;
    /** Requests that exhausted their retry budget on a crash/fault. */
    std::uint64_t failedRequests = 0;
    /** Requests whose deadline expired (terminal, after retries). */
    std::uint64_t timedOutRequests = 0;
    /** Requests shed at admission by the external-queue cap. */
    std::uint64_t shedRequests = 0;
    /** Retry attempts issued (counts re-dispatches, not requests). */
    std::uint64_t retries = 0;
    /** Invocations aborted (injected fault, timeout, or child failure);
     * not counted in `invocations`, which keeps its meaning of
     * successful invocation executions. */
    std::uint64_t abortedInvocations = 0;
    /** Faults the injector actually fired (crashes + violations). */
    std::uint64_t faultsInjected = 0;
    /** Time-to-failure (µs, arrival -> terminal failure). */
    stats::Sampler failedUs;
    /** Time-to-timeout (µs, arrival -> deadline verdict). */
    stats::Sampler timedOutUs;
    /** Backoff delays of issued retries (µs). */
    stats::Sampler retryDelayUs;
    /** Mean executor busy fraction over the measured window. */
    double executorUtilization = 0;
    /** Dispatch-decision latency samples (ns), Fig. 14. */
    stats::Sampler dispatchNs;
    /** VLB shootdown fan-out latency samples (ns), Fig. 14. */
    stats::Sampler shootdownNs;
};

/**
 * The worker server.
 */
class WorkerServer : public prof::SampleSource
{
  public:
    WorkerServer(WorkerConfig cfg, FunctionRegistry registry);
    ~WorkerServer() override;

    WorkerServer(const WorkerServer &) = delete;
    WorkerServer &operator=(const WorkerServer &) = delete;

    /**
     * Run an open-loop Poisson load.
     *
     * @param mrps Offered load in million requests per second.
     * @param num_requests External requests to generate.
     * @param mix Entry-function mix (weights need not sum to 1).
     * @param warmup_frac Fraction of requests excluded from metrics.
     */
    RunResult run(double mrps, std::uint64_t num_requests,
                  const EntryMix &mix, double warmup_frac = 0.2);

    // --- Component access (tests, benches) ---
    sim::EventQueue &eventQueue() { return events_; }
    mem::CoherenceEngine &coherence() { return *coherence_; }
    uat::UatSystem &uat() { return *uat_; }
    privlib::PrivLib &privlib() { return *privlib_; }
    os::Kernel &kernel() { return *kernel_; }
    FunctionRegistry &registry() { return registry_; }
    const WorkerConfig &config() const { return cfg_; }
    unsigned numExecutors() const
    {
        return static_cast<unsigned>(execs_.size());
    }

    /**
     * Worst-case dispatch-scan latency in ns: orchestrator 0 reads the
     * queue-length line of every executor it manages, all of which have
     * been written since its last scan (the loaded steady state of
     * Fig. 14's dispatch series).
     */
    double measureDispatchScanNs();

    /**
     * Attach (or detach, with nullptr) a span tracer. The tracer's
     * clock is bound to this worker's event queue; request/invocation
     * lifecycle spans, per-category busy spans and hardware spans are
     * emitted while attached.
     *
     * Every observer (tracer, PMU, profiler, JordSan) is
     * reached through the worker's one Instruments object; while none
     * is attached, each instrumentation site tests one null pointer.
     */
    void setTracer(trace::Tracer *tracer);
    trace::Tracer *tracer() const { return instruments_.tracer(); }

    /** The fault injector resolved from cfg.faultPlan (tests). */
    const fault::FaultInjector &faultInjector() const { return injector_; }

    /**
     * Backoff delay before retry number @p attempt (attempt >= 1):
     * retryBackoffUs doubled per prior attempt, capped to avoid
     * overflow. Exposed so tests can assert the schedule.
     */
    sim::Cycles retryDelayCycles(unsigned attempt) const;

    /** ArgBuf VMAs currently mapped by the runtime (leak checker). */
    std::uint64_t liveArgBufs() const { return liveArgBufs_; }

    /** The JordSan checker (null unless cfg.check enables a family). */
    check::Checker *checker() const { return checker_.get(); }

    /**
     * Attach (or detach, with nullptr) the simulated PMU. It counts
     * events of the coherence engine, UAT, PrivLib and runtime at zero
     * simulated latency, so a detached run is byte-identical.
     */
    void setPmu(prof::Pmu *pmu);
    prof::Pmu *pmu() const { return instruments_.pmu(); }

    /** Attach a sampling profiler; run() arms it after resetting the
     * event queue so sampling covers the whole run. */
    void setProfiler(prof::Profiler *profiler);

    /** prof::SampleSource: snapshot per-core + global state. */
    void profSample(std::vector<prof::CoreSample> &cores,
                    prof::GlobalSample &global) override;

  private:
    /** No slot: an empty queue end, or no invocation. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /**
     * A request from its creation until it settles, in requests_. An
     * external request keeps its slot across every attempt, so its
     * deadline timer lives here; an internal one keeps it until its
     * result reaches the parent. Queues and event closures carry the
     * slot. The request id stays the simulated identity.
     */
    struct RequestSlot {
        Request req;
        /** Next slot in the queue holding this request. */
        std::uint32_t next = kNoSlot;
        /** Invocation serving the current attempt, while it is live. */
        std::uint32_t inv = kNoSlot;
        /** The parent's invocation slot (internal requests); a parent
         * outlives its outstanding children. */
        std::uint32_t parentInv = kNoSlot;
        /** Pending deadline timer (0 = none). */
        std::uint64_t deadlineEv = 0;
    };

    /** A FIFO of request slots linked through RequestSlot::next. A
     * request sits in at most one queue at a time. */
    struct SlotQueue {
        std::uint32_t head = kNoSlot;
        std::uint32_t tail = kNoSlot;
        std::uint32_t size = 0;

        bool empty() const { return size == 0; }
    };

    struct ExecState {
        unsigned core = 0;
        unsigned orch = 0;
        /** Dispatched requests not yet started. */
        SlotQueue queue;
        /** Requests whose suspended invocation may continue. */
        SlotQueue resumable;
        bool busy = false;
        sim::Addr queueLine = 0;
        /** Invocation the executor is working on (kNoSlot = none);
         * host-only bookkeeping for profiler stack samples. */
        std::uint32_t running = kNoSlot;
    };

    struct OrchState {
        unsigned core = 0;
        SlotQueue external;
        SlotQueue internal;
        /** Completed external requests awaiting response processing. */
        SlotQueue completions;
        std::vector<unsigned> execs; ///< executor indices it manages
        bool dispatching = false;
        unsigned rr = 0; ///< tie-break rotation
        sim::Addr completionLine = 0;
    };

    WorkerConfig cfg_;
    FunctionRegistry registry_;
    sim::EventQueue events_;
    sim::Rng rng_;
    std::unique_ptr<noc::Mesh> mesh_;
    std::unique_ptr<mem::CoherenceEngine> coherence_;
    std::unique_ptr<uat::VmaTableBase> table_;
    std::unique_ptr<uat::UatSystem> uat_;
    /** JordSan shadow-model checker (must outlive uat_/privlib_ use,
     * constructed before privlib_ so bootstrap VMAs are observed). */
    std::unique_ptr<check::Checker> checker_;
    std::unique_ptr<os::Kernel> kernel_;
    std::unique_ptr<privlib::PrivLib> privlib_;

    std::vector<OrchState> orchs_;
    std::vector<ExecState> execs_;
    /**
     * The JBSQ state a dispatch scan reads, in flat arrays indexed by
     * executor, so a scan reads an ExecState only to re-read a changed
     * line. outstanding_ counts each executor's queued plus running
     * requests. Executor e's dirty_ words start at e * orchWords_; bit
     * o says orchestrator o has not re-read e's queue-length line since
     * it last changed.
     */
    std::vector<unsigned> outstanding_;
    std::vector<std::uint64_t> dirty_;
    unsigned orchWords_ = 1;

    /** Requests and started invocations by slot. Chunks stay well
     * under glibc's 128 KiB mmap threshold. */
    SlotTable<RequestSlot, 256> requests_;
    SlotTable<Invocation, 128> invocations_;

    // Failure handling.
    fault::FaultInjector injector_;
    sim::Cycles timeoutCycles_ = 0;
    /** Runtime-mapped ArgBuf VMAs not yet munmapped (leak invariant). */
    std::uint64_t liveArgBufs_ = 0;

    RequestId nextRequestId_ = 1;
    std::uint64_t externalLeft_ = 0;
    /** Open-loop Poisson gap generator (sim/arrivals.hh); rebuilt by
     * run() from the offered load. */
    sim::PoissonArrivals arrivals_{0};
    EntryMix mix_;
    double mixTotal_ = 0;
    unsigned rrOrch_ = 0;

    // Measurement window control.
    std::uint64_t warmupRequests_ = 0;
    std::uint64_t generated_ = 0;
    sim::Tick windowStart_ = 0;
    RunResult *result_ = nullptr;

    // NightCore provisioning state.
    std::vector<unsigned> ntcConcurrency_;
    std::vector<unsigned> ntcProvisioned_;

    /** Runtime (executor/orchestrator) code VMA for I-VLB behaviour. */
    sim::Addr runtimeCodeVma_ = 0;

    /** The observers; instr_ points at it (and so do the layers'
     * probes) only while at least one is attached. */
    Instruments instruments_;
    Instruments *instr_ = nullptr;

    bool isJordFamily() const { return cfg_.system != SystemKind::NightCore; }
    bool isolated() const { return cfg_.system == SystemKind::Jord ||
                                   cfg_.system == SystemKind::JordBT; }

    // --- Load generation ---
    void scheduleNextArrival();
    void onExternalArrival();
    FunctionId sampleEntry();

    // --- Request slots and queues ---
    /** Take a request slot holding a default request. */
    std::uint32_t newRequest();
    void push(SlotQueue &queue, std::uint32_t r);
    std::uint32_t pop(SlotQueue &queue);
    /** Unlink @p r from @p queue; false if it is not there. */
    bool unlink(SlotQueue &queue, std::uint32_t r);
    /** The invocation of @p slot's parent (internal requests). */
    Invocation &parentOf(const RequestSlot &slot)
    {
        return invocations_[slot.parentInv];
    }

    // --- Orchestrator ---
    /** Admit request @p r to the queue of its orchestrator. */
    void orchEnqueue(std::uint32_t r);
    void orchDispatchStep(unsigned orch);
    sim::Cycles dispatchScan(OrchState &orch, unsigned orch_idx,
                             unsigned &chosen);
    /** Mark an executor's queue-length line dirty for every orch. */
    void markDirty(unsigned exec);
    /** Next round-robin orchestrator on @p socket. */
    unsigned pickOrch(unsigned socket);
    unsigned m_socketOfCore(unsigned core) const;

    // --- Executor ---
    void execWake(unsigned exec);
    void execStep(unsigned exec);
    void startInvocation(unsigned exec, std::uint32_t r);
    void resumeInvocation(unsigned exec, std::uint32_t i);
    /**
     * Run the invocation from its current point until it suspends or
     * finishes; returns busy cycles consumed. Child submissions are
     * scheduled at their in-run offsets. @p at is the simulated time at
     * which this stretch of work begins (used only for span
     * timestamps; scheduling is unchanged).
     */
    sim::Cycles runUntilBlocked(Invocation &inv, sim::Tick at);
    sim::Cycles invocationPrologue(Invocation &inv, sim::Tick at);
    sim::Cycles invocationEpilogue(Invocation &inv, sim::Tick at);
    /**
     * Leave and destroy a Jord/JordBT invocation's PD on @p core: exit
     * through the gate, hand the input ArgBuf back to its owner, revoke
     * the code permission, free the stack/heap and cput the PD. The
     * epilogue charges the returned cycles as pd_teardown; an abort adds
     * them to abort.reclaim.
     */
    sim::Cycles pdTeardown(Invocation &inv, unsigned core);
    sim::Cycles issueChild(Invocation &inv, const CallSpec &call,
                           sim::Cycles offset, sim::Tick at);
    /** @p child_failed is set when any consumed result is a failure. */
    sim::Cycles consumeChildResults(Invocation &inv, sim::Tick at,
                                    bool &child_failed);
    void finishInvocation(std::uint32_t i);
    /** Hand internal request @p r's result to its parent and release
     * the request. */
    void deliverChildResult(std::uint32_t r, ChildResult result);
    void onChildComplete(Invocation &parent, ChildResult result);
    /** Shared completion callback of start/resumeInvocation. */
    void scheduleExecCompletion(unsigned exec, std::uint32_t i,
                                sim::Cycles busy);

    // --- Failure handling ---
    /**
     * Tear down an aborted invocation's isolation state, mirroring the
     * epilogue without the response write-back: free unconsumed child
     * ArgBufs, return the input ArgBuf to its owner, revoke code, free
     * stack/heap, destroy the PD. @p in_pd says whether the executor is
     * still inside the invocation's PD (abort mid-segment) or back in
     * root (abort at resume). Returns busy cycles.
     */
    sim::Cycles abortReclaim(Invocation &inv, sim::Tick at, bool in_pd);
    /** Deadline timer for external request @p r fired. */
    void onDeadline(std::uint32_t r);
    /** Cancel request @p r's deadline timer and release its slot. */
    void settle(std::uint32_t r);
    /**
     * An external request's attempt ended in failure: retry it (with
     * backoff) if budget remains, otherwise record the terminal outcome
     * and release its resources. The caller must already have released
     * the attempt's invocation, if it had one. @p busy is the caller's
     * accumulated busy offset (retries are scheduled after it); the
     * return value is additional busy cycles spent here (ArgBuf release
     * on a terminal failure).
     */
    sim::Cycles settleFailedAttempt(std::uint32_t r, Outcome outcome,
                                    sim::Cycles busy);
    /** Terminal failure accounting (measured window + observers); then
     * settle the request. */
    void recordTerminalFailure(std::uint32_t r, Outcome outcome,
                               sim::Tick done);
    /** Post-run invariant: no live PDs, ArgBufs, queue entries. */
    void verifyQuiescent();

    // --- Shared helpers ---
    sim::Cycles touchArgBuf(unsigned core, sim::Addr va,
                            std::uint64_t bytes, bool write);
    /** Map a fresh ArgBuf for request @p req into the calling core's
     * PD; adds the mmap latency to @p busy. */
    sim::Addr mapArgBuf(unsigned core, std::uint64_t bytes,
                        RequestId req, sim::Cycles &busy);
    /** munmap a runtime-owned ArgBuf; returns the latency. */
    sim::Cycles freeArgBuf(unsigned core, sim::Addr va,
                           std::uint64_t bytes);
    sim::Cycles drawExec(const FunctionSpec &spec);
    /** Record a measured invocation in the run result; returns the
     * service cycles no breakdown category charged. */
    sim::Cycles accountInvocation(Invocation &inv);
    unsigned coreOfExec(unsigned exec) const { return execs_[exec].core; }

    // --- Observability helpers (cheap no-ops when nothing attached) ---
    /** Point instr_ and every layer's probe at instruments_ while any
     * observer is attached, else at null. */
    void rewireProbe();
    /**
     * Charge @p cycles of @p inv's work from @p start to its breakdown
     * category @p cat (Exec..Pipe; Runtime work is unattributed) and
     * emit the matching span, so the two cannot drift apart.
     */
    void charge(Invocation &inv, trace::Category cat, const char *name,
                unsigned core, sim::Tick start, sim::Cycles cycles);
    /** Span parent of work for @p slot's request: its request span,
     * or the parent invocation's span for a nested request. */
    trace::SpanId parentSpan(const RequestSlot &slot);
};

} // namespace jord::runtime

#endif // JORD_RUNTIME_WORKER_HH
