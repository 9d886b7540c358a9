/**
 * @file
 * Instruments: the one instrumentation channel of a worker server.
 *
 * WorkerServer owns one Instruments object. It holds the optional
 * observers (the JordSan checker, the simulated PMU, the sampling
 * profiler and the span tracer) and turns each event of the worker
 * model into the update every attached observer needs. The coherence
 * engine, the UAT hardware and PrivLib report to it as their
 * probe::Probe; WorkerServer calls its runtime events directly.
 * Adding an observer is an edit to this class alone.
 *
 * While no observer is attached the worker and its layers hold a null
 * pointer instead of this object, so an uninstrumented run tests one
 * pointer per site and is byte-identical to an instrumented one.
 *
 * Call order is part of the output: span ids follow emission order, so
 * each event updates its observers in a fixed order and the worker
 * emits events where it always has.
 */

#ifndef JORD_RUNTIME_INSTRUMENTS_HH
#define JORD_RUNTIME_INSTRUMENTS_HH

#include <cstdint>
#include <string>

#include "check/check.hh"
#include "probe/probe.hh"
#include "runtime/request.hh"
#include "sim/machine.hh"
#include "trace/trace.hh"

namespace jord::prof {
class Pmu;
class Profiler;
} // namespace jord::prof

namespace jord::runtime {

/** How an external request left the worker. */
enum class Settled : std::uint8_t { Completed, Shed, Failed, TimedOut };

/**
 * The worker's instrumentation multiplexer.
 */
class Instruments final : public probe::Probe
{
  public:
    explicit Instruments(const sim::MachineConfig &machine);

    Instruments(const Instruments &) = delete;
    Instruments &operator=(const Instruments &) = delete;

    // --- Observers (each optional, null to detach) ------------------

    void setChecker(check::Checker *checker) { checker_ = checker; }
    /** Also hands the tracer to the checker for violation stacks. */
    void setTracer(trace::Tracer *tracer);
    void setPmu(prof::Pmu *pmu) { pmu_ = pmu; }
    void setProfiler(prof::Profiler *profiler) { profiler_ = profiler; }

    trace::Tracer *tracer() const { return tracer_; }
    prof::Pmu *pmu() const { return pmu_; }

    /** True while any observer is attached. */
    bool attached() const;

    // --- Runtime events (WorkerServer) ------------------------------

    /** An external request arrived at orchestrator @p core; returns
     * its lifecycle span (0 when not traced). */
    trace::SpanId requestArrived(const Request &req,
                                 const std::string &fn, unsigned core,
                                 sim::Tick now);
    /** An external request completed, was shed, failed or timed out
     * at @p done; closes its lifecycle span. */
    void requestSettled(const Request &req, Settled how, unsigned core,
                        sim::Tick done);
    /** A span of @p dur cycles of work on behalf of @p req. */
    void span(const char *name, trace::Category cat, unsigned core,
              sim::Tick start, sim::Cycles dur, const Request &req,
              trace::SpanId parent);
    /** Orchestrator @p core scanned its executors' queue lengths. */
    void dispatchScan(unsigned core, sim::Cycles scan);
    /** An invocation of @p req began on @p core; returns its span. */
    trace::SpanId invocationBegun(const Request &req,
                                  const std::string &fn, unsigned core,
                                  sim::Tick start, trace::SpanId parent);
    /** @p inv finished on @p core; @p queueWait is the service time
     * no breakdown category charged (0 unless measured and ok). */
    void invocationEnded(const Invocation &inv, unsigned core,
                         sim::Tick now, sim::Cycles queueWait);
    /** A failed attempt of @p req is retried after @p delay. */
    void retry(const Request &req, unsigned core, sim::Tick start,
               sim::Cycles delay);
    void argBufMapped(sim::Addr va, std::uint64_t bytes,
                      RequestId req);
    void argBufFreed(sim::Addr va);
    /** @p req (span @p span) runs on @p core until cleared. */
    void coreContext(unsigned core, RequestId req, trace::SpanId span);
    void clearCoreContext(unsigned core);
    /** The run's first arrival is queued. */
    void runBegin();
    /** The run drained after @p ticks of simulated time. */
    void runEnd(sim::Tick ticks);

    // --- probe::Probe: events several observers read ----------------

    void onCoherenceAccess(unsigned core, const mem::Access &acc,
                           unsigned home, unsigned hops) override;
    void onVlbUse(unsigned core, bool isInstr, sim::Addr vteAddr,
                  uat::PdId pd) override;
    void onVlbMiss(unsigned core, bool isInstr) override;
    void onVtwWalk(unsigned core, sim::Cycles latency,
                   unsigned depth) override;
    void onVtdLookup(unsigned core) override;
    void onShootdown(sim::Addr vteAddr, unsigned writerCore,
                     const std::vector<unsigned> &targets,
                     sim::Cycles fanout, bool remote,
                     bool pessimistic) override;
    void onBackInvalidate(sim::Addr vteAddr,
                          const std::vector<unsigned> &targets) override;
    void onFenceWait(unsigned core, sim::Cycles cycles) override;

    // --- probe::Probe: events only JordSan reads --------------------

    void
    onAccess(unsigned core, sim::Addr va, uat::Perm need, uat::PdId pd,
             bool corePriv, bool isFetch, bool uatEnabled,
             uat::Fault actual) override
    {
        check().onAccess(core, va, need, pd, corePriv, isFetch,
                         uatEnabled, actual);
    }

    void
    onVlbFill(unsigned core, bool isInstr,
              const uat::VlbEntry &entry) override
    {
        check().onVlbFill(core, isInstr, entry);
    }

    void onGateAdded(sim::Addr va) override { check().onGateAdded(va); }

    void
    onVmaMapped(unsigned core, uat::PdId pd, sim::Addr base,
                std::uint64_t len, uat::Perm prot, sim::Addr vteAddr,
                const uat::Vte &vte) override
    {
        check().onVmaMapped(core, pd, base, len, prot, vteAddr, vte);
    }

    void
    onVmaUnmapped(unsigned core, sim::Addr base) override
    {
        check().onVmaUnmapped(core, base);
    }

    void
    onVmaProtected(unsigned core, uat::PdId pd, sim::Addr base,
                   std::uint64_t newLen, uat::Perm prot,
                   const uat::Vte &vte) override
    {
        check().onVmaProtected(core, pd, base, newLen, prot, vte);
    }

    void
    onPermMoved(unsigned core, sim::Addr base, uat::PdId src,
                uat::PdId dst, uat::Perm prot,
                const uat::Vte &vte) override
    {
        check().onPermMoved(core, base, src, dst, prot, vte);
    }

    void
    onPermCopied(unsigned core, sim::Addr base, uat::PdId src,
                 uat::PdId dst, uat::Perm prot,
                 const uat::Vte &vte) override
    {
        check().onPermCopied(core, base, src, dst, prot, vte);
    }

    void
    onPdCreated(uat::PdId pd, uat::PdId creator) override
    {
        check().onPdCreated(pd, creator);
    }

    void onPdDestroyed(uat::PdId pd) override { check().onPdDestroyed(pd); }

    void
    onDomainEnter(unsigned core, uat::PdId pd) override
    {
        check().onDomainEnter(core, pd);
    }

    void
    onDomainExit(unsigned core, uat::PdId pd) override
    {
        check().onDomainExit(core, pd);
    }

  private:
    sim::Cycles l1HitCycles_;

    check::Checker *checker_ = nullptr;
    /** Stands in for an absent checker: every callback is a no-op. */
    probe::Probe noChecker_;
    prof::Pmu *pmu_ = nullptr;
    prof::Profiler *profiler_ = nullptr;
    trace::Tracer *tracer_ = nullptr;

    /** The PMU's Noc bucket of the walking core when the current VTW
     * walk began (walks never nest). */
    std::uint64_t walkNocMark_ = 0;

    /** The checker's probe callbacks, or no-ops without a checker. */
    probe::Probe &check() { return checker_ ? *checker_ : noChecker_; }
};

} // namespace jord::runtime

#endif // JORD_RUNTIME_INSTRUMENTS_HH
