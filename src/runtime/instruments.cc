#include "runtime/instruments.hh"

#include "mem/coherence.hh"
#include "prof/pmu.hh"
#include "prof/profiler.hh"

namespace jord::runtime {

using prof::PmuBucket;
using prof::PmuCounter;
using sim::Addr;
using sim::Cycles;
using sim::Tick;
using trace::Category;

namespace {

/** Span attribution for a request. */
trace::SpanArgs
spanArgs(const Request &req)
{
    trace::SpanArgs args;
    args.req = req.id;
    args.fn = static_cast<std::int32_t>(req.fn);
    args.measured = req.measured;
    return args;
}

} // namespace

Instruments::Instruments(const sim::MachineConfig &machine)
    : l1HitCycles_(machine.l1HitCycles)
{
}

bool
Instruments::attached() const
{
    return checker_ || pmu_ || profiler_ || tracer_;
}

void
Instruments::setTracer(trace::Tracer *tracer)
{
    tracer_ = tracer;
    if (checker_)
        checker_->setTracer(tracer);
}

// --- Runtime events ---------------------------------------------------------

trace::SpanId
Instruments::requestArrived(const Request &req, const std::string &fn,
                            unsigned core, Tick now)
{
    // The request lifecycle span stays open until the orchestrator
    // processes the response; nested invoke spans parent into it.
    return tracer_ ? tracer_->begin(fn, Category::Request, core, now, 0,
                                    spanArgs(req))
                   : 0;
}

void
Instruments::requestSettled(const Request &req, Settled how,
                            unsigned core, Tick done)
{
    if (!tracer_ || !req.span)
        return;
    static constexpr const char *kOutcome[] = {
        nullptr, "outcome.shed", "outcome.failed", "outcome.timeout"};
    if (how != Settled::Completed)
        tracer_->complete(kOutcome[static_cast<unsigned>(how)],
                          Category::Runtime, core, done, 0, req.span,
                          spanArgs(req));
    tracer_->end(req.span, done);
}

void
Instruments::span(const char *name, Category cat, unsigned core,
                  Tick start, Cycles dur, const Request &req,
                  trace::SpanId parent)
{
    if (tracer_)
        tracer_->complete(name, cat, core, start, dur, parent,
                          spanArgs(req));
}

void
Instruments::dispatchScan(unsigned core, Cycles scan)
{
    if (!pmu_)
        return;
    pmu_->add(core, PmuCounter::DispatchScans);
    pmu_->charge(core, PmuBucket::DispatchWait, scan);
}

trace::SpanId
Instruments::invocationBegun(const Request &req, const std::string &fn,
                             unsigned core, Tick start,
                             trace::SpanId parent)
{
    return tracer_ ? tracer_->begin(fn, Category::Invoke, core, start,
                                    parent, spanArgs(req))
                   : 0;
}

void
Instruments::invocationEnded(const Invocation &inv, unsigned core,
                             Tick now, Cycles queueWait)
{
    if (tracer_ && inv.span)
        tracer_->end(inv.span, now);
    if (pmu_)
        pmu_->add(core, PmuCounter::QueueWaitCycles, queueWait);
}

void
Instruments::retry(const Request &req, unsigned core, Tick start,
                   Cycles delay)
{
    if (req.span)
        span("retry", Category::Runtime, core, start, delay, req,
             req.span);
}

void
Instruments::argBufMapped(Addr va, std::uint64_t bytes, RequestId req)
{
    if (checker_)
        checker_->argBufMapped(va, bytes, req);
}

void
Instruments::argBufFreed(Addr va)
{
    if (checker_)
        checker_->argBufFreed(va);
}

void
Instruments::coreContext(unsigned core, RequestId req, trace::SpanId span)
{
    if (checker_)
        checker_->setCoreContext(core, req, span);
}

void
Instruments::clearCoreContext(unsigned core)
{
    if (checker_)
        checker_->clearCoreContext(core);
}

void
Instruments::runBegin()
{
    if (pmu_)
        pmu_->reset();
    if (profiler_)
        profiler_->arm();
}

void
Instruments::runEnd(Tick ticks)
{
    if (pmu_)
        pmu_->finalize(ticks);
    if (checker_)
        checker_->onRunEnd();
}

// --- probe::Probe -----------------------------------------------------------

void
Instruments::onCoherenceAccess(unsigned core, const mem::Access &acc,
                               unsigned /* home */, unsigned hops)
{
    if (!pmu_)
        return;
    pmu_->add(core, PmuCounter::RetiredOps);
    if (acc.l1Hit) {
        pmu_->add(core, PmuCounter::L1Hits);
        return;
    }
    if (acc.llcHit)
        pmu_->add(core, PmuCounter::LlcHits);
    else
        pmu_->add(core, PmuCounter::DramFills);
    pmu_->add(core, PmuCounter::NocMsgs, acc.messages);
    pmu_->add(core, PmuCounter::NocHops,
              static_cast<std::uint64_t>(hops) * acc.messages);
    // The cycles beyond the L1 probe stalled on cross-core traffic.
    pmu_->charge(core, PmuBucket::Noc, acc.latency - l1HitCycles_);
}

void
Instruments::onVlbUse(unsigned core, bool isInstr, Addr vteAddr,
                      uat::PdId pd)
{
    if (pmu_) {
        pmu_->add(core, PmuCounter::RetiredOps);
        pmu_->add(core,
                  isInstr ? PmuCounter::VlbIHits : PmuCounter::VlbDHits);
    }
    check().onVlbUse(core, isInstr, vteAddr, pd);
}

void
Instruments::onVlbMiss(unsigned core, bool isInstr)
{
    if (!pmu_)
        return;
    pmu_->add(core, PmuCounter::RetiredOps);
    pmu_->add(core,
              isInstr ? PmuCounter::VlbIMisses : PmuCounter::VlbDMisses);
    // The walk's table-block reads charge their NoC stall cycles to the
    // Noc bucket as they happen; mark it so onVtwWalk can reclassify
    // those cycles as VTW-walk time.
    walkNocMark_ = pmu_->bucket(core, PmuBucket::Noc);
}

void
Instruments::onVtwWalk(unsigned core, Cycles latency, unsigned depth)
{
    if (pmu_) {
        // The rest of the walk latency (overhead + L1-hit reads) is
        // VLB-miss stall, so the miss's attributed total is exactly
        // its latency.
        pmu_->add(core, PmuCounter::VtwWalks);
        pmu_->add(core, PmuCounter::VtwWalkDepth, depth);
        std::uint64_t moved =
            pmu_->bucket(core, PmuBucket::Noc) - walkNocMark_;
        pmu_->reclassify(core, PmuBucket::Noc, PmuBucket::VtwWalk,
                         moved);
        pmu_->charge(core, PmuBucket::VlbMissStall, latency - moved);
    }
    if (tracer_)
        tracer_->complete("vtw_walk", Category::Hw, core, tracer_->now(),
                          latency);
}

void
Instruments::onVtdLookup(unsigned core)
{
    if (pmu_)
        pmu_->add(core, PmuCounter::VtdLookups);
}

void
Instruments::onShootdown(Addr vteAddr, unsigned writerCore,
                         const std::vector<unsigned> &targets,
                         Cycles fanout, bool remote, bool pessimistic)
{
    if (pmu_) {
        // Every T-bit write consults the VTD before it fans out.
        pmu_->add(writerCore, PmuCounter::VtdLookups);
        if (remote)
            pmu_->add(writerCore, PmuCounter::VtdShootdowns);
    }
    check().onShootdown(vteAddr, writerCore, targets, fanout, remote,
                        pessimistic);
    if (tracer_ && fanout > 0)
        tracer_->complete("vlb_shootdown", Category::Hw, writerCore,
                          tracer_->now(), fanout);
}

void
Instruments::onBackInvalidate(Addr vteAddr,
                              const std::vector<unsigned> &targets)
{
    // There is no initiating core: count on the PMU's uncore row.
    if (pmu_)
        pmu_->addUncore(PmuCounter::VtdBackInvals);
    check().onBackInvalidate(vteAddr, targets);
}

void
Instruments::onFenceWait(unsigned core, Cycles cycles)
{
    // Pure mesh math, so the cycles are not already in any stall
    // bucket: the wait is shootdown time.
    if (pmu_)
        pmu_->charge(core, PmuBucket::Shootdown, cycles);
}

} // namespace jord::runtime
