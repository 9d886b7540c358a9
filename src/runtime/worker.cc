#include "runtime/worker.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "prof/pmu.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"

namespace jord::runtime {

using sim::Addr;
using sim::Cycles;
using sim::Tick;

namespace {
/** Synthetic cache lines for executor request queues. */
constexpr Addr kQueueLineBase = 0x5000'0000'0000ull;
/** Fixed bookkeeping cycles for queue push/pop and notifications. */
constexpr Cycles kQueueOpCycles = 6;
/** Orchestrator bookkeeping per completed request. */
constexpr Cycles kCompletionCycles = 20;
/** Cap on ArgBuf cache blocks transferred per request (~15 avg). */
constexpr unsigned kArgBlockCap = 32;

/** The breakdown field charged for span category @p cat, or null for
 * work the breakdown does not attribute. */
Cycles *
breakdownField(Breakdown &bd, trace::Category cat)
{
    switch (cat) {
      case trace::Category::Exec: return &bd.exec;
      case trace::Category::Isolation: return &bd.isolation;
      case trace::Category::Dispatch: return &bd.dispatch;
      case trace::Category::Comm: return &bd.comm;
      case trace::Category::Pipe: return &bd.pipe;
      default: return nullptr;
    }
}
} // namespace

WorkerServer::WorkerServer(WorkerConfig cfg, FunctionRegistry registry)
    : cfg_(std::move(cfg)), registry_(std::move(registry)),
      rng_(cfg_.seed), instruments_(cfg_.machine)
{
    const sim::MachineConfig &m = cfg_.machine;
    mesh_ = std::make_unique<noc::Mesh>(m);
    coherence_ = std::make_unique<mem::CoherenceEngine>(m, *mesh_);

    uat::VaEncoding encoding;
    if (cfg_.system == SystemKind::JordBT)
        table_ = std::make_unique<uat::BTreeVmaTable>(encoding);
    else
        table_ = std::make_unique<uat::PlainListVmaTable>(encoding);

    uat_ = std::make_unique<uat::UatSystem>(m, *coherence_, *table_);
    if (cfg_.check.any()) {
        checker_ = std::make_unique<check::Checker>(cfg_.check,
                                                    encoding);
        checker_->setClock([this] { return events_.curTick(); });
        instruments_.setChecker(checker_.get());
    }
    // The probe is wired before PrivLib exists: JordSan must see the
    // bootstrap VMAs its constructor creates.
    rewireProbe();
    kernel_ = std::make_unique<os::Kernel>(m);
    privlib_ = std::make_unique<privlib::PrivLib>(m, *coherence_, *uat_,
                                                  *table_, *kernel_,
                                                  instr_);
    if (cfg_.system == SystemKind::JordNI)
        privlib_->setIsolationBypass(true);

    // --- Core partitioning -------------------------------------------
    unsigned num_orch = std::max(1u, cfg_.numOrchestrators);
    if (num_orch >= m.numCores)
        sim::fatal("no cores left for executors");

    std::vector<bool> is_orch(m.numCores, false);
    orchs_.resize(num_orch);
    for (unsigned o = 0; o < num_orch; ++o) {
        // Spread orchestrators across sockets, then across cores within
        // the socket (the §6.3 per-socket deployment).
        unsigned socket = cfg_.perSocketOrchestrators
                              ? o % m.numSockets
                              : 0;
        unsigned within = cfg_.perSocketOrchestrators
                              ? o / m.numSockets
                              : o;
        unsigned core = socket * m.coresPerSocket() + within;
        orchs_[o].core = core;
        orchs_[o].completionLine =
            kQueueLineBase + 0x10000 + o * sim::kCacheBlockBytes;
        is_orch[core] = true;
    }

    for (unsigned core = 0; core < m.numCores; ++core) {
        if (is_orch[core])
            continue;
        ExecState exec;
        exec.core = core;
        exec.queueLine = kQueueLineBase +
                         execs_.size() * sim::kCacheBlockBytes;
        // Home orchestrator (receives this executor's internal requests
        // and completions): round-robin within the socket when
        // per-socket orchestrators are enabled.
        unsigned chosen = 0;
        if (cfg_.perSocketOrchestrators && m.numSockets > 1) {
            // Round-robin among the orchestrators of this core's socket.
            unsigned socket = m.socketOf(core);
            std::vector<unsigned> local;
            for (unsigned o = 0; o < num_orch; ++o)
                if (m.socketOf(orchs_[o].core) == socket)
                    local.push_back(o);
            if (local.empty())
                sim::fatal("socket %u has executors but no orchestrator",
                           socket);
            chosen = local[execs_.size() % local.size()];
        } else {
            chosen = static_cast<unsigned>(execs_.size()) % num_orch;
        }
        exec.orch = chosen;
        execs_.push_back(exec);
    }

    // Dispatch sets: every orchestrator balances over all executors of
    // its own socket (the paper's "group of executors in proximity",
    // §3.3/§6.3); JBSQ outstanding counters are shared state.
    for (unsigned o = 0; o < num_orch; ++o) {
        for (unsigned e = 0; e < execs_.size(); ++e) {
            if (!cfg_.perSocketOrchestrators ||
                m.socketOf(orchs_[o].core) ==
                    m.socketOf(execs_[e].core)) {
                orchs_[o].execs.push_back(e);
            }
        }
        if (orchs_[o].execs.empty())
            sim::fatal("orchestrator %u manages no executors", o);
    }
    outstanding_.assign(execs_.size(), 0);
    orchWords_ = (num_orch + 63) / 64;
    dirty_.assign(execs_.size() * orchWords_, ~std::uint64_t{0});

    // --- Deploy functions and runtime code ----------------------------
    unsigned boot_core = orchs_[0].core;
    registry_.deploy(*privlib_, boot_core);
    privlib::PrivResult rt = privlib_->mmapFor(
        boot_core, privlib::PrivLib::kRootPd, 64 << 10, uat::Perm::rx());
    if (!rt.ok)
        sim::fatal("failed to create runtime code VMA");
    runtimeCodeVma_ = rt.value;

    ntcConcurrency_.assign(registry_.size(), 0);
    ntcProvisioned_.assign(registry_.size(),
                           cfg_.provisioning.preProvisioned);

    // --- Failure handling ---------------------------------------------
    std::vector<std::string> fn_names;
    fn_names.reserve(registry_.size());
    for (const DeployedFunction &f : registry_.all())
        fn_names.push_back(f.spec.name);
    injector_.configure(cfg_.faultPlan, fn_names, cfg_.seed);
    if (cfg_.timeoutUs > 0)
        timeoutCycles_ = sim::usToCycles(cfg_.timeoutUs,
                                         cfg_.machine.freqGhz);
}

WorkerServer::~WorkerServer() = default;

// --- Observability ----------------------------------------------------------

void
WorkerServer::rewireProbe()
{
    instr_ = instruments_.attached() ? &instruments_ : nullptr;
    coherence_->setProbe(instr_);
    uat_->setProbe(instr_);
    if (privlib_)
        privlib_->setProbe(instr_);
}

void
WorkerServer::setTracer(trace::Tracer *tracer)
{
    instruments_.setTracer(tracer);
    rewireProbe();
    if (!tracer)
        return;
    tracer->setClock([this] { return events_.curTick(); });
    tracer->setMeta("system", systemName(cfg_.system));
    tracer->setMeta("seed", std::to_string(cfg_.seed));
    for (const OrchState &o : orchs_)
        tracer->setTrackName(o.core, "core " + std::to_string(o.core) +
                                         " (orchestrator)");
    for (const ExecState &e : execs_)
        tracer->setTrackName(e.core, "core " + std::to_string(e.core) +
                                         " (executor)");
}

void
WorkerServer::setPmu(prof::Pmu *pmu)
{
    instruments_.setPmu(pmu);
    rewireProbe();
}

void
WorkerServer::setProfiler(prof::Profiler *profiler)
{
    instruments_.setProfiler(profiler);
    rewireProbe();
}

void
WorkerServer::profSample(std::vector<prof::CoreSample> &cores,
                         prof::GlobalSample &global)
{
    global.livePds = privlib_->numLivePds();
    global.liveArgBufs = static_cast<std::size_t>(liveArgBufs_);
    global.liveInvocations = invocations_.live();

    for (const OrchState &o : orchs_) {
        prof::CoreSample cs;
        cs.core = o.core;
        cs.orchestrator = true;
        cs.busy = o.dispatching;
        cs.queueDepth = o.external.size + o.internal.size +
                        o.completions.size;
        cores.push_back(std::move(cs));
    }
    for (unsigned i = 0; i < execs_.size(); ++i) {
        const ExecState &e = execs_[i];
        prof::CoreSample cs;
        cs.core = e.core;
        cs.busy = e.busy;
        cs.queueDepth = e.queue.size + e.resumable.size;
        cs.outstanding = outstanding_[i];
        cs.domainDepth = privlib_->domainDepth(e.core);
        cs.vlbIOccupancy = uat_->ivlb(e.core).occupancy();
        cs.vlbICapacity = uat_->ivlb(e.core).capacity();
        cs.vlbDOccupancy = uat_->dvlb(e.core).occupancy();
        cs.vlbDCapacity = uat_->dvlb(e.core).capacity();
        if (e.busy && e.running != kNoSlot) {
            const Invocation &inv = invocations_[e.running];
            cs.pd = inv.pd;
            cs.fn = registry_.at(inv.req->fn).spec.name;
            // Fold the nested-ccall chain root-first by walking parent
            // links up to the external entry function.
            const Invocation *cur = &inv;
            while (true) {
                cs.stack.push_back(registry_.at(cur->req->fn).spec.name);
                if (!cur->req->internal)
                    break;
                cur = &parentOf(requests_[cur->reqSlot]);
            }
            std::reverse(cs.stack.begin(), cs.stack.end());
        }
        cores.push_back(std::move(cs));
    }
}

void
WorkerServer::charge(Invocation &inv, trace::Category cat,
                     const char *name, unsigned core, Tick start,
                     Cycles cycles)
{
    if (Cycles *field = breakdownField(inv.bd, cat))
        *field += cycles;
    if (instr_)
        instr_->span(name, cat, core, start, cycles, *inv.req, inv.span);
}

trace::SpanId
WorkerServer::parentSpan(const RequestSlot &slot)
{
    return slot.req.internal ? parentOf(slot).span : slot.req.span;
}

// --- Load generation -------------------------------------------------------

FunctionId
WorkerServer::sampleEntry()
{
    double pick = rng_.uniform() * mixTotal_;
    double acc = 0;
    for (const auto &[fn, weight] : mix_) {
        acc += weight;
        if (pick < acc)
            return fn;
    }
    return mix_.back().first;
}

void
WorkerServer::scheduleNextArrival()
{
    if (externalLeft_ == 0)
        return;
    --externalLeft_;
    events_.scheduleAfter(arrivals_.nextGapCycles(rng_),
                          [this] { onExternalArrival(); });
}

void
WorkerServer::onExternalArrival()
{
    const FunctionSpec &spec = registry_.at(sampleEntry()).spec;
    std::uint32_t r = newRequest();
    RequestSlot &slot = requests_[r];
    Request &req = slot.req;
    req.id = nextRequestId_++;
    req.fn = spec.id;
    req.argBytes = spec.argBytes;
    req.orch = rrOrch_;
    req.measured = generated_ >= warmupRequests_;
    ++generated_;
    rrOrch_ = (rrOrch_ + 1) % orchs_.size();
    if (instr_)
        req.span = instr_->requestArrived(req, spec.name,
                                          orchs_[req.orch].core,
                                          events_.curTick());
    if (timeoutCycles_ > 0) {
        // Deadline timer: one orchestrator-side timer event per
        // external request, spanning all retry attempts.
        req.deadline = events_.curTick() + timeoutCycles_;
        slot.deadlineEv = events_.schedule(
            req.deadline, [this, r] { onDeadline(r); });
    }
    orchEnqueue(r);
    scheduleNextArrival();
}

// --- Request slots and queues -------------------------------------------------

std::uint32_t
WorkerServer::newRequest()
{
    std::uint32_t r = requests_.take();
    requests_[r] = RequestSlot{};
    return r;
}

void
WorkerServer::push(SlotQueue &queue, std::uint32_t r)
{
    requests_[r].next = kNoSlot;
    if (queue.tail == kNoSlot)
        queue.head = r;
    else
        requests_[queue.tail].next = r;
    queue.tail = r;
    ++queue.size;
}

std::uint32_t
WorkerServer::pop(SlotQueue &queue)
{
    std::uint32_t r = queue.head;
    queue.head = requests_[r].next;
    if (queue.head == kNoSlot)
        queue.tail = kNoSlot;
    --queue.size;
    return r;
}

bool
WorkerServer::unlink(SlotQueue &queue, std::uint32_t r)
{
    std::uint32_t prev = kNoSlot;
    for (std::uint32_t at = queue.head; at != kNoSlot;
         prev = at, at = requests_[at].next) {
        if (at != r)
            continue;
        std::uint32_t next = requests_[r].next;
        if (prev == kNoSlot)
            queue.head = next;
        else
            requests_[prev].next = next;
        if (queue.tail == r)
            queue.tail = prev;
        --queue.size;
        return true;
    }
    return false;
}

// --- Orchestrator -----------------------------------------------------------

void
WorkerServer::orchEnqueue(std::uint32_t r)
{
    Request &req = requests_[r].req;
    unsigned orch = req.orch;
    OrchState &o = orchs_[orch];
    req.arrival = events_.curTick();
    if (req.firstArrival == 0)
        req.firstArrival = req.arrival;
    if (!req.internal) {
        if (req.deadline && req.arrival >= req.deadline) {
            // Expired during retry backoff or in transit: settle it
            // here rather than queueing doomed work.
            Cycles busy = freeArgBuf(o.core, req.argBuf, req.argBytes);
            recordTerminalFailure(r, Outcome::TimedOut,
                                  events_.curTick() + busy);
            return;
        }
        if (cfg_.shedCap && o.external.size >= cfg_.shedCap) {
            // Admission control (tentpole): shed from the external
            // queue only — internal requests always enqueue, keeping
            // the §3.3 deadlock-freedom argument intact.
            freeArgBuf(o.core, req.argBuf, req.argBytes);
            if (result_ && req.measured)
                ++result_->shedRequests;
            if (instr_)
                instr_->requestSettled(req, Settled::Shed, o.core,
                                       events_.curTick());
            settle(r);
            return;
        }
    }
    push(req.internal ? o.internal : o.external, r);
    orchDispatchStep(orch);
}

void
WorkerServer::markDirty(unsigned exec)
{
    std::fill_n(dirty_.begin() + exec * orchWords_, orchWords_,
                ~std::uint64_t{0});
}

Cycles
WorkerServer::dispatchScan(OrchState &o, unsigned orch_idx,
                           unsigned &chosen)
{
    // RPCValet-style JBSQ: load each managed executor's queue-length
    // line; lines unchanged since the last scan hit in the L1, changed
    // ones pay a coherence round trip, overlapped up to dispatchMlp.
    // Visit the executors from the tie-break rotation onward, wrapping
    // once; the first least-loaded one wins.
    const auto n = static_cast<unsigned>(o.execs.size());
    Cycles lat = 8 + static_cast<Cycles>(n) / 4;
    Cycles miss_total = 0;
    unsigned misses = 0;
    unsigned at = o.rr;
    unsigned best = o.execs[at];
    const std::uint64_t bit = std::uint64_t{1} << (orch_idx % 64);
    std::uint64_t *dirty = dirty_.data() + orch_idx / 64;
    for (unsigned i = 0; i < n; ++i) {
        unsigned ei = o.execs[at];
        if (++at == n)
            at = 0;
        std::uint64_t &word = dirty[ei * orchWords_];
        if (word & bit) {
            miss_total += mesh_->roundTrip(o.core, execs_[ei].core,
                                           noc::MsgKind::Data);
            ++misses;
            word &= ~bit;
        }
        if (outstanding_[ei] < outstanding_[best])
            best = ei;
    }
    o.rr = o.rr + 1 == n ? 0 : o.rr + 1;
    if (misses > 0) {
        unsigned overlap = std::max(
            1u, std::min(cfg_.dispatchMlp, misses));
        lat += miss_total / overlap;
    }
    chosen = best;
    return lat;
}

void
WorkerServer::orchDispatchStep(unsigned orch)
{
    OrchState &o = orchs_[orch];
    if (o.dispatching)
        return;

    Cycles busy = 0;
    // Attribution window for this serialized orchestrator stretch: any
    // stall-bucket cycles the memory/UAT hooks charge for o.core while
    // it is open stay in their buckets; the remainder of `busy` closes
    // into Retire. The JBSQ-hold early return discards its busy in the
    // timing model but still closes the window with the scan work — a
    // deliberate, negligible over-attribution (the scan happened).
    prof::PmuWindow pmu_window(pmu(), o.core, busy);
    bool progressed = false;

    if (!o.completions.empty()) {
        // Finish a completed external request: read the response out of
        // the ArgBuf and release it.
        std::uint32_t r = pop(o.completions);
        RequestSlot &slot = requests_[r];
        const Request &req = slot.req;
        busy += kCompletionCycles;
        Outcome outcome = invocations_[slot.inv].outcome;
        invocations_.release(slot.inv);
        slot.inv = kNoSlot;
        if (outcome == Outcome::Ok && req.deadline &&
            events_.curTick() > req.deadline) {
            // Completed, but after the client gave up.
            outcome = Outcome::TimedOut;
        }
        if (outcome == Outcome::Ok) {
            if (cfg_.system == SystemKind::NightCore) {
                busy += baseline::pipe::recvBusy(req.argBytes);
            } else {
                // The response leaves through the NIC by DMA; the
                // orchestrator only releases the ArgBuf.
                busy += freeArgBuf(o.core, req.argBuf, req.argBytes);
            }
            if (req.measured && result_) {
                double us = sim::cyclesToUs(
                    events_.curTick() + busy - req.firstArrival,
                    cfg_.machine.freqGhz);
                result_->latencyUs.record(us);
                ++result_->completedRequests;
            }
            if (instr_)
                instr_->requestSettled(req, Settled::Completed, o.core,
                                       events_.curTick() + busy);
            settle(r);
        } else {
            // Failed attempt: retry with backoff or settle.
            busy += settleFailedAttempt(r, outcome, busy);
        }
        progressed = true;
    } else {
        // Dispatch: internal requests strictly before external ones to
        // guarantee forward progress for nested invocations (§3.3).
        bool internal = !o.internal.empty();
        SlotQueue &queue = internal ? o.internal : o.external;
        if (!queue.empty()) {
            std::uint32_t r = queue.head;
            RequestSlot &slot = requests_[r];
            Request &req = slot.req;
            Tick base = events_.curTick();

            // External intake: materialise the request's ArgBuf.
            if (!internal && req.argBuf == 0 &&
                cfg_.system != SystemKind::NightCore) {
                Cycles intake_start = busy;
                req.argBuf = mapArgBuf(o.core, req.argBytes, req.id, busy);
                busy += touchArgBuf(o.core, req.argBuf, req.argBytes,
                                    true);
                if (instr_)
                    instr_->span("argbuf.intake", trace::Category::Runtime,
                                 o.core, base + intake_start,
                                 busy - intake_start, req, req.span);
            }

            unsigned chosen = 0;
            Cycles scan = dispatchScan(o, orch, chosen);
            busy += scan;
            if (instr_)
                instr_->dispatchScan(o.core, scan);

            if (!internal && outstanding_[chosen] >= cfg_.jbsqBound) {
                // JBSQ bound reached: hold external dispatch until an
                // executor frees up (completions will kick us).
                return;
            }

            pop(queue);
            req.dispatchCycles = scan + kQueueOpCycles;

            if (cfg_.system == SystemKind::NightCore &&
                injector_.enabled() &&
                injector_.pipeDrop(req.id, req.attempt, req.fn)) {
                // The dispatch pipe write is lost; the orchestrator
                // detects it on the (modelled) pipe error path and
                // fails the attempt without ever reaching an executor.
                Cycles drop = baseline::pipe::sendBusy(req.argBytes) +
                              baseline::pipe::recvLatency();
                busy += drop;
                if (result_)
                    ++result_->faultsInjected;
                if (instr_)
                    instr_->span("pipe.drop", trace::Category::Pipe,
                                 o.core, base + busy - drop, drop, req,
                                 req.span);
                if (req.internal) {
                    // A lost nested call must still unblock the
                    // waiting parent: deliver a failed result instead
                    // of deadlocking its join.
                    events_.scheduleAfter(busy, [this, r] {
                        deliverChildResult(r, ChildResult{0, 0, true});
                    });
                } else {
                    busy += settleFailedAttempt(r, Outcome::Crashed, busy);
                }
                o.dispatching = true;
                events_.scheduleAfter(std::max<Cycles>(busy, 1), [this, orch] {
                    orchs_[orch].dispatching = false;
                    orchDispatchStep(orch);
                });
                return;
            }

            if (result_ && req.measured && !req.internal) {
                result_->dispatchNs.record(
                    sim::cyclesToNs(scan, cfg_.machine.freqGhz));
            }
            // The span mirrors the bd.dispatch charge the invocation
            // will take in its prologue (scan + queue push).
            if (instr_)
                instr_->span("dispatch", trace::Category::Dispatch,
                             o.core, base + busy - scan,
                             req.dispatchCycles, req, parentSpan(slot));
            if (cfg_.system == SystemKind::NightCore) {
                busy += baseline::pipe::sendBusy(req.argBytes);
            }

            ExecState &e = execs_[chosen];
            ++outstanding_[chosen];
            markDirty(chosen);
            busy += coherence_->write(o.core, e.queueLine).latency;
            busy += kQueueOpCycles;

            Cycles visible =
                busy + mesh_->latency(o.core, e.core,
                                      noc::MsgKind::Control);
            events_.scheduleAfter(visible, [this, chosen, r] {
                push(execs_[chosen].queue, r);
                execWake(chosen);
            });
            progressed = true;
        }
    }

    if (!progressed)
        return;
    o.dispatching = true;
    events_.scheduleAfter(std::max<Cycles>(busy, 1), [this, orch] {
        orchs_[orch].dispatching = false;
        orchDispatchStep(orch);
    });
}

// --- Executor ---------------------------------------------------------------

void
WorkerServer::execWake(unsigned exec)
{
    execStep(exec);
}

void
WorkerServer::execStep(unsigned exec)
{
    ExecState &e = execs_[exec];
    if (e.busy)
        return;

    if (!e.resumable.empty()) {
        std::uint32_t r = pop(e.resumable);
        e.busy = true;
        resumeInvocation(exec, requests_[r].inv);
        return;
    }
    if (!e.queue.empty()) {
        std::uint32_t r = pop(e.queue);
        markDirty(exec);
        e.busy = true;
        startInvocation(exec, r);
        return;
    }
}

Cycles
WorkerServer::drawExec(const FunctionSpec &spec)
{
    double cv = std::max(0.01, spec.execCv);
    double sigma2 = std::log(1.0 + cv * cv);
    double mu = std::log(std::max(1e-3, spec.execMeanUs)) - sigma2 / 2;
    double us = rng_.lognormal(mu, std::sqrt(sigma2));
    return sim::usToCycles(us, cfg_.machine.freqGhz);
}

Cycles
WorkerServer::touchArgBuf(unsigned core, Addr va, std::uint64_t bytes,
                          bool write)
{
    if (cfg_.system == SystemKind::NightCore || va == 0)
        return 0;
    Cycles lat = 0;
    Cycles mem_lat = 0;
    unsigned blocks = static_cast<unsigned>(
        std::min<std::uint64_t>((bytes + sim::kCacheBlockBytes - 1) /
                                    sim::kCacheBlockBytes,
                                kArgBlockCap));
    uat::Perm need = write ? uat::Perm(uat::Perm::W) : uat::Perm::r();
    for (unsigned i = 0; i < blocks; ++i) {
        uat::UatAccess acc = uat_->dataAccess(
            core, va + i * sim::kCacheBlockBytes, need);
        if (!acc.ok())
            sim::panic("runtime ArgBuf access fault: %s (va=%llx)",
                       uat::faultName(acc.fault),
                       static_cast<unsigned long long>(va));
        lat += acc.latency + 1;
        mem::Access macc = write ? coherence_->write(core, acc.pa)
                                 : coherence_->read(core, acc.pa);
        mem_lat += macc.latency;
    }
    // Streaming accesses to independent lines overlap in the LSQ/store
    // buffer; memory-level parallelism hides most inter-block latency.
    unsigned mlp = std::min(blocks, 4u);
    if (mlp > 0)
        lat += mem_lat / mlp;
    return lat;
}

Addr
WorkerServer::mapArgBuf(unsigned core, std::uint64_t bytes, RequestId req,
                        Cycles &busy)
{
    privlib::PrivResult res = privlib_->mmap(core, bytes, uat::Perm::rw());
    if (!res.ok)
        sim::panic("ArgBuf mmap failed: %s", uat::faultName(res.fault));
    busy += res.latency;
    ++liveArgBufs_;
    if (instr_)
        instr_->argBufMapped(res.value, bytes, req);
    return res.value;
}

Cycles
WorkerServer::freeArgBuf(unsigned core, Addr va, std::uint64_t bytes)
{
    if (va == 0)
        return 0; // NightCore, or a request that never got an ArgBuf
    privlib::PrivResult res = privlib_->munmap(core, va, bytes);
    if (!res.ok)
        sim::panic("ArgBuf munmap failed: %s", uat::faultName(res.fault));
    --liveArgBufs_;
    if (instr_)
        instr_->argBufFreed(va);
    return res.latency;
}

Cycles
WorkerServer::invocationPrologue(Invocation &inv, Tick at)
{
    const FunctionSpec &spec = registry_.at(inv.req->fn).spec;
    Addr code_vma = registry_.at(inv.req->fn).codeVma;
    unsigned core = coreOfExec(inv.exec);
    Cycles busy = kQueueOpCycles; // dequeue bookkeeping

    switch (cfg_.system) {
      case SystemKind::Jord:
      case SystemKind::JordBT: {
        // Fig. 4: allocate PD, allocate stack/heap, copy code perm,
        // transfer ArgBuf perm, enter the PD.
        uat::UatAccess gate = uat_->fetch(core, privlib_->privCodeBase());
        busy += gate.latency;
        privlib::PrivResult pd = privlib_->cget(core);
        if (!pd.ok)
            sim::panic("cget failed: %s", uat::faultName(pd.fault));
        inv.pd = static_cast<uat::PdId>(pd.value);
        busy += pd.latency;

        privlib::PrivResult sh = privlib_->mmapFor(
            core, inv.pd, spec.stackHeapBytes, uat::Perm::rw());
        if (!sh.ok)
            sim::panic("stack/heap mmap failed: %s",
                       uat::faultName(sh.fault));
        inv.stackHeapVma = sh.value;
        busy += sh.latency;

        privlib::PrivResult code = privlib_->pcopy(core, code_vma,
                                                   inv.pd,
                                                   uat::Perm::rx());
        if (!code.ok)
            sim::panic("code pcopy failed: %s",
                       uat::faultName(code.fault));
        busy += code.latency;

        if (inv.req->argBuf) {
            // Transfer the ArgBuf permission from its producer's PD
            // into the fresh PD (Fig. 4's "Transfer ArgBuf Perm").
            privlib::PrivResult ab = privlib_->pmoveBetween(
                core, inv.req->argBuf, inv.req->argOwner, inv.pd,
                uat::Perm::rw());
            if (!ab.ok)
                sim::panic("ArgBuf pmove failed: %s",
                           uat::faultName(ab.fault));
            busy += ab.latency;
        }

        privlib::PrivResult cc = privlib_->ccall(core, inv.pd);
        if (!cc.ok)
            sim::panic("ccall failed: %s", uat::faultName(cc.fault));
        busy += cc.latency;
        charge(inv, trace::Category::Isolation, "pd_setup", core,
               at + kQueueOpCycles, busy - kQueueOpCycles);

        // Enter the function: I-VLB fetch + read the input ArgBuf.
        Cycles comm_start = busy;
        uat::UatAccess fn_fetch = uat_->fetch(core, code_vma);
        if (!fn_fetch.ok())
            sim::panic("function fetch fault: %s",
                       uat::faultName(fn_fetch.fault));
        busy += fn_fetch.latency;
        busy += touchArgBuf(core, inv.req->argBuf, inv.req->argBytes,
                            false);
        charge(inv, trace::Category::Comm, "argbuf.read", core,
               at + comm_start, busy - comm_start);
        break;
      }
      case SystemKind::JordNI: {
        // No PDs or permission transfers, but PrivLib still manages the
        // memory: the invocation gets its private stack/heap VMA and
        // the ArgBuf stays zero-copy shared memory (§5).
        privlib::PrivResult sh = privlib_->mmap(
            core, spec.stackHeapBytes, uat::Perm::rw());
        if (!sh.ok)
            sim::panic("NI stack/heap mmap failed");
        inv.stackHeapVma = sh.value;
        busy += sh.latency;
        charge(inv, trace::Category::Isolation, "vma_setup", core,
               at + busy - sh.latency, sh.latency);
        Cycles comm_start = busy;
        uat::UatAccess fn_fetch = uat_->fetch(core, code_vma);
        busy += fn_fetch.latency;
        busy += touchArgBuf(core, inv.req->argBuf, inv.req->argBytes,
                            false);
        charge(inv, trace::Category::Comm, "argbuf.read", core,
               at + comm_start, busy - comm_start);
        break;
      }
      case SystemKind::NightCore: {
        FunctionId fn = inv.req->fn;
        ++ntcConcurrency_[fn];
        if (ntcConcurrency_[fn] > ntcProvisioned_[fn]) {
            // Scale out: prepare another worker for this function.
            ++ntcProvisioned_[fn];
            busy += baseline::kProvisionCycles;
            charge(inv, trace::Category::Runtime, "provision", core,
                   at + busy - baseline::kProvisionCycles,
                   baseline::kProvisionCycles);
        }
        Cycles recv = baseline::pipe::recvBusy(inv.req->argBytes) +
                      baseline::pipe::recvLatency();
        busy += recv;
        charge(inv, trace::Category::Pipe, "pipe.recv", core,
               at + busy - recv, recv);
        break;
      }
    }

    inv.bd.dispatch += inv.req->dispatchCycles;
    return busy;
}

unsigned
WorkerServer::m_socketOfCore(unsigned core) const
{
    return cfg_.machine.socketOf(core);
}

unsigned
WorkerServer::pickOrch(unsigned socket)
{
    for (unsigned i = 0; i < orchs_.size(); ++i) {
        unsigned o = (rrOrch_ + i) % static_cast<unsigned>(orchs_.size());
        if (!cfg_.perSocketOrchestrators ||
            cfg_.machine.socketOf(orchs_[o].core) == socket) {
            rrOrch_ = (o + 1) % static_cast<unsigned>(orchs_.size());
            return o;
        }
    }
    return 0;
}

Cycles
WorkerServer::issueChild(Invocation &inv, const CallSpec &call,
                         Cycles offset, Tick at)
{
    unsigned core = coreOfExec(inv.exec);
    Cycles busy = 0;

    // Taking a slot may grow the request table; its chunks keep
    // `inv.req` where it is.
    std::uint32_t r = newRequest();
    RequestSlot &slot = requests_[r];
    slot.parentInv = requests_[inv.reqSlot].inv;
    Request &child = slot.req;
    child.id = nextRequestId_++;
    child.fn = call.target;
    child.argBytes = call.argBytes;
    child.internal = true;
    // Spread nested requests round-robin across the socket's
    // orchestrators so a wide fan-out (Media's ReadPage) does not
    // serialize on one dispatch loop.
    child.orch = pickOrch(m_socketOfCore(core));
    child.measured = inv.req->measured;
    // Children inherit the root request's deadline: once the client's
    // budget is gone, nested work is abandoned at the next boundary.
    child.deadline = inv.req->deadline;

    switch (cfg_.system) {
      case SystemKind::Jord:
      case SystemKind::JordBT: {
        // The function allocates the output ArgBuf in its own PD
        // (Listing 1), populates it, and the runtime hands its
        // permission to the root domain for dispatch.
        uat::UatAccess gate = uat_->fetch(core, privlib_->privCodeBase());
        busy += gate.latency;
        child.argBuf = mapArgBuf(core, call.argBytes, child.id, busy);
        charge(inv, trace::Category::Isolation, "child_argbuf", core, at,
               busy);

        Cycles comm = touchArgBuf(core, child.argBuf, call.argBytes,
                                  true);
        busy += comm;
        charge(inv, trace::Category::Comm, "argbuf.write", core,
               at + busy - comm, comm);
        // The permission stays with this PD; the child's executor
        // transfers it directly into the child's PD at dispatch.
        child.argOwner = inv.pd;

        uat::UatAccess back = uat_->fetch(
            core, registry_.at(inv.req->fn).codeVma);
        busy += back.latency;
        break;
      }
      case SystemKind::JordNI: {
        child.argBuf = mapArgBuf(core, call.argBytes, child.id, busy);
        charge(inv, trace::Category::Isolation, "child_argbuf", core, at,
               busy);
        Cycles comm = touchArgBuf(core, child.argBuf, call.argBytes,
                                  true);
        busy += comm;
        charge(inv, trace::Category::Comm, "argbuf.write", core,
               at + busy - comm, comm);
        break;
      }
      case SystemKind::NightCore: {
        busy += baseline::pipe::sendBusy(call.argBytes);
        charge(inv, trace::Category::Pipe, "pipe.send", core, at, busy);
        break;
      }
    }

    ++inv.pendingChildren;
    unsigned orch = child.orch;
    Cycles when = offset + busy +
                  mesh_->latency(core, orchs_[orch].core,
                                 noc::MsgKind::Control);
    events_.scheduleAfter(when, [this, r] { orchEnqueue(r); });
    return busy;
}

Cycles
WorkerServer::consumeChildResults(Invocation &inv, Tick at,
                                  bool &child_failed)
{
    unsigned core = coreOfExec(inv.exec);
    Cycles iso_total = 0;
    Cycles comm_total = 0;
    Cycles pipe_total = 0;
    // The children's epilogues already returned each ArgBuf permission
    // to this PD; re-enter the domain, then read + free every response.
    if (isolated() && !inv.childResults.empty()) {
        privlib::PrivResult ce = privlib_->center(core, inv.pd);
        if (!ce.ok)
            sim::panic("center failed: %s", uat::faultName(ce.fault));
        iso_total += ce.latency;
    }
    for (ChildResult &result : inv.childResults) {
        if (result.failed)
            child_failed = true;
        switch (cfg_.system) {
          case SystemKind::Jord:
          case SystemKind::JordBT:
          case SystemKind::JordNI: {
            if (!result.failed) {
                // Failed children carried no valid response; skip the
                // read but still release the buffer below.
                comm_total += touchArgBuf(core, result.argBuf,
                                          result.argBytes, false);
            }
            iso_total += freeArgBuf(core, result.argBuf, result.argBytes);
            break;
          }
          case SystemKind::NightCore: {
            if (result.failed)
                break; // nothing arrived on the pipe
            pipe_total += baseline::pipe::recvBusy(result.argBytes);
            break;
          }
        }
    }
    // One composite charge per category (center + per-child munmap /
    // reads interleave; the totals are exact, the span layout is not).
    if (iso_total)
        charge(inv, trace::Category::Isolation, "join.isolation", core,
               at, iso_total);
    if (comm_total)
        charge(inv, trace::Category::Comm, "join.read", core,
               at + iso_total, comm_total);
    if (pipe_total)
        charge(inv, trace::Category::Pipe, "join.pipe", core, at,
               pipe_total);
    inv.childResults.clear();
    return iso_total + comm_total + pipe_total;
}

Cycles
WorkerServer::pdTeardown(Invocation &inv, unsigned core)
{
    uat::UatAccess gate = uat_->fetch(core, privlib_->privCodeBase());
    Cycles cycles = gate.latency;

    privlib::PrivResult ex = privlib_->cexit(core);
    if (!ex.ok)
        sim::panic("cexit failed: %s", uat::faultName(ex.fault));
    cycles += ex.latency;

    if (inv.req->argBuf) {
        // Hand the ArgBuf back to the PD it came from.
        privlib::PrivResult mv = privlib_->pmoveBetween(
            core, inv.req->argBuf, inv.pd, inv.req->argOwner,
            uat::Perm::rw());
        if (!mv.ok)
            sim::panic("teardown ArgBuf pmove failed: %s",
                       uat::faultName(mv.fault));
        cycles += mv.latency;
    }
    privlib::PrivResult code = privlib_->pmoveBetween(
        core, registry_.at(inv.req->fn).codeVma, inv.pd,
        privlib::PrivLib::kRootPd, uat::Perm::rx());
    if (!code.ok)
        sim::panic("code revoke failed: %s", uat::faultName(code.fault));
    cycles += code.latency;

    privlib::PrivResult un = privlib_->munmap(
        core, inv.stackHeapVma,
        registry_.at(inv.req->fn).spec.stackHeapBytes);
    if (!un.ok)
        sim::panic("stack/heap munmap failed: %s",
                   uat::faultName(un.fault));
    cycles += un.latency;

    privlib::PrivResult put = privlib_->cput(core, inv.pd);
    if (!put.ok)
        sim::panic("cput failed: %s", uat::faultName(put.fault));
    return cycles + put.latency;
}

Cycles
WorkerServer::invocationEpilogue(Invocation &inv, Tick at)
{
    unsigned core = coreOfExec(inv.exec);
    Cycles busy = 0;

    switch (cfg_.system) {
      case SystemKind::Jord:
      case SystemKind::JordBT: {
        // Write the response, hand the ArgBuf back to root, revoke the
        // code permission, leave the PD and tear everything down.
        busy += touchArgBuf(core, inv.req->argBuf, inv.req->argBytes, true);
        charge(inv, trace::Category::Comm, "argbuf.respond", core, at,
               busy);

        Cycles iso = pdTeardown(inv, core);
        busy += iso;
        charge(inv, trace::Category::Isolation, "pd_teardown", core,
               at + busy - iso, iso);
        break;
      }
      case SystemKind::JordNI: {
        busy += touchArgBuf(core, inv.req->argBuf, inv.req->argBytes, true);
        charge(inv, trace::Category::Comm, "argbuf.respond", core, at,
               busy);
        privlib::PrivResult un = privlib_->munmap(
            core, inv.stackHeapVma,
            registry_.at(inv.req->fn).spec.stackHeapBytes);
        if (!un.ok)
            sim::panic("NI stack/heap munmap failed");
        busy += un.latency;
        charge(inv, trace::Category::Isolation, "vma_teardown", core,
               at + busy - un.latency, un.latency);
        break;
      }
      case SystemKind::NightCore: {
        busy += baseline::pipe::sendBusy(inv.req->argBytes);
        charge(inv, trace::Category::Pipe, "pipe.respond", core, at,
               busy);
        break;
      }
    }
    busy += kQueueOpCycles; // completion notification
    return busy;
}

Cycles
WorkerServer::runUntilBlocked(Invocation &inv, Tick at)
{
    const FunctionSpec &spec = registry_.at(inv.req->fn).spec;
    unsigned core = coreOfExec(inv.exec);
    Cycles busy = 0;
    unsigned num_calls = static_cast<unsigned>(spec.calls.size());

    while (inv.nextCall <= num_calls) {
        unsigned i = inv.nextCall;
        if (i == num_calls && inv.pendingChildren > 0) {
            // Final join: wait for every outstanding async child
            // (Listing 1's jord::wait) before the last segment.
            if (isolated()) {
                privlib::PrivResult ex = privlib_->cexit(core);
                if (!ex.ok)
                    sim::panic("join cexit failed: %s",
                               uat::faultName(ex.fault));
                busy += ex.latency;
                charge(inv, trace::Category::Isolation, "suspend.cexit",
                       core, at + busy - ex.latency, ex.latency);
            }
            inv.state = InvState::Suspended;
            inv.resumeThreshold = 0;
            return busy;
        }

        if (inv.crashSeg == static_cast<int>(i) ||
            inv.violationSeg == static_cast<int>(i)) {
            // Injected fault: the function aborts partway through this
            // compute segment instead of finishing it.
            Cycles part = static_cast<Cycles>(
                static_cast<double>(inv.segments[i]) * inv.injectFrac);
            busy += part;
            inv.bd.exec += part;
            if (inv.violationSeg == static_cast<int>(i)) {
                // Drive a *real* out-of-bound ArgBuf access through the
                // UAT so the abort is triggered by the actual hardware
                // permission check, not by fiat.
                uat::UatAccess acc{};
                acc.fault = uat::Fault::None;
                if (inv.req->argBuf)
                    acc = uat_->dataAccess(
                        core, inv.req->argBuf + inv.req->argBytes,
                        uat::Perm(uat::Perm::W));
                if (acc.ok()) {
                    // The rounded-up VMA absorbed the overrun (or
                    // isolation is bypassed): escalate to a privileged
                    // address, which no function may ever touch.
                    acc = uat_->dataAccess(core,
                                           privlib_->privDataBase(),
                                           uat::Perm(uat::Perm::W));
                }
                busy += acc.latency;
                if (acc.ok()) {
                    // Isolation bypassed end to end (Jord_NI with no
                    // privileged VMAs hit): the wild write corrupts
                    // state and the process model treats it as a crash.
                    inv.outcome = Outcome::Crashed;
                } else {
                    inv.fault = acc.fault;
                    inv.outcome = Outcome::Faulted;
                }
            } else {
                inv.outcome = Outcome::Crashed;
            }
            if (result_)
                ++result_->faultsInjected;
            if (instr_)
                instr_->span("fault.inject", trace::Category::Runtime,
                             core, at + busy - part, part, *inv.req,
                             inv.span);
            if (inv.pendingChildren > 0) {
                // Outstanding children still hold permissions rooted
                // in this PD; wait for them, then reclaim at resume.
                if (isolated()) {
                    privlib::PrivResult ex = privlib_->cexit(core);
                    if (!ex.ok)
                        sim::panic("abort cexit failed: %s",
                                   uat::faultName(ex.fault));
                    busy += ex.latency;
                    inv.bd.isolation += ex.latency;
                }
                inv.abortPending = true;
                inv.state = InvState::Suspended;
                inv.resumeThreshold = 0;
                return busy;
            }
            busy += abortReclaim(inv, at + busy, true);
            inv.state = InvState::Done;
            return busy;
        }

        Cycles seg_start = busy;
        busy += inv.segments[i];

        // Touch the private stack/heap once per segment (D-VLB work).
        if (inv.stackHeapVma) {
            uat::UatAccess s = uat_->dataAccess(core, inv.stackHeapVma,
                                                uat::Perm(uat::Perm::W));
            uat::UatAccess h = uat_->dataAccess(
                core, inv.stackHeapVma + spec.stackHeapBytes / 2,
                uat::Perm(uat::Perm::W));
            if (!s.ok() || !h.ok())
                sim::panic("stack/heap access fault");
            busy += s.latency + h.latency;
        }
        charge(inv, trace::Category::Exec, "exec", core, at + seg_start,
               busy - seg_start);

        if (i < num_calls) {
            const CallSpec &call = spec.calls[i];
            busy += issueChild(inv, call, busy, at + busy);
            inv.nextCall = i + 1;
            if (call.sync) {
                // jord::call: suspend until this child completes.
                if (isolated()) {
                    privlib::PrivResult ex = privlib_->cexit(core);
                    if (!ex.ok)
                        sim::panic("suspend cexit failed");
                    busy += ex.latency;
                    charge(inv, trace::Category::Isolation,
                           "suspend.cexit", core, at + busy - ex.latency,
                           ex.latency);
                }
                inv.state = InvState::Suspended;
                inv.resumeThreshold = inv.pendingChildren - 1;
                return busy;
            }
        } else {
            inv.nextCall = i + 1;
        }
    }

    busy += invocationEpilogue(inv, at + busy);
    inv.state = InvState::Done;
    return busy;
}

void
WorkerServer::startInvocation(unsigned exec, std::uint32_t r)
{
    std::uint32_t i = invocations_.take();
    Invocation &inv = invocations_[i];
    inv.recycle();
    RequestSlot &slot = requests_[r];
    slot.inv = i;
    inv.req = &slot.req;
    inv.reqSlot = r;
    inv.exec = exec;
    inv.serviceStart = events_.curTick();
    execs_[exec].running = i;
    Cycles busy = 0;
    prof::PmuWindow pmu_window(pmu(), coreOfExec(exec), busy);
    if (instr_) {
        // Parent the invoke span under the request span (external) or
        // the parent's invoke span (nested ccall), building the
        // per-request span tree across the nested call chain.
        inv.span = instr_->invocationBegun(
            slot.req, registry_.at(slot.req.fn).spec.name,
            coreOfExec(exec), inv.serviceStart, parentSpan(slot));
    }

    if (inv.req->deadline && events_.curTick() >= inv.req->deadline) {
        // Dead on arrival: the deadline expired while the request sat
        // in the executor queue. Don't waste a PD on it.
        inv.outcome = Outcome::TimedOut;
        inv.state = InvState::Done;
        busy = kQueueOpCycles;
        scheduleExecCompletion(exec, i, busy);
        return;
    }

    const FunctionSpec &spec = registry_.at(inv.req->fn).spec;
    Cycles total = drawExec(spec);
    unsigned segs = static_cast<unsigned>(spec.calls.size()) + 1;
    if (spec.segmentWeights.empty()) {
        inv.segments.assign(segs, total / segs);
        inv.segments[0] += total % segs;
    } else {
        if (spec.segmentWeights.size() != segs)
            sim::panic("%s: %zu segment weights for %u segments",
                       spec.name.c_str(), spec.segmentWeights.size(),
                       segs);
        double weight_total = 0;
        for (double weight : spec.segmentWeights)
            weight_total += weight;
        inv.segments.assign(segs, 0);
        Cycles used = 0;
        for (unsigned i = 0; i + 1 < segs; ++i) {
            inv.segments[i] = weight_total > 0
                                  ? static_cast<Cycles>(
                                        static_cast<double>(total) *
                                        spec.segmentWeights[i] /
                                        weight_total)
                                  : 0;
            used += inv.segments[i];
        }
        inv.segments[segs - 1] = total - used;
    }

    if (injector_.enabled()) {
        fault::Decision d = injector_.decide(inv.req->id,
                                             inv.req->attempt,
                                             inv.req->fn, segs);
        if (d.spikeMult > 1.0) {
            for (Cycles &seg : inv.segments)
                seg = static_cast<Cycles>(static_cast<double>(seg) *
                                          d.spikeMult);
        }
        inv.crashSeg = d.crashSegment;
        inv.violationSeg = d.violationSegment;
        inv.injectFrac = d.fraction;
        if (cfg_.system == SystemKind::NightCore &&
            inv.violationSeg >= 0) {
            // No UAT to raise the fault: a wild store in a NightCore
            // worker thread simply crashes it.
            inv.crashSeg = inv.violationSeg;
            inv.violationSeg = -1;
        }
    }

    Tick base = events_.curTick();
    if (instr_)
        instr_->coreContext(coreOfExec(exec), inv.req->id, inv.span);
    busy = invocationPrologue(inv, base);
    inv.prologueDone = true;
    busy += runUntilBlocked(inv, base + busy);
    if (instr_)
        instr_->clearCoreContext(coreOfExec(exec));
    scheduleExecCompletion(exec, i, busy);
}

void
WorkerServer::resumeInvocation(unsigned exec, std::uint32_t i)
{
    Invocation &inv = invocations_[i];
    ExecState &e = execs_[exec];
    ++outstanding_[exec];
    markDirty(exec);
    e.running = i;
    inv.state = InvState::Running;
    Cycles busy = 0;
    prof::PmuWindow pmu_window(pmu(), coreOfExec(exec), busy);

    Tick base = events_.curTick();
    if (instr_)
        instr_->coreContext(coreOfExec(exec), inv.req->id, inv.span);
    bool child_failed = false;
    busy = consumeChildResults(inv, base, child_failed);

    bool abort = inv.abortPending || inv.timedOut || child_failed ||
                 (inv.req->deadline && base >= inv.req->deadline);
    if (abort) {
        if (inv.outcome == Outcome::Ok)
            inv.outcome = child_failed ? Outcome::ChildFailed
                                       : Outcome::TimedOut;
        if (inv.pendingChildren > 0) {
            // Still-outstanding children hold permissions rooted in
            // this PD; suspend again and reclaim once they drain.
            if (isolated()) {
                unsigned core = coreOfExec(exec);
                privlib::PrivResult ex = privlib_->cexit(core);
                if (!ex.ok)
                    sim::panic("abort cexit failed: %s",
                               uat::faultName(ex.fault));
                busy += ex.latency;
                inv.bd.isolation += ex.latency;
            }
            inv.abortPending = true;
            inv.state = InvState::Suspended;
            inv.resumeThreshold = 0;
        } else {
            busy += abortReclaim(inv, base + busy, true);
            inv.state = InvState::Done;
        }
    } else {
        busy += runUntilBlocked(inv, base + busy);
    }
    if (instr_)
        instr_->clearCoreContext(coreOfExec(exec));
    scheduleExecCompletion(exec, i, busy);
}

void
WorkerServer::scheduleExecCompletion(unsigned exec, std::uint32_t i,
                                     Cycles busy)
{
    events_.scheduleAfter(std::max<Cycles>(busy, 1), [this, exec, i] {
        ExecState &e = execs_[exec];
        e.busy = false;
        e.running = kNoSlot;
        if (invocations_[i].state == InvState::Done) {
            finishInvocation(i);
        } else {
            // Suspended: free the JBSQ slot.
            --outstanding_[exec];
            markDirty(exec);
            orchDispatchStep(execs_[exec].orch);
        }
        execStep(exec);
    });
}

Cycles
WorkerServer::accountInvocation(Invocation &inv)
{
    if (!result_ || !inv.req->measured)
        return 0;
    Cycles service = events_.curTick() - inv.serviceStart;
    double us = sim::cyclesToUs(service, cfg_.machine.freqGhz);
    result_->serviceUs.record(us);
    FunctionId fn = inv.req->fn;
    result_->perFunctionServiceUs[fn].record(us);

    Breakdown bd = inv.bd;
    Cycles accounted = bd.exec + bd.isolation + bd.dispatch + bd.comm +
                       bd.pipe;
    bd.queue = service > accounted ? service - accounted : 0;
    result_->perFunctionBreakdown[fn] += bd;
    ++result_->perFunctionCount[fn];
    result_->totals += bd;
    ++result_->invocations;
    return bd.queue;
}

void
WorkerServer::finishInvocation(std::uint32_t i)
{
    Invocation &inv = invocations_[i];
    ExecState &e = execs_[inv.exec];
    --outstanding_[inv.exec];
    markDirty(inv.exec);
    if (cfg_.system == SystemKind::NightCore && inv.prologueDone) {
        // The worker slot frees at actual completion time, not when the
        // epilogue's costs were computed. Aborted-before-start
        // invocations never took a slot.
        --ntcConcurrency_[inv.req->fn];
    }
    unsigned core = coreOfExec(inv.exec);
    Cycles queue_wait =
        inv.outcome == Outcome::Ok ? accountInvocation(inv) : 0;
    if (instr_)
        instr_->invocationEnded(inv, core, events_.curTick(), queue_wait);

    std::uint32_t r = inv.reqSlot;
    if (inv.req->internal) {
        // Completion notification to the parent's executor. The child's
        // invocation ends here; its request carries the result.
        bool failed = inv.outcome != Outcome::Ok;
        unsigned parent_core = coreOfExec(parentOf(requests_[r]).exec);
        Cycles notify = mesh_->latency(core, parent_core,
                                       noc::MsgKind::Control) +
                        kQueueOpCycles;
        invocations_.release(i);
        requests_[r].inv = kNoSlot;
        events_.scheduleAfter(notify, [this, r, failed] {
            const Request &req = requests_[r].req;
            deliverChildResult(
                r, ChildResult{req.argBuf, req.argBytes, failed});
        });
    } else {
        unsigned orch = inv.req->orch;
        OrchState &o = orchs_[orch];
        Cycles notify = coherence_->write(core, o.completionLine).latency +
                        mesh_->latency(core, o.core,
                                       noc::MsgKind::Control);
        events_.scheduleAfter(notify, [this, orch, r] {
            push(orchs_[orch].completions, r);
            orchDispatchStep(orch);
        });
    }
    orchDispatchStep(e.orch);
}

void
WorkerServer::deliverChildResult(std::uint32_t r, ChildResult result)
{
    Invocation &parent = parentOf(requests_[r]);
    requests_.release(r);
    onChildComplete(parent, result);
}

void
WorkerServer::onChildComplete(Invocation &parent, ChildResult result)
{
    if (parent.pendingChildren == 0)
        sim::panic("child completion with no pending children");
    --parent.pendingChildren;
    parent.childResults.push_back(result);
    if (parent.state == InvState::Suspended &&
        parent.pendingChildren <= parent.resumeThreshold) {
        parent.state = InvState::Resumable;
        push(execs_[parent.exec].resumable, parent.reqSlot);
        execWake(parent.exec);
    }
}

// --- Failure handling -------------------------------------------------------

Cycles
WorkerServer::retryDelayCycles(unsigned attempt) const
{
    Cycles base = sim::usToCycles(cfg_.retryBackoffUs,
                                  cfg_.machine.freqGhz);
    unsigned shift = attempt > 0 ? attempt - 1 : 0;
    // Cap the exponent so a large budget cannot overflow the delay.
    shift = std::min(shift, 20u);
    return std::max<Cycles>(base, 1) << shift;
}

Cycles
WorkerServer::abortReclaim(Invocation &inv, Tick at, bool in_pd)
{
    if (!inv.prologueDone)
        return 0; // nothing was materialised for this invocation
    unsigned core = coreOfExec(inv.exec);
    Cycles busy = 0;

    switch (cfg_.system) {
      case SystemKind::Jord:
      case SystemKind::JordBT: {
        // Mirror the epilogue without the response write-back: the PD
        // must shed every permission before cput accepts it.
        if (!in_pd) {
            privlib::PrivResult ce = privlib_->center(core, inv.pd);
            if (!ce.ok)
                sim::panic("abort center failed: %s",
                           uat::faultName(ce.fault));
            busy += ce.latency;
        }
        for (ChildResult &r : inv.childResults)
            busy += freeArgBuf(core, r.argBuf, r.argBytes);
        inv.childResults.clear();
        // The input ArgBuf goes back to its owner (root for external
        // requests — it is reused verbatim on retry).
        busy += pdTeardown(inv, core);
        break;
      }
      case SystemKind::JordNI: {
        for (ChildResult &r : inv.childResults)
            busy += freeArgBuf(core, r.argBuf, r.argBytes);
        inv.childResults.clear();
        privlib::PrivResult un = privlib_->munmap(
            core, inv.stackHeapVma,
            registry_.at(inv.req->fn).spec.stackHeapBytes);
        if (!un.ok)
            sim::panic("abort stack/heap munmap failed (NI)");
        busy += un.latency;
        break;
      }
      case SystemKind::NightCore:
        // Process/thread state dies with the worker slot; the slot
        // itself is released in finishInvocation.
        break;
    }

    if (result_ && inv.req->measured)
        ++result_->abortedInvocations;
    charge(inv, trace::Category::Isolation, "abort.reclaim", core, at,
           busy);
    return busy;
}

void
WorkerServer::settle(std::uint32_t r)
{
    RequestSlot &slot = requests_[r];
    if (slot.deadlineEv != 0)
        events_.cancel(slot.deadlineEv);
    requests_.release(r);
}

void
WorkerServer::onDeadline(std::uint32_t r)
{
    RequestSlot &slot = requests_[r];
    slot.deadlineEv = 0;
    if (slot.inv != kNoSlot) {
        // In flight: mark it and let the next scheduling point
        // (segment boundary, resume, completion) abort and reclaim.
        Invocation &inv = invocations_[slot.inv];
        if (inv.state != InvState::Done)
            inv.timedOut = true;
        return;
    }
    // Not yet dispatched: if it still sits in the orchestrator's
    // external queue, drop it there. Any other position (executor
    // queue, in transit, retry backoff) is caught lazily by the
    // deadline checks on those paths.
    OrchState &o = orchs_[slot.req.orch];
    if (!unlink(o.external, r))
        return;
    Cycles busy = freeArgBuf(o.core, slot.req.argBuf, slot.req.argBytes);
    recordTerminalFailure(r, Outcome::TimedOut, events_.curTick() + busy);
}

Cycles
WorkerServer::settleFailedAttempt(std::uint32_t r, Outcome outcome,
                                  Cycles busy)
{
    Request &req = requests_[r].req;
    OrchState &o = orchs_[req.orch];
    bool expired = req.deadline && events_.curTick() >= req.deadline;
    if (outcome != Outcome::TimedOut && !expired &&
        req.attempt < cfg_.maxRetries) {
        ++req.attempt;
        Cycles delay = retryDelayCycles(req.attempt);
        double delay_us = sim::cyclesToUs(delay, cfg_.machine.freqGhz);
        if (result_ && req.measured) {
            ++result_->retries;
            result_->retryDelayUs.record(delay_us);
        }
        if (instr_)
            instr_->retry(req, o.core, events_.curTick() + busy, delay);
        req.dispatchCycles = 0;
        events_.scheduleAfter(busy + delay, [this, r] { orchEnqueue(r); });
        return 0;
    }

    Cycles extra = freeArgBuf(o.core, req.argBuf, req.argBytes);
    if (expired) {
        // Whatever killed the last attempt, the client saw a timeout.
        outcome = Outcome::TimedOut;
    }
    recordTerminalFailure(r, outcome, events_.curTick() + busy + extra);
    return extra;
}

void
WorkerServer::recordTerminalFailure(std::uint32_t r, Outcome outcome,
                                    Tick done)
{
    const Request &req = requests_[r].req;
    if (result_ && req.measured) {
        double us = sim::cyclesToUs(done - req.firstArrival,
                                    cfg_.machine.freqGhz);
        if (outcome == Outcome::TimedOut) {
            ++result_->timedOutRequests;
            result_->timedOutUs.record(us);
        } else {
            ++result_->failedRequests;
            result_->failedUs.record(us);
        }
    }
    if (instr_)
        instr_->requestSettled(req,
                               outcome == Outcome::TimedOut
                                   ? Settled::TimedOut
                                   : Settled::Failed,
                               orchs_[req.orch].core, done);
    settle(r);
}

void
WorkerServer::verifyQuiescent()
{
    for (const OrchState &o : orchs_) {
        if (!o.external.empty() || !o.internal.empty() ||
            !o.completions.empty())
            sim::panic("run drained with queued work on orchestrator "
                       "core %u", o.core);
    }
    for (unsigned i = 0; i < execs_.size(); ++i) {
        const ExecState &e = execs_[i];
        if (!e.queue.empty() || !e.resumable.empty() || e.busy ||
            outstanding_[i] != 0)
            sim::panic("run drained with executor core %u not idle",
                       e.core);
    }
    if (invocations_.live() != 0)
        sim::panic("run drained with %zu live invocations",
                   invocations_.live());
    if (requests_.live() != 0)
        sim::panic("run drained with %zu unsettled requests",
                   requests_.live());
    if (liveArgBufs_ != 0)
        sim::panic("ArgBuf leak: %llu VMAs still mapped",
                   static_cast<unsigned long long>(liveArgBufs_));
    // Only the root PD may remain (PrivLib counts it as live).
    if (isJordFamily() && privlib_->numLivePds() != 1)
        sim::panic("PD leak: %u protection domains still live "
                   "(expected only root)", privlib_->numLivePds());
}

double
WorkerServer::measureDispatchScanNs()
{
    std::fill(dirty_.begin(), dirty_.end(), ~std::uint64_t{0});
    unsigned chosen = 0;
    Cycles lat = dispatchScan(orchs_[0], 0, chosen);
    return sim::cyclesToNs(lat, cfg_.machine.freqGhz);
}

// --- Run loop ----------------------------------------------------------------

RunResult
WorkerServer::run(double mrps, std::uint64_t num_requests,
                  const EntryMix &mix, double warmup_frac)
{
    if (mix.empty())
        sim::fatal("empty entry mix");
    if (mrps <= 0)
        sim::fatal("offered load must be positive");

    RunResult result;
    result.offeredMrps = mrps;
    result.perFunctionServiceUs.resize(registry_.size());
    result.perFunctionBreakdown.assign(registry_.size(), Breakdown{});
    result.perFunctionCount.assign(registry_.size(), 0);

    mix_ = mix;
    mixTotal_ = 0;
    for (const auto &[fn, weight] : mix_)
        mixTotal_ += weight;

    events_.reset();
    requests_.clear();
    invocations_.clear();
    liveArgBufs_ = 0;
    for (auto &o : orchs_) {
        o.external = SlotQueue{};
        o.internal = SlotQueue{};
        o.completions = SlotQueue{};
        o.dispatching = false;
    }
    for (auto &e : execs_) {
        e.queue = SlotQueue{};
        e.resumable = SlotQueue{};
        e.busy = false;
        e.running = kNoSlot;
    }
    std::fill(outstanding_.begin(), outstanding_.end(), 0u);
    std::fill(dirty_.begin(), dirty_.end(), ~std::uint64_t{0});

    arrivals_ =
        sim::PoissonArrivals::fromMrps(mrps, cfg_.machine.freqGhz);
    externalLeft_ = num_requests;
    generated_ = 0;
    warmupRequests_ = static_cast<std::uint64_t>(
        static_cast<double>(num_requests) * warmup_frac);
    result_ = &result;
    uat_->shootdownLatency().reset();

    Tick start = events_.curTick();
    scheduleNextArrival();
    if (instr_)
        instr_->runBegin();
    events_.run();
    // Measure to the last *work* event: a trailing profiler sample
    // (a daemon event) must not stretch the run window.
    Tick end = events_.lastWorkTick();
    if (instr_)
        instr_->runEnd(end - start);

    // Leak invariant: every abort path must have returned its PD and
    // ArgBufs; a drained run leaves no runtime state behind.
    verifyQuiescent();

    result_ = nullptr;
    double elapsed_us =
        sim::cyclesToUs(end - start, cfg_.machine.freqGhz);
    double measured_frac =
        num_requests
            ? static_cast<double>(num_requests - warmupRequests_) /
                  static_cast<double>(num_requests)
            : 0;
    if (elapsed_us > 0) {
        result.achievedMrps =
            static_cast<double>(result.completedRequests) /
            (elapsed_us * measured_frac + 1e-9);
        const Breakdown &bd = result.totals;
        double busy_us = sim::cyclesToUs(bd.exec + bd.isolation +
                                             bd.comm + bd.pipe,
                                         cfg_.machine.freqGhz);
        result.executorUtilization =
            busy_us / (elapsed_us * measured_frac *
                           static_cast<double>(execs_.size()) +
                       1e-9);
    }
    result.shootdownNs.merge(uat_->shootdownLatency());
    return result;
}

} // namespace jord::runtime
