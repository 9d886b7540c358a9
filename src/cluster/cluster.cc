#include "cluster/cluster.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/obs.hh"
#include "sim/logging.hh"
#include "trace/metrics.hh"
#include "workloads/sweep.hh"

namespace jord::cluster {

namespace {

// Autoscaling controller: hysteresis via distinct high/low thresholds
// plus a cooldown of control intervals.
constexpr double kControlIntervalUs = 500.0;
/** Scale out when fleet queue occupancy (outstanding / fleet
 * concurrency) exceeds this... */
constexpr double kQueueHigh = 0.75;
/** ...and scale in only when it falls below this. */
constexpr double kQueueLow = 0.25;
/** Scale out when the fraction of the last interval's completions that
 * missed their SLO exceeds this (SLO-burn trigger). */
constexpr double kSloBurnHigh = 0.5;
/** Control intervals to wait after any scaling action. */
constexpr unsigned kCooldownIntervals = 4;

/** Extra service time when no warm PD slot is available. */
constexpr double kColdStartUs = 200.0;
/** How long a slot stays warm after its last use. */
constexpr double kKeepAliveUs = 5000.0;

/** Control ticks an ejected server stays out before re-admission (the
 * base of the doubling probation backoff). */
constexpr unsigned kProbationIntervals = 4;
/** Minimum interval completions before a server's P99 counts. */
constexpr unsigned kEjectMinSamples = 16;
/** Attempts per request beyond the first dispatch. */
constexpr unsigned kRetryMax = 3;
/** Heartbeat period; the LB stops routing to a server after
 * kMissedHeartbeats consecutive missed beats. */
constexpr double kHeartbeatUs = 500.0;
constexpr unsigned kMissedHeartbeats = 3;
/** How long an open circuit breaker sheds its arrivals. */
constexpr double kBreakerCooldownUs = 2000.0;

/** Leading fraction of the duration excluded from measurement. */
constexpr double kWarmupFrac = 0.1;

} // namespace

ClusterSim::ClusterSim(const ClusterConfig &cfg,
                       const ServerModel &model)
    : cfg_(cfg), model_(model), res_(cfg.resilience),
      freqGhz_(cfg.worker.machine.freqGhz),
      source_(cfg.traffic, cfg.seed, cfg.worker.machine.freqGhz),
      lb_(cfg.lb),
      // Independent streams so dispatch draws never perturb service
      // draws (and vice versa) as policies change.
      lbRng_(cfg.seed ^ 0x6c6f616462616cull),
      serviceRng_(cfg.seed ^ 0x73657276696365ull)
{
    if (cfg_.numServers == 0)
        sim::fatal("--cluster needs at least one server");
    maxServers_ = cfg_.numServers;
    if (cfg_.autoscale.enabled) {
        if (cfg_.autoscale.minServers == 0)
            sim::fatal("autoscale minServers must be >= 1");
        maxServers_ = std::max(cfg_.numServers,
                               cfg_.autoscale.maxServers == 0
                                   ? cfg_.numServers
                                   : cfg_.autoscale.maxServers);
        if (cfg_.autoscale.minServers > maxServers_)
            sim::fatal("autoscale minServers %u > maxServers %u",
                       cfg_.autoscale.minServers, maxServers_);
    }
    sloUs_ = cfg_.sloUs > 0
                 ? cfg_.sloUs
                 : workloads::kSloMultiplier * model_.meanLatencyUs;
    warmupTicks_ = static_cast<sim::Tick>(
        static_cast<double>(source_.durationTicks()) * kWarmupFrac);
    keepAliveTicks_ = sim::usToCycles(kKeepAliveUs, freqGhz_);

    injector_.configure(cfg_.faultPlan, cfg_.seed);
    if (injector_.enabled()) {
        const fault::ClusterFaultRates &rates = injector_.rates();
        if (rates.grayServer >= 0 &&
            static_cast<unsigned>(rates.grayServer) >= maxServers_)
            sim::fatal("fault plan: gray_server %d out of range "
                       "(fleet has %u servers)",
                       rates.grayServer, maxServers_);
        windowTicks_ =
            sim::usToCycles(rates.windowMs * 1000.0, freqGhz_);
    }
    // The LB writes off a lost request when it blows through the
    // fleet SLO: the simplest deterministic failure detector.
    failDetectTicks_ = sim::usToCycles(sloUs_, freqGhz_);
    if (res_.hedgeUs > 0)
        hedgeTicks_ = sim::usToCycles(res_.hedgeUs, freqGhz_);
    breakerCooldownTicks_ = sim::usToCycles(kBreakerCooldownUs, freqGhz_);
    useView_ = res_.healthCheck || res_.outlierEject;

    servers_.resize(maxServers_);
    outstanding_.assign(maxServers_, 0);
    healthy_.assign(maxServers_, 1);
    for (Server &server : servers_) {
        server.warm.resize(source_.numTenants());
        server.latencyNs = stats::Histogram(1ull << 40, 64);
    }
    tenantLatencyUs_.resize(source_.numTenants());
    tenantCompleted_.assign(source_.numTenants(), 0);
    tenantShed_.assign(source_.numTenants(), 0);
    tenantFailed_.assign(source_.numTenants(), 0);
    tenantSloOk_.assign(source_.numTenants(), 0);
    if (res_.breaker)
        breakers_.resize(maxServers_ * source_.numTenants());
}

void
ClusterSim::powerOn(std::uint32_t s)
{
    Server &server = servers_[s];
    server.poweredOn = true;
    server.poweredOnAt = events_.curTick();
    // A fresh server boots with prewarmed PD pools (the controller
    // placed the function there before routing traffic to it).
    for (auto &pool : server.warm)
        while (pool.size() < cfg_.coldStart.prewarm)
            pool.push_back(events_.curTick() + keepAliveTicks_);
}

void
ClusterSim::powerOff(std::uint32_t s)
{
    Server &server = servers_[s];
    server.poweredTicks += events_.curTick() - server.poweredOnAt;
    server.poweredOn = false;
}

void
ClusterSim::beginDrain(std::uint32_t s)
{
    servers_[s].inFleet = false;
    active_.erase(std::find(active_.begin(), active_.end(), s));
    if (outstanding_[s] == 0)
        powerOff(s);
}

void
ClusterSim::recordScaleEvent()
{
    ScaleEvent event;
    event.atUs = sim::cyclesToUs(events_.curTick(), freqGhz_);
    event.activeServers = static_cast<unsigned>(active_.size());
    result_.scaleEvents.push_back(event);
}

void
ClusterSim::pumpArrival()
{
    std::optional<Arrival> arrival = source_.next();
    if (!arrival) {
        arrivalsDone_ = true;
        return;
    }
    // Exactly one arrival is pending at a time, so it waits in a
    // member and the closure captures only `this`.
    nextArrival_ = *arrival;
    events_.schedule(nextArrival_.tick, [this] {
        onArrival(nextArrival_);
        pumpArrival();
    });
}

const std::vector<std::uint32_t> &
ClusterSim::routable()
{
    if (!useView_)
        return active_;
    viewScratch_.clear();
    for (std::uint32_t s : active_)
        if (healthy_[s] && !servers_[s].ejected)
            viewScratch_.push_back(s);
    // Fail open: when the detector has excluded everything, routing
    // to the full fleet beats routing to nothing.
    if (viewScratch_.empty())
        return active_;
    return viewScratch_;
}

bool
ClusterSim::breakerOpen(std::uint32_t s, std::uint32_t tenant) const
{
    return breakers_[s * source_.numTenants() + tenant].openUntil >
           events_.curTick();
}

void
ClusterSim::breakerResult(std::uint32_t s, std::uint32_t tenant,
                          bool ok)
{
    Breaker &breaker = breakers_[s * source_.numTenants() + tenant];
    if (ok) {
        breaker.fails = 0;
        return;
    }
    if (++breaker.fails >= res_.breakerThreshold) {
        breaker.fails = 0;
        breaker.openUntil = events_.curTick() + breakerCooldownTicks_;
        ++breakerOpens_;
    }
}

void
ClusterSim::onArrival(const Arrival &arrival)
{
    ++generated_;
    if (inWindow(arrival.tick))
        ++generatedWindow_;
    std::uint32_t s =
        lb_.pick(routable(), outstanding_, arrival.session, lbRng_);
    Server &server = servers_[s];
    bool breaker_open =
        res_.breaker && breakerOpen(s, arrival.tenant);
    if (breaker_open || (cfg_.serverQueueCap != 0 &&
                         outstanding_[s] >= cfg_.serverQueueCap)) {
        // Admission control: the fleet-level mirror of the worker's
        // orchestrator shed cap — overload (or an open breaker)
        // becomes shed requests, never unbounded queues.
        ++server.shed;
        if (breaker_open)
            ++breakerShed_;
        if (inWindow(arrival.tick))
            ++tenantShed_[arrival.tenant];
        if (obs_)
            obs_->onShed(arrival.tick, arrival.tenant, s,
                         breaker_open);
        return;
    }
    std::uint32_t r = allocReq();
    ReqState &req = table_[r];
    req.id = nextReqId_++;
    req.arrival = arrival.tick;
    req.tenant = arrival.tenant;
    req.session = arrival.session;
    if (obs_)
        obs_->onArrival(arrival.tick, req.id, arrival.tenant, s,
                        inWindow(arrival.tick));
    dispatchCopy(r, 0, s);
    if (hedgeTicks_ > 0) {
        req.hedgeEv = events_.scheduleAfter(
            hedgeTicks_, [this, r] { hedgeFire(r); });
        ++req.refs;
    }
}

std::uint32_t
ClusterSim::allocReq()
{
    std::uint32_t r;
    if (freeReqs_.empty()) {
        r = static_cast<std::uint32_t>(table_.size());
        table_.emplace_back();
    } else {
        r = freeReqs_.back();
        freeReqs_.pop_back();
        table_[r] = ReqState{};
    }
    table_[r].live = true;
    return r;
}

void
ClusterSim::scheduleDetection(std::uint32_t r, unsigned copy)
{
    ReqState &req = table_[r];
    Copy &c = req.copies[copy];
    c.state = CopyLost;
    c.ev = events_.scheduleAfter(
        failDetectTicks_, [this, key = copyKey(r, copy)] {
            copyFailed(keyReq(key), keyCopy(key));
        });
    ++req.refs;
}

void
ClusterSim::dispatchCopy(std::uint32_t r, unsigned copy, std::uint32_t s)
{
    ReqState &req = table_[r];
    Copy &c = req.copies[copy];
    c.server = s;
    accrueOccupancy();
    ++outstanding_[s];
    ++totalOutstanding_;
    if (obs_)
        obs_->onOutstanding(events_.curTick(), s, outstanding_[s]);
    if (injector_.enabled()) {
        unsigned attempt = req.attempt;
        if (servers_[s].down ||
            injector_.linkDrop(req.id, attempt, copy)) {
            // The dispatch message is lost (dead server or dropped
            // link); the LB only learns at the failure-detection
            // timeout, so the copy holds its outstanding slot until
            // then.
            if (obs_ && !servers_[s].down)
                obs_->onLinkDrop(events_.curTick(), req.id, s);
            scheduleDetection(r, copy);
            return;
        }
        if (injector_.linkDelay(req.id, attempt, copy)) {
            if (obs_)
                obs_->onLinkDelay(events_.curTick(), req.id, s);
            c.state = CopyInFlight;
            c.ev = events_.scheduleAfter(
                sim::usToCycles(injector_.rates().linkDelayUs,
                                freqGhz_),
                [this, key = copyKey(r, copy)] {
                    std::uint32_t q = keyReq(key);
                    unsigned k = keyCopy(key);
                    ReqState &landed = table_[q];
                    --landed.refs;
                    if (landed.copies[k].state == CopyInFlight)
                        enqueueCopy(q, k, landed.copies[k].server);
                    else
                        maybeFree(q);
                });
            ++req.refs;
            return;
        }
    }
    enqueueCopy(r, copy, s);
}

void
ClusterSim::enqueueCopy(std::uint32_t r, unsigned copy, std::uint32_t s)
{
    ReqState &req = table_[r];
    if (servers_[s].down) {
        // A link-delayed message landing on a box that crashed while
        // it was in flight.
        scheduleDetection(r, copy);
        return;
    }
    req.copies[copy].state = CopyQueued;
    servers_[s].queue.push_back(
        QEntry{r, static_cast<std::uint8_t>(copy)});
    ++req.refs;
    if (obs_)
        obs_->onQueue(events_.curTick(), req.id, copy, s);
    tryStart(s);
}

double
ClusterSim::grayFactor(std::uint32_t s) const
{
    if (!injector_.enabled())
        return 1.0;
    std::uint64_t window =
        windowTicks_ ? events_.curTick() / windowTicks_ : 0;
    return injector_.grayWindow(s, window)
               ? injector_.rates().grayMult
               : 1.0;
}

void
ClusterSim::tryStart(std::uint32_t s)
{
    Server &server = servers_[s];
    sim::Tick now = events_.curTick();
    while (server.running < model_.concurrency &&
           !server.queue.empty()) {
        QEntry entry = server.queue.front();
        server.queue.pop_front();
        ReqState &req = table_[entry.req];
        Copy &c = req.copies[entry.copy];
        --req.refs;
        if (c.state != CopyQueued) {
            // A cancelled hedge loser; its outstanding slot was
            // already released when it lost.
            maybeFree(entry.req);
            continue;
        }
        auto &pool = server.warm[req.tenant];
        while (!pool.empty() && pool.front() < now)
            pool.pop_front();
        double cold_us = 0;
        if (!pool.empty())
            pool.pop_front();
        else {
            cold_us = kColdStartUs;
            ++server.coldStarts;
        }
        double service_us =
            model_.drawServiceUs(serviceRng_) * grayFactor(s) +
            cold_us;
        ++server.running;
        c.state = CopyRunning;
        if (obs_)
            obs_->onStart(now, req.id, entry.copy, s, req.tenant,
                          cold_us > 0);
        std::uint64_t key = copyKey(entry.req, entry.copy);
        c.ev = events_.scheduleAfter(
            sim::usToCycles(service_us, freqGhz_), [this, key] {
                copyCompleted(keyReq(key), keyCopy(key));
            });
        ++req.refs;
        server.runningCopies.push_back(key);
    }
}

void
ClusterSim::copyCompleted(std::uint32_t r, unsigned copy)
{
    ReqState &req = table_[r];
    Copy &c = req.copies[copy];
    std::uint32_t s = c.server;
    Server &server = servers_[s];
    sim::Tick now = events_.curTick();
    --req.refs;
    c.state = CopyDead;
    server.runningCopies.erase(std::find(server.runningCopies.begin(),
                                         server.runningCopies.end(),
                                         copyKey(r, copy)));
    accrueOccupancy();
    --server.running;
    --outstanding_[s];
    --totalOutstanding_;
    if (obs_)
        obs_->onOutstanding(now, s, outstanding_[s]);
    ++server.completed;
    req.done = true;
    if (copy == 1)
        ++hedgeWins_;

    double latency_us =
        sim::cyclesToUs(now - req.arrival, freqGhz_);
    double tenant_slo =
        sloUs_ * source_.tenant(req.tenant).sloMultiplier;
    ++intervalCompleted_;
    if (latency_us > tenant_slo)
        ++intervalSloMiss_;
    // Outlier detection samples only first-attempt primary
    // completions: their arrival-to-completion time is this server's
    // own queue + service path. A hedge win or retry would attribute
    // time the request spent stuck on a *different* server to this
    // one, masking the true outlier from the detector.
    if (res_.outlierEject && copy == 0 && req.attempt == 0)
        server.intervalUs.record(latency_us);
    if (res_.breaker)
        breakerResult(s, req.tenant, true);
    if (inWindow(req.arrival)) {
        server.latencyNs.record(static_cast<std::uint64_t>(
            sim::cyclesToNs(now - req.arrival, freqGhz_)));
        tenantLatencyUs_[req.tenant].record(latency_us);
        ++tenantCompleted_[req.tenant];
        ++completedWindow_;
        if (latency_us <= tenant_slo) {
            ++tenantSloOk_[req.tenant];
            ++sloOkWindow_;
        }
    }
    // The finished PD stays warm for the keep-alive window.
    server.warm[req.tenant].push_back(now + keepAliveTicks_);

    if (req.hedgeEv) {
        if (events_.cancel(req.hedgeEv))
            --req.refs;
        req.hedgeEv = 0;
    }
    resolveLoser(r, 1 - copy);
    if (obs_)
        obs_->onComplete(now, req.id, copy, s, req.tenant,
                         static_cast<std::uint64_t>(sim::cyclesToNs(
                             now - req.arrival, freqGhz_)),
                         latency_us > tenant_slo);

    tryStart(s);
    if (!server.inFleet && outstanding_[s] == 0 && server.poweredOn)
        powerOff(s);
    checkRecovered();
    maybeFree(r);
}

void
ClusterSim::resolveLoser(std::uint32_t r, unsigned copy)
{
    ReqState &req = table_[r];
    Copy &c = req.copies[copy];
    // A primary that lost to its hedge is outlier evidence against the
    // server that held it: the request sat there at least until the
    // hedge finished elsewhere. Without this right-censored sample a
    // slow server's worst completions are exactly the ones hedging
    // cancels, and the detector starves below kEjectMinSamples.
    if (res_.outlierEject && copy == 0 && req.attempt == 0 &&
        (c.state == CopyQueued || c.state == CopyRunning))
        servers_[c.server].intervalUs.record(sim::cyclesToUs(
            events_.curTick() - req.arrival, freqGhz_));
    switch (c.state) {
    case CopyQueued:
        // The entry stays in its server's queue; tryStart skips it.
        // Its outstanding slot frees now (the LB cancelled it).
        c.state = CopyDead;
        accrueOccupancy();
        --outstanding_[c.server];
        --totalOutstanding_;
        if (obs_) {
            obs_->onOutstanding(events_.curTick(), c.server,
                                outstanding_[c.server]);
            obs_->onHedgeLoser(events_.curTick(), req.id, copy,
                               c.server);
        }
        break;
    case CopyInFlight:
        if (events_.cancel(c.ev))
            --req.refs;
        c.state = CopyDead;
        accrueOccupancy();
        --outstanding_[c.server];
        --totalOutstanding_;
        if (obs_) {
            obs_->onOutstanding(events_.curTick(), c.server,
                                outstanding_[c.server]);
            obs_->onHedgeLoser(events_.curTick(), req.id, copy,
                               c.server);
        }
        break;
    case CopyRunning: {
        // Cancellation frees the executor mid-request: the winning
        // copy's completion both cancels the loser's completion event
        // and releases its concurrency slot. The loser's PD survives
        // the cancel, so the warm slot it consumed at start goes back
        // to the pool — without this, every hedge win leaks one slot
        // and the fleet bleeds cold starts.
        Server &loser = servers_[c.server];
        if (events_.cancel(c.ev))
            --req.refs;
        loser.runningCopies.erase(
            std::find(loser.runningCopies.begin(),
                      loser.runningCopies.end(), copyKey(r, copy)));
        c.state = CopyDead;
        accrueOccupancy();
        --loser.running;
        --outstanding_[c.server];
        --totalOutstanding_;
        if (obs_) {
            obs_->onOutstanding(events_.curTick(), c.server,
                                outstanding_[c.server]);
            obs_->onHedgeLoser(events_.curTick(), req.id, copy,
                               c.server);
        }
        loser.warm[req.tenant].push_back(events_.curTick() +
                                         keepAliveTicks_);
        tryStart(c.server);
        break;
    }
    case CopyLost:
        // Nothing to cancel: the detection timeout still fires and
        // releases the slot then.
        break;
    default:
        break;
    }
}

void
ClusterSim::copyFailed(std::uint32_t r, unsigned copy)
{
    ReqState &req = table_[r];
    Copy &c = req.copies[copy];
    std::uint32_t s = c.server;
    --req.refs;
    c.state = CopyDead;
    accrueOccupancy();
    --outstanding_[s];
    --totalOutstanding_;
    if (obs_)
        obs_->onOutstanding(events_.curTick(), s, outstanding_[s]);
    if (req.done) {
        // The hedge twin already completed; this was only the LB
        // noticing the lost copy and releasing its slot.
        checkRecovered();
        maybeFree(r);
        return;
    }
    if (res_.breaker)
        breakerResult(s, req.tenant, false);
    const Copy &other = req.copies[1 - copy];
    if (other.state == CopyQueued || other.state == CopyInFlight ||
        other.state == CopyRunning || other.state == CopyLost) {
        // The twin can still win (or will fail on its own timer).
        maybeFree(r);
        return;
    }
    // Retry under the fleet-wide budget, or write the request off.
    bool retry =
        res_.retryBudgetFrac > 0 && req.attempt < kRetryMax &&
        static_cast<double>(retries_ + 1) <=
            res_.retryBudgetFrac * static_cast<double>(generated_);
    if (retry) {
        std::uint32_t t = lb_.pick(routable(), outstanding_,
                                   req.session, lbRng_);
        if ((res_.breaker && breakerOpen(t, req.tenant)) ||
            (cfg_.serverQueueCap != 0 &&
             outstanding_[t] >= cfg_.serverQueueCap)) {
            retry = false; // nowhere left to send it
        } else {
            ++retries_;
            ++req.attempt;
            if (obs_)
                obs_->onRetry(events_.curTick(), req.id, req.attempt,
                              t);
            req.copies[0] = Copy{};
            dispatchCopy(r, 0, t);
            checkRecovered();
            return;
        }
    }
    req.done = true;
    ++failed_;
    ++servers_[s].failed;
    ++tenantFailed_[req.tenant];
    if (inWindow(req.arrival))
        ++failedWindow_;
    if (obs_)
        obs_->onFailed(events_.curTick(), req.id, req.tenant, s);
    checkRecovered();
    maybeFree(r);
}

void
ClusterSim::hedgeFire(std::uint32_t r)
{
    ReqState &req = table_[r];
    --req.refs;
    req.hedgeEv = 0;
    // Hedge only the original attempt: a retry already got a second
    // chance out of the retry budget.
    if (req.done || req.attempt > 0) {
        maybeFree(r);
        return;
    }
    if (res_.hedgeBudgetFrac > 0 &&
        static_cast<double>(hedges_ + 1) >
            res_.hedgeBudgetFrac * static_cast<double>(generated_)) {
        maybeFree(r);
        return;
    }
    std::uint32_t primary = req.copies[0].server;
    const std::vector<std::uint32_t> &base = routable();
    sim::Tick now = events_.curTick();
    hedgeScratch_.clear();
    for (std::uint32_t s : base) {
        if (s == primary)
            continue;
        // Warm targets only: a cold-started hedge pays kColdStartUs,
        // which dwarfs the SLO — it can never beat the primary it is
        // meant to rescue, and its executor time is pure added load.
        // Expiries are ascending, so the back entry tells us whether
        // any slot is still warm without mutating the pool.
        const auto &pool = servers_[s].warm[req.tenant];
        if (!pool.empty() && pool.back() >= now)
            hedgeScratch_.push_back(s);
    }
    if (hedgeScratch_.empty()) {
        maybeFree(r);
        return;
    }
    std::uint32_t s = lb_.pick(hedgeScratch_, outstanding_,
                               req.session, lbRng_);
    if ((cfg_.serverQueueCap != 0 &&
         outstanding_[s] >= cfg_.serverQueueCap) ||
        (res_.breaker && breakerOpen(s, req.tenant))) {
        // Hedges are best-effort: a full or broken target means no
        // second copy, never a shed.
        maybeFree(r);
        return;
    }
    ++hedges_;
    if (obs_)
        obs_->onHedge(now, req.id, s);
    dispatchCopy(r, 1, s);
}

void
ClusterSim::scheduleFaultEvents()
{
    if (!injector_.enabled())
        return;
    const fault::ClusterFaultRates &rates = injector_.rates();
    if (rates.serverCrash > 0 && windowTicks_ > 0) {
        std::uint64_t windows =
            source_.durationTicks() / windowTicks_;
        for (std::uint64_t w = 0; w < windows; ++w)
            for (std::uint32_t s = 0; s < maxServers_; ++s)
                if (injector_.crashes(s, w)) {
                    double frac = injector_.crashOffset(s, w);
                    events_.schedule(
                        w * windowTicks_ +
                            static_cast<sim::Tick>(
                                frac * static_cast<double>(
                                           windowTicks_)),
                        [this, s] { crashServer(s); });
                }
    }
    if (rates.crashAtMs >= 0) {
        sim::Tick at =
            sim::usToCycles(rates.crashAtMs * 1000.0, freqGhz_);
        auto count = static_cast<std::uint32_t>(
            std::ceil(rates.crashFrac *
                      static_cast<double>(cfg_.numServers)));
        count = std::min(count, cfg_.numServers);
        for (std::uint32_t s = 0; s < count; ++s)
            events_.schedule(at, [this, s] { crashServer(s); });
    }
}

void
ClusterSim::crashServer(std::uint32_t s)
{
    Server &server = servers_[s];
    if (!server.poweredOn || server.down)
        return;
    ++crashes_;
    if (obs_)
        obs_->onCrash(events_.curTick(), s);
    if (firstCrashTick_ == kNoTick) {
        firstCrashTick_ = events_.curTick();
        outstandingAtCrash_ = totalOutstanding_;
    }
    server.down = true;
    ++downCount_;
    // The crash destroys all warm PD state and kills every queued and
    // running request on the box; the LB only learns per request at
    // the failure-detection timeout (or, with health checking on, the
    // heartbeat detector stops routing there sooner).
    for (auto &pool : server.warm)
        pool.clear();
    while (!server.queue.empty()) {
        QEntry entry = server.queue.front();
        server.queue.pop_front();
        ReqState &req = table_[entry.req];
        --req.refs;
        if (req.copies[entry.copy].state == CopyQueued && !req.done)
            scheduleDetection(entry.req, entry.copy);
        else
            maybeFree(entry.req);
    }
    for (std::uint64_t key : server.runningCopies) {
        ReqState &req = table_[keyReq(key)];
        if (events_.cancel(req.copies[keyCopy(key)].ev))
            --req.refs;
        scheduleDetection(keyReq(key), keyCopy(key));
    }
    server.runningCopies.clear();
    server.running = 0;
    // Groundhog-style recovery: a base reboot plus a snapshot-restore
    // cost per warm slot the restarted server re-prewarms, so the
    // richer the pool state the crash destroyed, the longer the
    // outage.
    double recover_us =
        injector_.rates().restartMs * 1000.0 +
        injector_.rates().recoverUsPerSlot *
            static_cast<double>(cfg_.coldStart.prewarm) *
            static_cast<double>(source_.numTenants());
    events_.scheduleAfter(sim::usToCycles(recover_us, freqGhz_),
                          [this, s] { restartServer(s); });
}

void
ClusterSim::restartServer(std::uint32_t s)
{
    Server &server = servers_[s];
    server.down = false;
    --downCount_;
    ++restarts_;
    if (obs_)
        obs_->onRestart(events_.curTick(), s);
    server.missedBeats = 0;
    // The snapshot restore we just paid for brings the pools back.
    if (server.poweredOn)
        for (auto &pool : server.warm)
            while (pool.size() < cfg_.coldStart.prewarm)
                pool.push_back(events_.curTick() + keepAliveTicks_);
    checkRecovered();
}

void
ClusterSim::heartbeatTick()
{
    for (std::uint32_t s = 0; s < maxServers_; ++s) {
        Server &server = servers_[s];
        if (server.down) {
            if (server.missedBeats < kMissedHeartbeats)
                ++server.missedBeats;
            if (server.missedBeats >= kMissedHeartbeats)
                healthy_[s] = 0;
        } else {
            server.missedBeats = 0;
            healthy_[s] = 1;
        }
    }
    if (!arrivalsDone_ || totalOutstanding_ > 0)
        events_.scheduleAfter(
            sim::usToCycles(kHeartbeatUs, freqGhz_),
            [this] { heartbeatTick(); });
}

void
ClusterSim::outlierTick()
{
    // Interval P99s of the active servers with enough samples; eject
    // any above ejectMult x the fleet median, re-admit after
    // probation (a still-gray server just gets re-ejected).
    std::vector<double> p99s;
    for (std::uint32_t s : active_) {
        Server &server = servers_[s];
        if (server.ejected) {
            if (server.probation > 0 && --server.probation == 0)
                server.ejected = false;
            continue;
        }
        if (!server.down &&
            server.intervalUs.count() >= kEjectMinSamples)
            p99s.push_back(server.intervalUs.p99());
    }
    if (p99s.size() >= 2) {
        std::vector<double> sorted = p99s;
        std::sort(sorted.begin(), sorted.end());
        double median = sorted[(sorted.size() - 1) / 2];
        for (std::uint32_t s : active_) {
            Server &server = servers_[s];
            if (server.ejected || server.down ||
                server.intervalUs.count() < kEjectMinSamples)
                continue;
            if (server.intervalUs.p99() > res_.ejectMult * median) {
                // Probation backs off exponentially with consecutive
                // re-ejections: a persistently gray server would
                // otherwise re-pollute the fleet for a full detection
                // interval on every re-admission.
                server.ejected = true;
                server.probation = kProbationIntervals
                                   << std::min(server.ejectStreak, 6u);
                ++server.ejectStreak;
                ++ejections_;
            } else {
                server.ejectStreak = 0;
            }
        }
    }
    for (Server &server : servers_)
        server.intervalUs.reset();
}

void
ClusterSim::checkRecovered()
{
    if (firstCrashTick_ != kNoTick && ttrTicks_ == kNoTick &&
        downCount_ == 0 && totalOutstanding_ <= outstandingAtCrash_)
        ttrTicks_ = events_.curTick() - firstCrashTick_;
}

void
ClusterSim::maybeFree(std::uint32_t r)
{
    ReqState &req = table_[r];
    if (req.live && req.refs == 0) {
        req.live = false;
        freeReqs_.push_back(r);
    }
}

void
ClusterSim::obsSnapshot(std::vector<obs::ServerSnapshot> &snap) const
{
    sim::Tick now = events_.curTick();
    snap.clear();
    snap.reserve(maxServers_);
    for (std::uint32_t s = 0; s < maxServers_; ++s) {
        const Server &server = servers_[s];
        obs::ServerSnapshot entry;
        entry.queued =
            static_cast<std::uint32_t>(server.queue.size());
        entry.running = server.running;
        // Expiries are ascending; count the live tail without
        // mutating the pools.
        for (const auto &pool : server.warm)
            entry.warmSlots += static_cast<std::uint64_t>(
                pool.end() -
                std::lower_bound(pool.begin(), pool.end(), now));
        snap.push_back(entry);
    }
}

void
ClusterSim::obsTick()
{
    std::vector<obs::ServerSnapshot> snap;
    obsSnapshot(snap);
    obs_->flushWindow(events_.curTick(), snap);
    if (!arrivalsDone_ || totalOutstanding_ > 0)
        events_.scheduleAfter(obs_->windowTicks(),
                              [this] { obsTick(); });
}

void
ClusterSim::accrueOccupancy()
{
    sim::Tick now = events_.curTick();
    outstandingIntegral_ +=
        static_cast<std::uint64_t>(totalOutstanding_) *
        (now - lastOccupancyUpdate_);
    lastOccupancyUpdate_ = now;
}

void
ClusterSim::controlTick()
{
    sim::Tick now = events_.curTick();
    accrueOccupancy();
    if (cfg_.autoscale.enabled) {
        double interval_ticks =
            static_cast<double>(now - intervalStart_);
        double avg_outstanding =
            interval_ticks > 0
                ? static_cast<double>(outstandingIntegral_) /
                      interval_ticks
                : 0.0;
        double fleet_conc = static_cast<double>(active_.size()) *
                            static_cast<double>(model_.concurrency);
        double occupancy =
            fleet_conc > 0 ? avg_outstanding / fleet_conc : 0.0;
        double burn = intervalCompleted_
                          ? static_cast<double>(intervalSloMiss_) /
                                static_cast<double>(intervalCompleted_)
                          : 0.0;
        if (cooldown_ > 0) {
            --cooldown_;
        } else if ((occupancy > kQueueHigh || burn > kSloBurnHigh) &&
                   active_.size() < maxServers_) {
            // Scale out: reuse the lowest-index parked server (a
            // draining one is re-enlisted without a power cycle).
            // A crashed server is not a capacity candidate.
            for (std::uint32_t s = 0; s < maxServers_; ++s) {
                if (servers_[s].inFleet || servers_[s].down)
                    continue;
                if (!servers_[s].poweredOn)
                    powerOn(s);
                servers_[s].inFleet = true;
                active_.insert(std::lower_bound(active_.begin(),
                                                active_.end(), s),
                               s);
                break;
            }
            cooldown_ = kCooldownIntervals;
            recordScaleEvent();
        } else if (occupancy < kQueueLow && burn <= kSloBurnHigh &&
                   active_.size() > cfg_.autoscale.minServers) {
            // Scale in: drain the highest-index active server; it
            // powers off once its outstanding requests finish.
            beginDrain(active_.back());
            cooldown_ = kCooldownIntervals;
            recordScaleEvent();
        }
    }
    intervalCompleted_ = 0;
    intervalSloMiss_ = 0;
    outstandingIntegral_ = 0;
    intervalStart_ = now;

    if (res_.outlierEject)
        outlierTick();

    // PD-pool scaling: replenish each active server's warm pools to
    // the prewarm target so steady traffic rarely cold-starts. A
    // crashed server's pools stay empty until its restart restores
    // them.
    if (cfg_.coldStart.prewarm > 0) {
        for (std::uint32_t s : active_) {
            if (servers_[s].down)
                continue;
            for (auto &pool : servers_[s].warm) {
                while (!pool.empty() && pool.front() < now)
                    pool.pop_front();
                while (pool.size() < cfg_.coldStart.prewarm)
                    pool.push_back(now + keepAliveTicks_);
            }
        }
    }

    if (!arrivalsDone_ || totalOutstanding_ > 0)
        events_.scheduleAfter(
            sim::usToCycles(kControlIntervalUs, freqGhz_),
            [this] { controlTick(); });
}

ClusterResult
ClusterSim::run()
{
    unsigned initial = cfg_.numServers;
    if (cfg_.autoscale.enabled)
        initial = std::clamp(initial, cfg_.autoscale.minServers,
                             maxServers_);
    for (std::uint32_t s = 0; s < initial; ++s) {
        powerOn(s);
        servers_[s].inFleet = true;
        active_.push_back(s);
    }
    recordScaleEvent();

    pumpArrival();
    if (cfg_.autoscale.enabled || cfg_.coldStart.prewarm > 0 ||
        res_.outlierEject)
        events_.scheduleAfter(
            sim::usToCycles(kControlIntervalUs, freqGhz_),
            [this] { controlTick(); });
    if (res_.healthCheck)
        events_.scheduleAfter(
            sim::usToCycles(kHeartbeatUs, freqGhz_),
            [this] { heartbeatTick(); });
    scheduleFaultEvents();
    if (obs_) {
        if (obs_->config().windowed())
            events_.scheduleAfter(obs_->windowTicks(),
                                  [this] { obsTick(); });
        // Gray ground truth is a pure replay of the injector's hash
        // decisions, so it can be enumerated up front.
        if (injector_.enabled() && windowTicks_ > 0) {
            std::uint64_t windows =
                source_.durationTicks() / windowTicks_ + 1;
            for (const fault::GrayIncident &gray :
                 injector_.grayIncidents(maxServers_, windows))
                obs_->onGrayRun(gray.beginWindow * windowTicks_,
                                gray.endWindow * windowTicks_,
                                gray.server);
        } else if (injector_.enabled() &&
                   injector_.rates().grayServer >= 0) {
            obs_->onGrayRun(0, source_.durationTicks(),
                            static_cast<std::uint32_t>(
                                injector_.rates().grayServer));
        }
    }
    events_.run();

    sim::Tick end = events_.curTick();
    if (obs_) {
        std::vector<obs::ServerSnapshot> snap;
        obsSnapshot(snap);
        obs_->finalize(end, snap);
    }
    for (std::uint32_t s = 0; s < maxServers_; ++s)
        if (servers_[s].poweredOn) {
            servers_[s].poweredTicks += end - servers_[s].poweredOnAt;
            servers_[s].poweredOnAt = end;
        }

    double window_us = sim::cyclesToUs(
        source_.durationTicks() - warmupTicks_, freqGhz_);
    result_.sloUs = sloUs_;
    result_.generated = generated_;
    result_.offeredMrps =
        static_cast<double>(generatedWindow_) / window_us;
    result_.achievedMrps =
        static_cast<double>(completedWindow_) / window_us;
    result_.goodputMrps =
        static_cast<double>(sloOkWindow_) / window_us;

    // Fleet-wide latency: merge the per-server histograms (identical
    // geometry by construction).
    stats::Histogram fleet(1ull << 40, 64);
    for (const Server &server : servers_) {
        fleet.merge(server.latencyNs);
        result_.completed += server.completed;
        result_.shed += server.shed;
        result_.coldStarts += server.coldStarts;
    }
    if (!fleet.empty()) {
        result_.meanUs = fleet.mean() / 1000.0;
        result_.p50Us =
            static_cast<double>(fleet.p50()) / 1000.0;
        result_.p99Us =
            static_cast<double>(fleet.p99()) / 1000.0;
    }

    result_.failed = failed_;
    result_.retries = retries_;
    result_.hedges = hedges_;
    result_.hedgeWins = hedgeWins_;
    result_.crashes = crashes_;
    result_.restarts = restarts_;
    result_.ejections = ejections_;
    result_.breakerOpens = breakerOpens_;
    result_.breakerShed = breakerShed_;
    if (crashes_ == 0)
        result_.timeToRecoverUs = 0;
    else if (ttrTicks_ != kNoTick)
        result_.timeToRecoverUs =
            sim::cyclesToUs(ttrTicks_, freqGhz_);
    else
        result_.timeToRecoverUs = -1;
    if (generatedWindow_ > 0)
        result_.sloBurn =
            static_cast<double>(completedWindow_ - sloOkWindow_ +
                                failedWindow_) /
            static_cast<double>(generatedWindow_);

    double ticks_per_second = freqGhz_ * 1e9;
    for (std::uint32_t s = 0; s < maxServers_; ++s) {
        const Server &server = servers_[s];
        ServerStats stats;
        stats.completed = server.completed;
        stats.shed = server.shed;
        stats.failed = server.failed;
        stats.coldStarts = server.coldStarts;
        if (!server.latencyNs.empty())
            stats.p99Us =
                static_cast<double>(server.latencyNs.p99()) / 1000.0;
        stats.activeSeconds =
            static_cast<double>(server.poweredTicks) /
            ticks_per_second;
        result_.costServerSeconds += stats.activeSeconds;
        result_.servers.push_back(stats);
    }

    for (std::size_t t = 0; t < source_.numTenants(); ++t) {
        const TenantSpec &spec = source_.tenant(t);
        TenantStats stats;
        stats.name = spec.name;
        stats.sloUs = sloUs_ * spec.sloMultiplier;
        stats.completed = tenantCompleted_[t];
        stats.shed = tenantShed_[t];
        stats.failed = tenantFailed_[t];
        if (!tenantLatencyUs_[t].empty())
            stats.p99Us = tenantLatencyUs_[t].p99();
        if (tenantCompleted_[t] > 0)
            stats.sloAttainment =
                static_cast<double>(tenantSloOk_[t]) /
                static_cast<double>(tenantCompleted_[t]);
        result_.tenants.push_back(stats);
    }

    result_.finalActiveServers = static_cast<unsigned>(active_.size());
    return result_;
}

void
attachClusterMetrics(const ClusterResult &result,
                     trace::MetricsRegistry &registry)
{
    registry.counter("cluster.generated").add(result.generated);
    registry.counter("cluster.completed").add(result.completed);
    registry.counter("cluster.shed").add(result.shed);
    registry.counter("cluster.cold_starts").add(result.coldStarts);
    registry.gauge("cluster.goodput_mrps").set(result.goodputMrps, 0);
    registry.gauge("cluster.p99_us").set(result.p99Us, 0);
    registry.gauge("cluster.cost_server_s")
        .set(result.costServerSeconds, 0);
    // Chaos metrics only appear when chaos (or a mechanism) actually
    // produced activity, so fault-free runs keep their metric set —
    // and their output bytes — unchanged.
    if (result.failed || result.retries || result.hedges ||
        result.crashes || result.restarts || result.ejections ||
        result.breakerOpens) {
        registry.counter("cluster.failed").add(result.failed);
        registry.counter("cluster.retries").add(result.retries);
        registry.counter("cluster.hedges").add(result.hedges);
        registry.counter("cluster.hedge_wins").add(result.hedgeWins);
        registry.counter("cluster.crashes").add(result.crashes);
        registry.counter("cluster.restarts").add(result.restarts);
        registry.counter("cluster.ejections").add(result.ejections);
        registry.counter("cluster.breaker_opens")
            .add(result.breakerOpens);
        registry.counter("cluster.breaker_shed")
            .add(result.breakerShed);
        registry.gauge("cluster.ttr_us")
            .set(result.timeToRecoverUs, 0);
        registry.gauge("cluster.slo_burn").set(result.sloBurn, 0);
    }
    for (std::size_t s = 0; s < result.servers.size(); ++s) {
        const ServerStats &server = result.servers[s];
        std::string prefix =
            "cluster.server" + std::to_string(s) + ".";
        registry.counter(prefix + "completed").add(server.completed);
        registry.counter(prefix + "shed").add(server.shed);
        if (server.failed)
            registry.counter(prefix + "failed").add(server.failed);
        registry.counter(prefix + "cold_starts")
            .add(server.coldStarts);
        registry.gauge(prefix + "p99_us").set(server.p99Us, 0);
        registry.gauge(prefix + "active_s")
            .set(server.activeSeconds, 0);
    }
    for (const TenantStats &tenant : result.tenants) {
        std::string prefix = "cluster.tenant." + tenant.name + ".";
        registry.counter(prefix + "completed").add(tenant.completed);
        registry.counter(prefix + "shed").add(tenant.shed);
        if (tenant.failed)
            registry.counter(prefix + "failed").add(tenant.failed);
        registry.gauge(prefix + "p99_us").set(tenant.p99Us, 0);
        registry.gauge(prefix + "slo_attainment")
            .set(tenant.sloAttainment, 0);
    }
}

} // namespace jord::cluster
