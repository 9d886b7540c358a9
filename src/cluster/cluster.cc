#include "cluster/cluster.hh"

#include <algorithm>
#include <optional>

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

/** Leading fraction of the duration excluded from measurement. */
constexpr double kWarmupFrac = 0.1;

} // namespace


ClusterSim::ClusterSim(const ClusterConfig &cfg,
                       const ServerModel &model)
    : cfg_(cfg), model_(model), freqGhz_(cfg.worker.machine.freqGhz),
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

    servers_.resize(maxServers_);
    outstanding_.assign(maxServers_, 0);
    for (Server &server : servers_) {
        server.warm.resize(source_.numTenants());
        server.latencyNs = stats::Histogram(1ull << 40, 64);
    }
    tenantLatencyUs_.resize(source_.numTenants());
    tenantCompleted_.assign(source_.numTenants(), 0);
    tenantShed_.assign(source_.numTenants(), 0);
    tenantSloOk_.assign(source_.numTenants(), 0);
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

void
ClusterSim::onArrival(const Arrival &arrival)
{
    ++generated_;
    if (inWindow(arrival.tick))
        ++generatedWindow_;
    std::uint32_t s =
        lb_.pick(active_, outstanding_, arrival.session, lbRng_);
    Server &server = servers_[s];
    if (cfg_.serverQueueCap != 0 &&
        outstanding_[s] >= cfg_.serverQueueCap) {
        // Admission control: the fleet-level mirror of the worker's
        // orchestrator shed cap — overload becomes shed requests,
        // never unbounded queues.
        ++server.shed;
        if (inWindow(arrival.tick))
            ++tenantShed_[arrival.tenant];
        return;
    }
    accrueOccupancy();
    ++outstanding_[s];
    ++totalOutstanding_;
    server.queue.push_back(QEntry{arrival.tick, arrival.tenant});
    tryStart(s);
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
        auto &pool = server.warm[entry.tenant];
        while (!pool.empty() && pool.front() < now)
            pool.pop_front();
        double cold_us = 0;
        if (!pool.empty())
            pool.pop_front();
        else {
            cold_us = kColdStartUs;
            ++server.coldStarts;
        }
        double service_us = model_.drawServiceUs(serviceRng_) + cold_us;
        ++server.running;
        // The closure carries the request: (this, server, tenant,
        // arrival) is 24 bytes, sim::EventFn's inline budget.
        events_.scheduleAfter(
            sim::usToCycles(service_us, freqGhz_),
            [this, s, tenant = entry.tenant, arrival = entry.arrival] {
                complete(s, tenant, arrival);
            });
    }
}

void
ClusterSim::complete(std::uint32_t s, std::uint32_t tenant,
                     sim::Tick arrival)
{
    Server &server = servers_[s];
    sim::Tick now = events_.curTick();
    accrueOccupancy();
    --server.running;
    --outstanding_[s];
    --totalOutstanding_;
    ++server.completed;

    double latency_us = sim::cyclesToUs(now - arrival, freqGhz_);
    double tenant_slo = sloUs_ * source_.tenant(tenant).sloMultiplier;
    ++intervalCompleted_;
    if (latency_us > tenant_slo)
        ++intervalSloMiss_;
    if (inWindow(arrival)) {
        server.latencyNs.record(static_cast<std::uint64_t>(
            sim::cyclesToNs(now - arrival, freqGhz_)));
        tenantLatencyUs_[tenant].record(latency_us);
        ++tenantCompleted_[tenant];
        ++completedWindow_;
        if (latency_us <= tenant_slo) {
            ++tenantSloOk_[tenant];
            ++sloOkWindow_;
        }
    }
    // The finished PD stays warm for the keep-alive window.
    server.warm[tenant].push_back(now + keepAliveTicks_);

    tryStart(s);
    if (!server.inFleet && outstanding_[s] == 0 && server.poweredOn)
        powerOff(s);
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
            for (std::uint32_t s = 0; s < maxServers_; ++s) {
                if (servers_[s].inFleet)
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

    // PD-pool scaling: replenish each active server's warm pools to
    // the prewarm target so steady traffic rarely cold-starts.
    if (cfg_.coldStart.prewarm > 0) {
        for (std::uint32_t s : active_) {
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
    if (cfg_.autoscale.enabled || cfg_.coldStart.prewarm > 0)
        events_.scheduleAfter(
            sim::usToCycles(kControlIntervalUs, freqGhz_),
            [this] { controlTick(); });
    events_.run();

    sim::Tick end = events_.curTick();
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

    if (generatedWindow_ > 0)
        result_.sloBurn =
            static_cast<double>(completedWindow_ - sloOkWindow_) /
            static_cast<double>(generatedWindow_);

    double ticks_per_second = freqGhz_ * 1e9;
    for (std::uint32_t s = 0; s < maxServers_; ++s) {
        const Server &server = servers_[s];
        ServerStats stats;
        stats.completed = server.completed;
        stats.shed = server.shed;
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
    for (std::size_t s = 0; s < result.servers.size(); ++s) {
        const ServerStats &server = result.servers[s];
        std::string prefix =
            "cluster.server" + std::to_string(s) + ".";
        registry.counter(prefix + "completed").add(server.completed);
        registry.counter(prefix + "shed").add(server.shed);
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
        registry.gauge(prefix + "p99_us").set(tenant.p99Us, 0);
        registry.gauge(prefix + "slo_attainment")
            .set(tenant.sloAttainment, 0);
    }
}

} // namespace jord::cluster
