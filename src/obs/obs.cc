#include "obs/obs.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"

namespace jord::obs {

namespace {

/** Stable event-kind name (the events CSV `kind` column). */
const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::Crash: return "crash";
      case EventKind::Gray: return "gray";
      case EventKind::LinkDrop: return "link_drop";
      case EventKind::LinkDelay: return "link_delay";
      case EventKind::AlertRaise: return "alert_raise";
      case EventKind::AlertClear: return "alert_clear";
    }
    return "?";
}

} // namespace

FleetObserver::FleetObserver(const ObsConfig &cfg,
                             unsigned num_servers,
                             std::vector<ObsTenant> tenants,
                             unsigned concurrency, double freq_ghz)
    : cfg_(cfg), numServers_(num_servers),
      tenants_(std::move(tenants)), concurrency_(concurrency),
      freqGhz_(freq_ghz)
{
    if (numServers_ == 0)
        sim::fatal("obs: observer needs at least one server");
    if (tenants_.empty())
        sim::fatal("obs: observer needs at least one tenant");
    if (cfg_.windowed()) {
        windowTicks_ = sim::usToCycles(cfg_.intervalUs, freqGhz_);
        if (windowTicks_ == 0)
            sim::fatal("obs: interval %.3f us rounds to zero ticks",
                       cfg_.intervalUs);
        if (cfg_.sloTargetFrac <= 0 || cfg_.sloTargetFrac >= 1)
            sim::fatal("obs: SLO target must be in (0, 1), got %.4f",
                       cfg_.sloTargetFrac);
        if (cfg_.burnFastWindows == 0 ||
            cfg_.burnFastWindows > cfg_.burnSlowWindows)
            sim::fatal("obs: burn windows must satisfy "
                       "1 <= fast (%u) <= slow (%u)",
                       cfg_.burnFastWindows, cfg_.burnSlowWindows);
    }
    cells_.resize(static_cast<std::size_t>(numServers_) *
                  tenants_.size());
    for (Cell &c : cells_)
        c.latNs = stats::Histogram(1ull << 40, 64);
    depth_.resize(numServers_);
    burnRing_.resize(tenants_.size());
    alerting_.assign(tenants_.size(), 0);
    crashOpenAt_.assign(numServers_, kNoTick);

    if (cfg_.trace) {
        tracer_ = std::make_unique<trace::Tracer>(freqGhz_);
        // One labeled process per server so Perfetto renders the
        // fleet timeline as named groups; the LB owns pid/track 0.
        tracer_->setProcessName(0, "jord fleet");
        tracer_->setTrackName(0, "front-end lb");
        for (unsigned s = 0; s < numServers_; ++s) {
            std::string name = "server " + std::to_string(s);
            tracer_->setProcessName(s + 1, name);
            tracer_->setTrackPid(serverTrack(s), s + 1);
            tracer_->setTrackName(serverTrack(s), name);
        }
    }
}

void
FleetObserver::instant(const char *name, unsigned track,
                       sim::Tick now, std::uint64_t req,
                       std::int32_t fn)
{
    trace::SpanArgs args;
    args.req = req;
    args.fn = fn;
    trace::SpanId parent = 0;
    if (auto it = reqs_.find(req); it != reqs_.end())
        parent = it->second.span;
    tracer_->complete(name, trace::Category::Runtime, track, now, 0,
                      parent, args);
}

void
FleetObserver::onArrival(sim::Tick now, std::uint64_t req,
                         std::uint32_t tenant, std::uint32_t server,
                         bool measured)
{
    cell(server, tenant).arrivals.add();
    if (!tracer_)
        return;
    ReqTrace &rt = reqs_[req];
    trace::SpanArgs args;
    args.req = req;
    args.measured = measured;
    rt.span = tracer_->begin("request", trace::Category::Request, 0,
                             now, 0, args);
    tracer_->complete("lb_decision", trace::Category::Dispatch, 0,
                      now, 0, rt.span, args);
}

void
FleetObserver::onShed(sim::Tick now, std::uint32_t tenant,
                      std::uint32_t server, bool breaker)
{
    Cell &c = cell(server, tenant);
    c.arrivals.add();
    c.shed.add();
    if (tracer_ && breaker)
        instant("breaker_shed", serverTrack(server), now, 0,
                static_cast<std::int32_t>(tenant));
}

void
FleetObserver::onQueue(sim::Tick now, std::uint64_t req,
                       unsigned copy, std::uint32_t server)
{
    (void)server;
    if (!tracer_)
        return;
    auto it = reqs_.find(req);
    if (it == reqs_.end())
        return;
    it->second.enq[copy] = now;
    it->second.queued[copy] = true;
}

void
FleetObserver::onStart(sim::Tick now, std::uint64_t req,
                       unsigned copy, std::uint32_t server,
                       std::uint32_t tenant, bool cold)
{
    if (cold)
        cell(server, tenant).coldStarts.add();
    if (!tracer_)
        return;
    auto it = reqs_.find(req);
    if (it == reqs_.end())
        return;
    ReqTrace &rt = it->second;
    trace::SpanArgs args;
    args.req = req;
    if (rt.queued[copy])
        tracer_->complete("queue", trace::Category::Dispatch,
                          serverTrack(server), rt.enq[copy],
                          now - rt.enq[copy], rt.span, args);
    rt.queued[copy] = false;
    rt.running[copy] = true;
    rt.run[copy] = now;
    rt.cold[copy] = cold;
}

void
FleetObserver::onComplete(sim::Tick now, std::uint64_t req,
                          unsigned copy, std::uint32_t server,
                          std::uint32_t tenant,
                          std::uint64_t latency_ns, bool slo_miss)
{
    Cell &c = cell(server, tenant);
    c.completions.add();
    if (slo_miss)
        c.sloMiss.add();
    c.latNs.record(latency_ns);
    if (!tracer_)
        return;
    auto it = reqs_.find(req);
    if (it == reqs_.end())
        return;
    ReqTrace &rt = it->second;
    trace::SpanArgs args;
    args.req = req;
    if (rt.running[copy])
        tracer_->complete(rt.cold[copy] ? "cold_start" : "warm_hit",
                          trace::Category::Exec, serverTrack(server),
                          rt.run[copy], now - rt.run[copy], rt.span,
                          args);
    tracer_->end(rt.span, now);
    reqs_.erase(it);
}

void
FleetObserver::onFailed(sim::Tick now, std::uint64_t req,
                        std::uint32_t tenant, std::uint32_t server)
{
    cell(server, tenant).failed.add();
    if (!tracer_)
        return;
    auto it = reqs_.find(req);
    if (it == reqs_.end())
        return;
    tracer_->end(it->second.span, now);
    reqs_.erase(it);
}

void
FleetObserver::onHedge(sim::Tick now, std::uint64_t req,
                       std::uint32_t server)
{
    if (tracer_)
        instant("hedge_primary", serverTrack(server), now, req);
}

void
FleetObserver::onHedgeLoser(sim::Tick now, std::uint64_t req,
                            unsigned copy, std::uint32_t server)
{
    if (!tracer_)
        return;
    auto it = reqs_.find(req);
    if (it == reqs_.end())
        return;
    ReqTrace &rt = it->second;
    // The loser's span covers whatever progress the copy made:
    // running since its start, else queued since its enqueue.
    sim::Tick start = now;
    if (rt.running[copy])
        start = rt.run[copy];
    else if (rt.queued[copy])
        start = rt.enq[copy];
    rt.running[copy] = rt.queued[copy] = false;
    trace::SpanArgs args;
    args.req = req;
    tracer_->complete("hedge_loser", trace::Category::Runtime,
                      serverTrack(server), start, now - start,
                      rt.span, args);
}

void
FleetObserver::onRetry(sim::Tick now, std::uint64_t req,
                       unsigned attempt, std::uint32_t server)
{
    if (tracer_)
        instant("retry_attempt", serverTrack(server), now, req,
                static_cast<std::int32_t>(attempt));
}

void
FleetObserver::onOutstanding(sim::Tick now, std::uint32_t server,
                             std::uint32_t outstanding)
{
    if (!cfg_.windowed())
        return;
    DepthGauge &g = depth_[server];
    g.integral += static_cast<double>(g.cur) *
                  static_cast<double>(now - g.last);
    g.cur = outstanding;
    g.last = now;
}

void
FleetObserver::onCrash(sim::Tick now, std::uint32_t server)
{
    ++incidents_;
    if (cfg_.windowed())
        crashOpenAt_[server] = now;
    if (tracer_)
        instant("crash", serverTrack(server), now, 0);
}

void
FleetObserver::onRestart(sim::Tick now, std::uint32_t server)
{
    if (cfg_.windowed() && crashOpenAt_[server] != kNoTick) {
        Event event;
        event.startTick = crashOpenAt_[server];
        event.endTick = now;
        event.kind = EventKind::Crash;
        event.server = static_cast<std::int32_t>(server);
        events_.push_back(event);
        crashOpenAt_[server] = kNoTick;
    }
    if (tracer_)
        instant("restart", serverTrack(server), now, 0);
}

void
FleetObserver::onGrayRun(sim::Tick start, sim::Tick end,
                         std::uint32_t server)
{
    if (!cfg_.windowed())
        return;
    ++incidents_;
    Event event;
    event.startTick = start;
    event.endTick = end;
    event.kind = EventKind::Gray;
    event.server = static_cast<std::int32_t>(server);
    events_.push_back(event);
}

void
FleetObserver::onLinkDrop(sim::Tick now, std::uint64_t req,
                          std::uint32_t server)
{
    (void)req;
    if (!cfg_.windowed())
        return;
    ++incidents_;
    Event event;
    event.startTick = event.endTick = now;
    event.kind = EventKind::LinkDrop;
    event.server = static_cast<std::int32_t>(server);
    events_.push_back(event);
}

void
FleetObserver::onLinkDelay(sim::Tick now, std::uint64_t req,
                           std::uint32_t server)
{
    (void)req;
    if (!cfg_.windowed())
        return;
    ++incidents_;
    Event event;
    event.startTick = event.endTick = now;
    event.kind = EventKind::LinkDelay;
    event.server = static_cast<std::int32_t>(server);
    events_.push_back(event);
}

double
FleetObserver::burnRate(const std::deque<BurnSample> &ring,
                        unsigned windows) const
{
    std::uint64_t errors = 0;
    std::uint64_t arrivals = 0;
    std::size_t n = std::min<std::size_t>(windows, ring.size());
    for (std::size_t i = ring.size() - n; i < ring.size(); ++i) {
        errors += ring[i].errors;
        arrivals += ring[i].arrivals;
    }
    if (arrivals == 0)
        return 0;
    double budget = 1.0 - cfg_.sloTargetFrac;
    return (static_cast<double>(errors) /
            static_cast<double>(arrivals)) /
           budget;
}

void
FleetObserver::flushWindow(sim::Tick now,
                           const std::vector<ServerSnapshot> &snap)
{
    if (!cfg_.windowed() || now <= windowStart_)
        return;
    double span = static_cast<double>(now - windowStart_);
    std::size_t nt = tenants_.size();
    // Per-tenant fleet totals this window, feeding the SLO monitor.
    std::vector<std::uint64_t> tErrors(nt, 0), tArrivals(nt, 0);

    for (std::uint32_t s = 0; s < numServers_; ++s) {
        DepthGauge &g = depth_[s];
        g.integral += static_cast<double>(g.cur) *
                      static_cast<double>(now - g.last);
        g.last = now;
        double mean_depth = g.integral / span;
        g.integral = 0;

        WindowRow agg;
        agg.window = window_;
        agg.startTick = windowStart_;
        agg.endTick = now;
        agg.server = s;
        agg.tenant = -1;
        agg.queueDepth = mean_depth;
        agg.occupancy =
            concurrency_ > 0
                ? mean_depth / static_cast<double>(concurrency_)
                : 0;
        agg.warmSlots = s < snap.size() ? snap[s].warmSlots : 0;

        // Interval P50/P99 through Histogram merge of the tenant
        // cells — identical geometry by construction.
        stats::Histogram merged(1ull << 40, 64);
        std::vector<WindowRow> tenant_rows;
        for (std::uint32_t t = 0; t < nt; ++t) {
            Cell &c = cell(s, t);
            WindowRow row;
            row.window = window_;
            row.startTick = windowStart_;
            row.endTick = now;
            row.server = s;
            row.tenant = static_cast<std::int32_t>(t);
            row.arrivals = c.arrivals.intervalReset();
            row.completions = c.completions.intervalReset();
            row.shed = c.shed.intervalReset();
            row.failed = c.failed.intervalReset();
            row.sloMiss = c.sloMiss.intervalReset();
            row.coldStarts = c.coldStarts.intervalReset();
            if (!c.latNs.empty()) {
                row.p50Us =
                    static_cast<double>(c.latNs.p50()) / 1000.0;
                row.p99Us =
                    static_cast<double>(c.latNs.p99()) / 1000.0;
                merged.merge(c.latNs);
            }
            c.latNs.reset();
            agg.arrivals += row.arrivals;
            agg.completions += row.completions;
            agg.shed += row.shed;
            agg.failed += row.failed;
            agg.sloMiss += row.sloMiss;
            agg.coldStarts += row.coldStarts;
            tErrors[t] += row.sloMiss + row.failed + row.shed;
            tArrivals[t] += row.arrivals;
            if (row.arrivals || row.completions || row.shed ||
                row.failed)
                tenant_rows.push_back(row);
        }
        if (!merged.empty()) {
            agg.p50Us = static_cast<double>(merged.p50()) / 1000.0;
            agg.p99Us = static_cast<double>(merged.p99()) / 1000.0;
        }
        rows_.push_back(agg);
        for (const WindowRow &row : tenant_rows)
            rows_.push_back(row);
    }

    // SLO monitor: multi-window burn rates per tenant. The fast
    // window trips quickly, the slow window keeps one noisy interval
    // from paging; the alert needs both above threshold and clears
    // when the fast rate falls back under it.
    for (std::uint32_t t = 0; t < nt; ++t) {
        auto &ring = burnRing_[t];
        ring.push_back(BurnSample{tErrors[t], tArrivals[t]});
        while (ring.size() > cfg_.burnSlowWindows)
            ring.pop_front();
        double fast = burnRate(ring, cfg_.burnFastWindows);
        double slow = burnRate(ring, cfg_.burnSlowWindows);
        if (!alerting_[t] && fast > cfg_.burnThreshold &&
            slow > cfg_.burnThreshold) {
            alerting_[t] = 1;
            ++alertsRaised_;
            Event event;
            event.startTick = event.endTick = now;
            event.kind = EventKind::AlertRaise;
            event.tenant = static_cast<std::int32_t>(t);
            event.value = fast;
            events_.push_back(event);
            if (tracer_)
                instant("alert_raise", 0, now, 0,
                        static_cast<std::int32_t>(t));
        } else if (alerting_[t] && fast <= cfg_.burnThreshold) {
            alerting_[t] = 0;
            ++alertsCleared_;
            Event event;
            event.startTick = event.endTick = now;
            event.kind = EventKind::AlertClear;
            event.tenant = static_cast<std::int32_t>(t);
            event.value = fast;
            events_.push_back(event);
            if (tracer_)
                instant("alert_clear", 0, now, 0,
                        static_cast<std::int32_t>(t));
        }
    }

    ++window_;
    windowStart_ = now;
}

void
FleetObserver::finalize(sim::Tick end,
                        const std::vector<ServerSnapshot> &snap)
{
    if (!cfg_.windowed())
        return;
    flushWindow(end, snap);
    // A crash still open at end of run: the incident's end is the end
    // of the run (the fleet never recovered inside the horizon).
    for (std::uint32_t s = 0; s < numServers_; ++s) {
        if (crashOpenAt_[s] == kNoTick)
            continue;
        Event event;
        event.startTick = crashOpenAt_[s];
        event.endTick = end;
        event.kind = EventKind::Crash;
        event.server = static_cast<std::int32_t>(s);
        events_.push_back(event);
        crashOpenAt_[s] = kNoTick;
    }
}

void
FleetObserver::writeWindowsCsv(std::ostream &out) const
{
    out << "window,start_us,end_us,server,tenant,arrivals,"
           "completions,shed,failed,slo_miss,cold_starts,warm_slots,"
           "queue_depth,occupancy,p50_us,p99_us\n";
    char buf[160];
    for (const WindowRow &row : rows_) {
        bool agg = row.tenant < 0;
        const std::string &tenant =
            agg ? std::string("*")
                : tenants_[static_cast<std::size_t>(row.tenant)].name;
        std::snprintf(buf, sizeof(buf), "%llu,%.3f,%.3f,%u,",
                      static_cast<unsigned long long>(row.window),
                      sim::cyclesToUs(row.startTick, freqGhz_),
                      sim::cyclesToUs(row.endTick, freqGhz_),
                      row.server);
        out << buf << tenant;
        std::snprintf(buf, sizeof(buf),
                      ",%llu,%llu,%llu,%llu,%llu,%llu",
                      static_cast<unsigned long long>(row.arrivals),
                      static_cast<unsigned long long>(
                          row.completions),
                      static_cast<unsigned long long>(row.shed),
                      static_cast<unsigned long long>(row.failed),
                      static_cast<unsigned long long>(row.sloMiss),
                      static_cast<unsigned long long>(
                          row.coldStarts));
        out << buf;
        if (agg) {
            std::snprintf(buf, sizeof(buf), ",%llu,%.4f,%.4f",
                          static_cast<unsigned long long>(
                              row.warmSlots),
                          row.queueDepth, row.occupancy);
            out << buf;
        } else {
            out << ",,,";
        }
        std::snprintf(buf, sizeof(buf), ",%.3f,%.3f\n", row.p50Us,
                      row.p99Us);
        out << buf;
    }
}

void
FleetObserver::writeEventsCsv(std::ostream &out) const
{
    std::vector<Event> sorted = events_;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Event &a, const Event &b) {
                         if (a.startTick != b.startTick)
                             return a.startTick < b.startTick;
                         if (a.kind != b.kind)
                             return static_cast<unsigned>(a.kind) <
                                    static_cast<unsigned>(b.kind);
                         if (a.server != b.server)
                             return a.server < b.server;
                         return a.tenant < b.tenant;
                     });
    out << "time_us,end_us,kind,server,tenant,value\n";
    char buf[128];
    for (const Event &event : sorted) {
        std::snprintf(buf, sizeof(buf), "%.3f,%.3f,",
                      sim::cyclesToUs(event.startTick, freqGhz_),
                      sim::cyclesToUs(event.endTick, freqGhz_));
        out << buf << eventKindName(event.kind) << ",";
        if (event.server >= 0)
            out << event.server;
        out << ",";
        if (event.tenant >= 0)
            out << tenants_[static_cast<std::size_t>(event.tenant)]
                       .name;
        std::snprintf(buf, sizeof(buf), ",%.4f\n", event.value);
        out << buf;
    }
}

void
FleetObserver::attachMetrics(trace::MetricsRegistry &registry) const
{
    registry.counter("obs.windows").add(window_);
    registry.counter("obs.events").add(events_.size());
    registry.counter("obs.incidents").add(incidents_);
    registry.counter("obs.alerts_raised").add(alertsRaised_);
    registry.counter("obs.alerts_cleared").add(alertsCleared_);
}

} // namespace jord::obs
