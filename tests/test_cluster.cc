/**
 * @file
 * Fleet-scale simulation tests (src/cluster): shared arrival
 * generation, traffic models, LB policy invariants, autoscaler
 * hysteresis, admission control, cost accounting, determinism,
 * per-server metrics namespacing, and exact digests of whole runs.
 *
 * Fleet tests run on a hand-built ServerModel (no calibration runs),
 * so they exercise the cluster DES itself and stay fast. The
 * calibration path is pinned by ClusterPin.CalibratedHotelModel and
 * covered by the --jobs byte-identity test in test_par.cc and by the
 * jordsim end-to-end test in test_tools.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "runtime/worker.hh"
#include "sim/arrivals.hh"
#include "trace/metrics.hh"
#include "workloads/workloads.hh"

using namespace jord;
using cluster::Arrival;
using cluster::ClusterConfig;
using cluster::ClusterResult;
using cluster::ClusterSim;
using cluster::LbPolicy;
using cluster::LoadBalancer;
using cluster::ScaleEvent;
using cluster::ServerModel;
using cluster::TrafficConfig;
using cluster::TrafficShape;
using cluster::TrafficSource;

namespace {

/** A synthetic calibrated server: 3 requests in flight at ~3 µs each
 * => 1 MRPS capacity (Little's law), so fleet loads are easy to
 * reason about in tests. */
ServerModel
fakeModel()
{
    ServerModel model;
    model.latencyQuantilesUs = {{2.0, 0.0}, {3.0, 0.5}, {4.0, 1.0}};
    model.meanLatencyUs = 3.0;
    model.capacityMrps = 1.0;
    model.concurrency = 3;
    model.numExecutors = 3;
    return model;
}

ClusterConfig
fleetConfig(unsigned servers, double mrps,
            TrafficShape shape = TrafficShape::Constant)
{
    ClusterConfig cfg;
    cfg.numServers = servers;
    cfg.traffic.shape = shape;
    cfg.traffic.mrps = mrps;
    cfg.traffic.durationUs = 20000.0;
    cfg.sloUs = 30.0;
    cfg.seed = 7;
    return cfg;
}

} // namespace

// --- Shared arrival generation (sim/arrivals.hh) ------------------------

TEST(Arrivals, MeanGapMatchesLoad)
{
    // 1 MRPS at 4 GHz: 4000 cycles between requests on average.
    EXPECT_DOUBLE_EQ(sim::meanGapCycles(1.0, 4.0), 4000.0);
    EXPECT_DOUBLE_EQ(
        sim::PoissonArrivals::fromMrps(2.0, 4.0).meanGap(), 2000.0);
}

TEST(Arrivals, PoissonGapIsExactlyTheWorkerDraw)
{
    // The worker's inlined draw before the extraction was a single
    // rng.exponential(meanGap); the shared generator must reproduce
    // it bit-for-bit, keeping every existing run byte-identical.
    sim::Rng a(99), b(99);
    sim::PoissonArrivals gen(12345.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(gen.nextGapCycles(a),
                  static_cast<sim::Cycles>(b.exponential(12345.0)));
}

TEST(Arrivals, ModulatedIsSeedDeterministic)
{
    sim::ModulatedPoissonArrivals gen(4000.0, 2.0, [](double us) {
        return us < 500.0 ? 1.0 : 2.0;
    });
    sim::Rng a(5), b(5), c(6);
    std::vector<sim::Tick> ta, tb, tc;
    sim::Tick x = 0, y = 0, z = 0;
    for (int i = 0; i < 200; ++i) {
        ta.push_back(x = gen.nextArrivalTick(a, x));
        tb.push_back(y = gen.nextArrivalTick(b, y));
        tc.push_back(z = gen.nextArrivalTick(c, z));
    }
    EXPECT_EQ(ta, tb);
    EXPECT_NE(ta, tc);
}

// --- Service-time draws --------------------------------------------------

namespace {

/** The linear CDF scan drawServiceUs used before its knot search. */
double
linearScanDraw(const ServerModel &model, double u)
{
    const auto &q = model.latencyQuantilesUs;
    if (u <= q.front().second)
        return q.front().first;
    for (std::size_t i = 1; i < q.size(); ++i) {
        if (u <= q[i].second) {
            double span = q[i].second - q[i - 1].second;
            double frac = span > 0 ? (u - q[i - 1].second) / span : 1.0;
            return q[i - 1].first + frac * (q[i].first - q[i - 1].first);
        }
    }
    return q.back().first;
}

/** Draws from @p model and the linear scan on one replayed stream. */
void
expectDrawsMatchTheLinearScan(const ServerModel &model, std::uint64_t seed,
                              std::vector<bool> *hit = nullptr)
{
    const auto &q = model.latencyQuantilesUs;
    sim::Rng draws(seed), reference(seed);
    for (int i = 0; i < 100000; ++i) {
        double u = reference.uniform();
        double want = linearScanDraw(model, u);
        double got = model.drawServiceUs(draws);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want))
            << "draw " << i << " at u=" << u;
        auto it = std::lower_bound(
            q.begin(), q.end(), u,
            [](const std::pair<double, double> &k, double x) {
                return k.second < x;
            });
        if (hit && it != q.end() && it->second == u)
            (*hit)[static_cast<std::size_t>(it - q.begin())] = true;
    }
}

} // namespace

TEST(ServerModel, KnotSearchMatchesTheLinearScan)
{
    // Calibrated knots: fractions (i + 1) / 64, as Sampler::cdf makes.
    ServerModel even = fakeModel();
    even.latencyQuantilesUs.clear();
    for (int i = 0; i < 64; ++i)
        even.latencyQuantilesUs.emplace_back(1.0 + 0.1 * i + 0.001 * i * i,
                                             (i + 1) / 64.0);
    expectDrawsMatchTheLinearScan(even, 7);

    // Uneven knots whose fractions are the first 64 uniforms of the
    // stream the draws replay, so every knot value is drawn exactly.
    // Knots 20 and 21 share a fraction (a flat segment), and draws
    // also land below the lowest knot and above the highest.
    constexpr std::uint64_t kSeed = 2024;
    sim::Rng knots(kSeed);
    std::vector<double> fracs;
    for (int i = 0; i < 64; ++i)
        fracs.push_back(knots.uniform());
    std::sort(fracs.begin(), fracs.end());
    fracs[21] = fracs[20];
    ServerModel uneven = fakeModel();
    uneven.latencyQuantilesUs.clear();
    for (std::size_t i = 0; i < fracs.size(); ++i)
        uneven.latencyQuantilesUs.emplace_back(
            1.0 + 0.25 * static_cast<double>(i / 2), fracs[i]);
    std::vector<bool> hit(fracs.size(), false);
    expectDrawsMatchTheLinearScan(uneven, kSeed, &hit);
    // Knot 21 repeats knot 20's fraction, which the search reports as
    // knot 20.
    for (std::size_t k = 0; k < fracs.size(); ++k)
        EXPECT_TRUE(k == 21 || hit[k]) << "knot " << k << " never drawn";
    sim::Rng replay(kSeed);
    bool below = false, above = false;
    for (int i = 0; i < 100000; ++i) {
        double u = replay.uniform();
        below = below || u < fracs.front();
        above = above || u > fracs.back();
    }
    EXPECT_TRUE(below && above);
}

// --- Traffic models ------------------------------------------------------

TEST(Traffic, MergedStreamIsTickOrderedAndSeeded)
{
    TrafficConfig cfg;
    cfg.shape = TrafficShape::Mix;
    cfg.mrps = 2.0;
    cfg.durationUs = 5000.0;
    TrafficSource a(cfg, 11), b(cfg, 11), c(cfg, 12);
    std::vector<Arrival> as, bs, cs;
    while (auto arrival = a.next())
        as.push_back(*arrival);
    while (auto arrival = b.next())
        bs.push_back(*arrival);
    while (auto arrival = c.next())
        cs.push_back(*arrival);
    ASSERT_GT(as.size(), 1000u);
    for (std::size_t i = 1; i < as.size(); ++i)
        EXPECT_GE(as[i].tick, as[i - 1].tick);
    ASSERT_EQ(as.size(), bs.size());
    for (std::size_t i = 0; i < as.size(); ++i) {
        EXPECT_EQ(as[i].tick, bs[i].tick);
        EXPECT_EQ(as[i].tenant, bs[i].tenant);
        EXPECT_EQ(as[i].session, bs[i].session);
    }
    EXPECT_NE(as.size(), cs.size());
}

TEST(Traffic, MixNamespacesSessionsPerTenant)
{
    TrafficConfig cfg;
    cfg.shape = TrafficShape::Mix;
    cfg.mrps = 2.0;
    cfg.durationUs = 5000.0;
    TrafficSource source(cfg, 3);
    ASSERT_EQ(source.numTenants(), 3u);
    bool seen[3] = {false, false, false};
    while (auto arrival = source.next()) {
        ASSERT_LT(arrival->tenant, 3u);
        seen[arrival->tenant] = true;
        EXPECT_EQ(arrival->session >> 32, arrival->tenant);
    }
    EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
}

TEST(Traffic, FlashCrowdConcentratesArrivalsInBurstWindow)
{
    TrafficConfig cfg = TrafficConfig::parse(
        "flash:factor=8,start=0.4,end=0.6");
    cfg.mrps = 1.0;
    cfg.durationUs = 10000.0;
    TrafficSource source(cfg, 21);
    std::uint64_t burst = 0, total = 0;
    sim::Tick lo = sim::usToCycles(4000.0), hi = sim::usToCycles(6000.0);
    while (auto arrival = source.next()) {
        ++total;
        if (arrival->tick >= lo && arrival->tick < hi)
            ++burst;
    }
    // Burst window is 20% of the duration at 8x rate: it should hold
    // ~62% of all arrivals (8*0.2 / (8*0.2 + 0.8)).
    ASSERT_GT(total, 5000u);
    double frac = static_cast<double>(burst) /
                  static_cast<double>(total);
    EXPECT_GT(frac, 0.5);
    EXPECT_LT(frac, 0.75);
}

TEST(Traffic, ParseRejectsUnknownShapesAndKeys)
{
    EXPECT_DEATH(TrafficConfig::parse("bogus"), "unknown traffic");
    EXPECT_DEATH(TrafficConfig::parse("flash:zap=1"),
                 "unknown traffic parameter");
}

// --- Load balancer -------------------------------------------------------

TEST(Lb, Random2NeverComparesAServerAgainstItself)
{
    // With two servers the two distinct draws always see both, so the
    // less-loaded one must win every time; sampling with replacement
    // would return the loaded server on the ~25% (i, i) pairs.
    LoadBalancer lb(LbPolicy::Random2);
    std::vector<std::uint32_t> active = {0, 1};
    std::vector<std::uint32_t> outstanding = {5, 0};
    sim::Rng rng(17);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(lb.pick(active, outstanding, 0, rng), 1u);
}

TEST(Lb, Random2TieBreaksOnLowerIndex)
{
    // All-equal loads: every pair resolves to its lower index, so the
    // highest server can only appear via a (hi, hi) pair — which
    // distinct sampling forbids.
    LoadBalancer lb(LbPolicy::Random2);
    std::vector<std::uint32_t> active = {0, 1, 2, 3};
    std::vector<std::uint32_t> outstanding = {4, 4, 4, 4};
    sim::Rng rng(17);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(lb.pick(active, outstanding, 0, rng), 3u);
}

TEST(Lb, JsqPicksShortestAndTiesDeterministically)
{
    LoadBalancer lb(LbPolicy::Jsq);
    std::vector<std::uint32_t> active = {2, 5, 7};
    std::vector<std::uint32_t> outstanding(8, 3);
    sim::Rng rng(17);
    // All tied: always the lowest active index, never a random draw.
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(lb.pick(active, outstanding, 0, rng), 2u);
    outstanding[5] = 1;
    EXPECT_EQ(lb.pick(active, outstanding, 0, rng), 5u);
}

TEST(Lb, RoundRobinCycles)
{
    LoadBalancer lb(LbPolicy::RoundRobin);
    std::vector<std::uint32_t> active = {0, 1, 2};
    std::vector<std::uint32_t> outstanding = {0, 0, 0};
    sim::Rng rng(17);
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(lb.pick(active, outstanding, 0, rng),
                  static_cast<std::uint32_t>(i % 3));
}

TEST(Lb, AffinityKeepsSessionsHomeUntilOverloaded)
{
    LoadBalancer lb(LbPolicy::Affinity);
    std::vector<std::uint32_t> active = {0, 1, 2, 3};
    std::vector<std::uint32_t> outstanding = {0, 0, 0, 0};
    sim::Rng rng(17);
    for (std::uint64_t session : {7ull, 123ull, 4096ull})
        for (int i = 0; i < 10; ++i)
            EXPECT_EQ(lb.pick(active, outstanding, session, rng),
                      session % 4);
    // Home server deep in its queue: the session spills elsewhere.
    outstanding[3] = 100;
    bool spilled = false;
    for (int i = 0; i < 50; ++i)
        spilled |= lb.pick(active, outstanding, 3, rng) != 3;
    EXPECT_TRUE(spilled);
}

// --- Fleet simulation ----------------------------------------------------

TEST(Cluster, SameSeedRunsAreIdentical)
{
    ServerModel model = fakeModel();
    ClusterConfig cfg = fleetConfig(4, 2.8, TrafficShape::Diurnal);
    ClusterResult a = ClusterSim(cfg, model).run();
    ClusterResult b = ClusterSim(cfg, model).run();
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.coldStarts, b.coldStarts);
    EXPECT_EQ(a.p99Us, b.p99Us);
    EXPECT_EQ(a.goodputMrps, b.goodputMrps);
    EXPECT_EQ(a.costServerSeconds, b.costServerSeconds);
    ASSERT_EQ(a.servers.size(), b.servers.size());
    for (std::size_t s = 0; s < a.servers.size(); ++s)
        EXPECT_EQ(a.servers[s].completed, b.servers[s].completed);
}

TEST(Cluster, Random2StrictlyBeatsRandomP99AtHighLoad)
{
    // The acceptance criterion: power-of-two-choices must strictly
    // improve fleet P99 over random-1 at 0.9x fleet capacity.
    ServerModel model = fakeModel();
    ClusterConfig cfg = fleetConfig(8, 0.9 * 8 * model.capacityMrps);
    cfg.lb = LbPolicy::Random;
    double p99_random = ClusterSim(cfg, model).run().p99Us;
    cfg.lb = LbPolicy::Random2;
    double p99_random2 = ClusterSim(cfg, model).run().p99Us;
    EXPECT_LT(p99_random2, p99_random);
}

TEST(Cluster, FlashCrowdShedsOnlyWithAdmissionControl)
{
    ServerModel model = fakeModel();
    ClusterConfig cfg = fleetConfig(4, 0.8 * 4 * model.capacityMrps,
                                    TrafficShape::Flash);
    cfg.traffic.flashFactor = 10.0;

    // No cap: overload becomes queueing, every request completes.
    ClusterResult uncapped = ClusterSim(cfg, model).run();
    EXPECT_EQ(uncapped.shed, 0u);
    EXPECT_EQ(uncapped.completed, uncapped.generated);

    // Per-server cap (the fleet-level mirror of the worker's
    // orchestrator shed cap): the burst sheds, the tail stays
    // bounded, and every request is accounted exactly once.
    cfg.serverQueueCap = 20;
    ClusterResult capped = ClusterSim(cfg, model).run();
    EXPECT_GT(capped.shed, 0u);
    EXPECT_EQ(capped.completed + capped.shed, capped.generated);
    EXPECT_LT(capped.p99Us, uncapped.p99Us);
}

TEST(Cluster, AutoscalerGrowsOnStepLoadWithoutFlapping)
{
    ServerModel model = fakeModel();
    // Step load: 0.4x capacity baseline, 5x burst in the middle of
    // the run. The controller must scale out during the burst and
    // back in afterwards, monotonically in each phase (hysteresis:
    // no up/down/up flapping).
    ClusterConfig cfg = fleetConfig(2, 0.4 * 2 * model.capacityMrps,
                                    TrafficShape::Flash);
    cfg.traffic.durationUs = 60000.0;
    cfg.traffic.flashFactor = 5.0;
    cfg.traffic.flashStartFrac = 0.3;
    cfg.traffic.flashEndFrac = 0.6;
    cfg.autoscale.enabled = true;
    cfg.autoscale.minServers = 2;
    cfg.autoscale.maxServers = 8;
    ClusterResult res = ClusterSim(cfg, model).run();

    ASSERT_GE(res.scaleEvents.size(), 3u);
    EXPECT_EQ(res.scaleEvents.front().activeServers, 2u);
    unsigned peak = 0;
    for (const ScaleEvent &event : res.scaleEvents)
        peak = std::max(peak, event.activeServers);
    EXPECT_GT(peak, 2u);

    // Hysteresis: the active-server series changes direction at most
    // once (up-phase then down-phase) for a single step stimulus.
    int direction_changes = 0, last = 0;
    for (std::size_t i = 1; i < res.scaleEvents.size(); ++i) {
        int diff =
            static_cast<int>(res.scaleEvents[i].activeServers) -
            static_cast<int>(res.scaleEvents[i - 1].activeServers);
        if (diff == 0)
            continue;
        int dir = diff > 0 ? 1 : -1;
        if (last != 0 && dir != last)
            ++direction_changes;
        last = dir;
    }
    EXPECT_LE(direction_changes, 1);
}

TEST(Cluster, CostIntegratesPoweredOnServerSeconds)
{
    ServerModel model = fakeModel();
    ClusterConfig cfg = fleetConfig(4, 2.0);
    ClusterResult res = ClusterSim(cfg, model).run();
    // A static fleet keeps all 4 servers powered for the whole run
    // (20 ms of traffic plus a short drain tail).
    double floor_s = 4 * 0.020;
    EXPECT_GE(res.costServerSeconds, floor_s);
    EXPECT_LT(res.costServerSeconds, floor_s * 1.05);

    // At light load (occupancy below kQueueLow on 4 servers) the
    // autoscaler drains down to 2 servers, so integrated cost must be
    // strictly less than the static fleet's.
    cfg.traffic.mrps = 0.6;
    cfg.autoscale.enabled = true;
    cfg.autoscale.minServers = 2;
    cfg.autoscale.maxServers = 4;
    ClusterResult scaled = ClusterSim(cfg, model).run();
    EXPECT_LT(scaled.costServerSeconds, res.costServerSeconds);
}

TEST(Cluster, AffinityRunsAndKeepsTenantsServed)
{
    ServerModel model = fakeModel();
    ClusterConfig cfg = fleetConfig(4, 2.0, TrafficShape::Mix);
    cfg.lb = LbPolicy::Affinity;
    ClusterResult res = ClusterSim(cfg, model).run();
    ASSERT_EQ(res.tenants.size(), 3u);
    for (const cluster::TenantStats &tenant : res.tenants) {
        EXPECT_GT(tenant.completed, 0u) << tenant.name;
        EXPECT_GT(tenant.sloAttainment, 0.9) << tenant.name;
    }
}

// --- Metrics namespacing -------------------------------------------------

TEST(Cluster, MetricsArePerServerNamespaced)
{
    ServerModel model = fakeModel();
    ClusterConfig cfg = fleetConfig(2, 1.5);
    ClusterResult res = ClusterSim(cfg, model).run();
    trace::MetricsRegistry registry;
    cluster::attachClusterMetrics(res, registry);
    // Distinct per-server counters, not one silently shared slot.
    EXPECT_EQ(registry.counter("cluster.server0.completed").value(),
              res.servers[0].completed);
    EXPECT_EQ(registry.counter("cluster.server1.completed").value(),
              res.servers[1].completed);
    EXPECT_EQ(res.servers[0].completed + res.servers[1].completed,
              res.completed);
}

TEST(Cluster, WorkerMetricsPrefixKeepsServersDistinct)
{
    // The registry's find-or-create lookup silently *sums* same-named
    // metrics; two workers sharing one registry therefore need the
    // per-server prefix (jordsim --cluster N --metrics-out).
    workloads::Workload hotel = workloads::makeHotel();
    runtime::WorkerConfig cfg;
    trace::MetricsRegistry registry;

    runtime::WorkerServer server0(cfg, hotel.registry);
    server0.attachMetrics(registry, "server0.");
    std::size_t one = registry.size();
    runtime::WorkerServer server1(cfg, hotel.registry);
    server1.attachMetrics(registry, "server1.");
    EXPECT_EQ(registry.size(), 2 * one);

    server0.run(1.0, 300, hotel.mix);
    EXPECT_GT(
        registry.counter("server0.runtime.requests.completed").value(),
        0u);
    EXPECT_EQ(
        registry.counter("server1.runtime.requests.completed").value(),
        0u);
}

// --- Output pins ---------------------------------------------------------
//
// Exact digests of whole fleet runs. Each digest is FNV-1a over the bit
// patterns of every ClusterResult field (per-server and per-tenant
// stats and the scale events included) plus the events dispatched, so
// a host-speed change to the event core, the request path or the
// samplers that moves a single simulated byte fails here. A deliberate
// model change updates the constants and says why.

namespace {

/** Fleet-level conservation: every request resolves exactly once. */
void
expectFleetConservation(const ClusterResult &res)
{
    EXPECT_EQ(res.completed + res.shed + res.failed, res.generated);
}

struct PinDigest {
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    addBytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    }

    void add(std::uint64_t v) { addBytes(&v, sizeof v); }
    void add(double v) { addBytes(&v, sizeof v); }

    void
    add(const std::string &s)
    {
        add(static_cast<std::uint64_t>(s.size()));
        addBytes(s.data(), s.size());
    }
};

struct PinnedRun {
    ClusterResult result;
    std::uint64_t events = 0;
};

PinnedRun
runPinned(const ClusterConfig &cfg)
{
    ServerModel model = fakeModel();
    ClusterSim sim(cfg, model);
    PinnedRun out;
    out.result = sim.run();
    out.events = sim.eventQueue().numDispatched();
    return out;
}

std::uint64_t
pinDigest(const PinnedRun &run)
{
    // The literal 0s stand where the fleet's chaos fields (time to
    // recover, hedge wins, crashes, restarts, ejections, breaker opens
    // and sheds, per-server and per-tenant failures) were hashed. They
    // were 0 in every pinned run, so the byte sequence, and with it
    // each pinned constant, is the one those fields produced.
    const ClusterResult &r = run.result;
    PinDigest d;
    d.add(run.events);
    for (double v : {r.offeredMrps, r.achievedMrps, r.goodputMrps,
                     r.meanUs, r.p50Us, r.p99Us, r.costServerSeconds,
                     r.sloUs, 0.0, r.sloBurn})
        d.add(v);
    for (std::uint64_t v :
         {r.generated, r.completed, r.shed, r.failed, r.coldStarts,
          r.retries, r.hedges, std::uint64_t{0}, std::uint64_t{0},
          std::uint64_t{0}, std::uint64_t{0}, std::uint64_t{0},
          std::uint64_t{0}})
        d.add(v);
    d.add(static_cast<std::uint64_t>(r.servers.size()));
    for (const cluster::ServerStats &s : r.servers) {
        for (std::uint64_t v : {s.completed, s.shed, std::uint64_t{0},
                                s.coldStarts})
            d.add(v);
        d.add(s.p99Us);
        d.add(s.activeSeconds);
    }
    d.add(static_cast<std::uint64_t>(r.tenants.size()));
    for (const cluster::TenantStats &t : r.tenants) {
        d.add(t.name);
        d.add(t.sloUs);
        for (std::uint64_t v : {t.completed, t.shed, std::uint64_t{0}})
            d.add(v);
        d.add(t.p99Us);
        d.add(t.sloAttainment);
    }
    d.add(static_cast<std::uint64_t>(r.scaleEvents.size()));
    for (const ScaleEvent &e : r.scaleEvents) {
        d.add(e.atUs);
        d.add(static_cast<std::uint64_t>(e.activeServers));
    }
    d.add(static_cast<std::uint64_t>(r.finalActiveServers));
    return d.h;
}

} // namespace

TEST(ClusterPin, Random2ConstantLoadWithQueueCap)
{
    ServerModel model = fakeModel();
    ClusterConfig cfg = fleetConfig(8, 0.9 * 8 * model.capacityMrps);
    cfg.coldStart.prewarm = model.concurrency;
    cfg.serverQueueCap = 8;
    PinnedRun run = runPinned(cfg);
    expectFleetConservation(run.result);
    EXPECT_GT(run.result.shed, 0u);
    EXPECT_EQ(pinDigest(run), 0x02b35ad013843227ull);
}

TEST(ClusterPin, MixTrafficWithAutoscaler)
{
    ClusterConfig cfg = fleetConfig(4, 2.8, TrafficShape::Mix);
    cfg.autoscale.enabled = true;
    cfg.autoscale.minServers = 2;
    cfg.autoscale.maxServers = 6;
    PinnedRun run = runPinned(cfg);
    expectFleetConservation(run.result);
    ASSERT_EQ(run.result.tenants.size(), 3u);
    EXPECT_GT(run.result.scaleEvents.size(), 1u);
    EXPECT_EQ(pinDigest(run), 0xec6d93c5278d78ddull);
}

TEST(ClusterPin, DerivedSloFromCalibration)
{
    // sloUs = 0 takes the §5 rule: kSloMultiplier x the calibrated
    // mean latency (3 µs here), which every tenant and the failure
    // detector then see.
    ClusterConfig cfg = fleetConfig(4, 3.2, TrafficShape::Flash);
    cfg.sloUs = 0;
    cfg.serverQueueCap = 12;
    PinnedRun run = runPinned(cfg);
    expectFleetConservation(run.result);
    EXPECT_EQ(run.result.sloUs, 30.0);
    EXPECT_EQ(pinDigest(run), 0x012b4da1e0e4fff1ull);
}

TEST(ClusterPin, CalibratedHotelModel)
{
    // The calibration probe loads, the warm-up fraction and the
    // quantile-table resolution all feed this model.
    workloads::Workload w = workloads::makeHotel();
    ClusterConfig cfg;
    cfg.calibration.requests = 2000;
    ServerModel model =
        cluster::calibrateServer(w, cfg.worker, cfg.calibration, nullptr);
    PinDigest d;
    d.add(static_cast<std::uint64_t>(model.latencyQuantilesUs.size()));
    for (const auto &[us, frac] : model.latencyQuantilesUs) {
        d.add(us);
        d.add(frac);
    }
    d.add(model.meanLatencyUs);
    d.add(model.capacityMrps);
    d.add(static_cast<std::uint64_t>(model.concurrency));
    d.add(static_cast<std::uint64_t>(model.numExecutors));
    EXPECT_EQ(model.latencyQuantilesUs.size(), 64u);
    EXPECT_EQ(d.h, 0x310452c95bb09d51ull);
}
