/**
 * @file
 * Tests for src/prof: PMU counter/bucket semantics, the attribution
 * windows, the sampling profiler, and the observability invariants the
 * subsystem guarantees — attaching the PMU/profiler never perturbs the
 * simulated run, same-seed runs produce identical profiles, and each
 * core's top-down buckets sum exactly to the run's total ticks.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>

#include "prof/pmu.hh"
#include "prof/profile_json.hh"
#include "prof/profiler.hh"
#include "runtime/worker.hh"
#include "sim/event_queue.hh"
#include "workloads/workloads.hh"

namespace {

using namespace jord;
using prof::Pmu;
using prof::PmuBucket;
using prof::PmuCounter;
using prof::Profiler;
using runtime::RunResult;
using runtime::WorkerConfig;
using runtime::WorkerServer;

// --- Pmu unit behavior ------------------------------------------------------

TEST(Pmu, CountersAccumulatePerCoreAndUncore)
{
    Pmu pmu(4);
    pmu.add(1, PmuCounter::VlbDMisses);
    pmu.add(1, PmuCounter::VlbDMisses, 2);
    pmu.add(3, PmuCounter::NocHops, 7);
    pmu.addUncore(PmuCounter::VtdBackInvals, 5);
    EXPECT_EQ(pmu.counter(1, PmuCounter::VlbDMisses), 3u);
    EXPECT_EQ(pmu.counter(0, PmuCounter::VlbDMisses), 0u);
    EXPECT_EQ(pmu.uncoreCounter(PmuCounter::VtdBackInvals), 5u);
    EXPECT_EQ(pmu.totalCounter(PmuCounter::VlbDMisses), 3u);
    EXPECT_EQ(pmu.totalCounter(PmuCounter::VtdBackInvals), 5u);
}

TEST(Pmu, WindowChargesStallsAndRetiresRemainder)
{
    Pmu pmu(2);
    std::uint64_t mark = pmu.beginWindow(0);
    pmu.charge(0, PmuBucket::Noc, 30);
    pmu.charge(0, PmuBucket::VlbMissStall, 10);
    pmu.endWindow(0, /*busy=*/100, mark);
    EXPECT_EQ(pmu.bucket(0, PmuBucket::Noc), 30u);
    EXPECT_EQ(pmu.bucket(0, PmuBucket::VlbMissStall), 10u);
    EXPECT_EQ(pmu.bucket(0, PmuBucket::Retire), 60u);
}

TEST(Pmu, ChargesOutsideWindowAreDropped)
{
    Pmu pmu(1);
    pmu.charge(0, PmuBucket::Noc, 50);
    EXPECT_EQ(pmu.bucket(0, PmuBucket::Noc), 0u);
}

TEST(Pmu, ReclassifyMovesAtMostTheSourceBucket)
{
    Pmu pmu(1);
    std::uint64_t mark = pmu.beginWindow(0);
    pmu.charge(0, PmuBucket::Noc, 20);
    pmu.reclassify(0, PmuBucket::Noc, PmuBucket::VtwWalk, 50);
    pmu.endWindow(0, 20, mark);
    EXPECT_EQ(pmu.bucket(0, PmuBucket::Noc), 0u);
    EXPECT_EQ(pmu.bucket(0, PmuBucket::VtwWalk), 20u);
    EXPECT_EQ(pmu.bucket(0, PmuBucket::Retire), 0u);
}

TEST(Pmu, FinalizeFillsIdleSoBucketsSumToTotal)
{
    Pmu pmu(2);
    std::uint64_t mark = pmu.beginWindow(0);
    pmu.charge(0, PmuBucket::Noc, 40);
    pmu.endWindow(0, 100, mark);
    pmu.finalize(1000);
    EXPECT_EQ(pmu.totalTicks(), 1000u);
    EXPECT_EQ(pmu.clampedCores(), 0u);
    for (unsigned core = 0; core < 2; ++core) {
        std::uint64_t sum = 0;
        for (unsigned b = 0; b < Pmu::kNumBuckets; ++b)
            sum += pmu.bucket(core, static_cast<PmuBucket>(b));
        EXPECT_EQ(sum, 1000u) << "core " << core;
    }
    EXPECT_EQ(pmu.bucket(1, PmuBucket::Idle), 1000u);
}

TEST(Pmu, CsvExportsHaveStableShape)
{
    Pmu pmu(2);
    pmu.add(0, PmuCounter::RetiredOps, 3);
    pmu.finalize(10);
    std::ostringstream counters, topdown;
    pmu.writeCountersCsv(counters);
    pmu.writeTopDownCsv(topdown);
    EXPECT_NE(counters.str().find("core,counter,value"),
              std::string::npos);
    EXPECT_NE(counters.str().find("total,retired_ops,3"),
              std::string::npos);
    EXPECT_NE(topdown.str().find("core,retire,"), std::string::npos);
    EXPECT_NE(topdown.str().find("idle"), std::string::npos);
}

// --- Daemon events ----------------------------------------------------------

TEST(EventQueueDaemon, DaemonEventsDoNotAdvanceLastWorkTick)
{
    sim::EventQueue events;
    int fired = 0;
    events.schedule(100, [&] { ++fired; });
    events.scheduleDaemon(250, [&] { ++fired; });
    events.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(events.curTick(), 250u);
    EXPECT_EQ(events.lastWorkTick(), 100u);
}

// --- Flat JSON round trip ---------------------------------------------------

TEST(ProfileJson, RoundTripsAndRejectsTruncation)
{
    std::map<std::string, double> kv = {
        {"p99_us", 5.25}, {"counter.noc_hops", 12345.0}};
    std::ostringstream out;
    prof::writeFlatJson(out, kv);
    std::map<std::string, double> back;
    ASSERT_TRUE(prof::parseFlatJson(out.str(), back));
    EXPECT_EQ(back, kv);
    std::string truncated = out.str().substr(0, out.str().size() / 2);
    std::map<std::string, double> bad;
    EXPECT_FALSE(prof::parseFlatJson(truncated, bad));
    EXPECT_FALSE(prof::parseFlatJson("", bad));
}

// --- Full-run invariants ----------------------------------------------------

struct ProfiledRun {
    RunResult result;
    std::string countersCsv;
    std::string topdownCsv;
    std::string folded;
    std::string timeseriesCsv;
    sim::Tick totalTicks = 0;
    unsigned clampedCores = 0;
    std::uint64_t samples = 0;
    std::vector<std::uint64_t> bucketTotals;
};

ProfiledRun
runProfiled(double mrps = 2.0, std::uint64_t requests = 4000)
{
    workloads::Workload w = workloads::makeByName("Hotel");
    WorkerConfig cfg;
    WorkerServer worker(cfg, w.registry);
    Pmu pmu(cfg.machine.numCores);
    Profiler::Config pcfg;
    pcfg.freqGhz = cfg.machine.freqGhz;
    Profiler profiler(worker.eventQueue(), worker, pcfg);
    worker.setPmu(&pmu);
    worker.setProfiler(&profiler);

    ProfiledRun out;
    out.result = worker.run(mrps, requests, w.mix);
    std::ostringstream counters, topdown, folded, timeseries;
    pmu.writeCountersCsv(counters);
    pmu.writeTopDownCsv(topdown);
    profiler.writeFolded(folded);
    profiler.writeTimeSeriesCsv(timeseries);
    out.countersCsv = counters.str();
    out.topdownCsv = topdown.str();
    out.folded = folded.str();
    out.timeseriesCsv = timeseries.str();
    out.totalTicks = pmu.totalTicks();
    out.clampedCores = pmu.clampedCores();
    out.samples = profiler.samples();
    for (unsigned core = 0; core < pmu.numCores(); ++core) {
        std::uint64_t sum = 0;
        for (unsigned b = 0; b < Pmu::kNumBuckets; ++b)
            sum += pmu.bucket(core, static_cast<PmuBucket>(b));
        out.bucketTotals.push_back(sum);
    }
    return out;
}

TEST(ProfiledRuns, SameSeedRunsProduceIdenticalProfiles)
{
    ProfiledRun a = runProfiled();
    ProfiledRun b = runProfiled();
    EXPECT_EQ(a.countersCsv, b.countersCsv);
    EXPECT_EQ(a.topdownCsv, b.topdownCsv);
    EXPECT_EQ(a.folded, b.folded);
    EXPECT_EQ(a.timeseriesCsv, b.timeseriesCsv);
    EXPECT_EQ(a.samples, b.samples);
}

TEST(ProfiledRuns, TopDownBucketsSumToTotalTicksPerCore)
{
    ProfiledRun run = runProfiled();
    ASSERT_GT(run.totalTicks, 0u);
    EXPECT_EQ(run.clampedCores, 0u);
    for (std::size_t core = 0; core < run.bucketTotals.size(); ++core)
        EXPECT_EQ(run.bucketTotals[core], run.totalTicks)
            << "core " << core;
    EXPECT_GT(run.samples, 0u);
}

/** The counts each layer of @p worker keeps itself, one per line. */
std::string
layerStats(WorkerServer &worker)
{
    std::ostringstream out;
    for (unsigned op = 0;
         op < static_cast<unsigned>(privlib::PrivOp::NumOps); ++op) {
        const privlib::OpStats &stats =
            worker.privlib().stats(static_cast<privlib::PrivOp>(op));
        out << "privlib " << op << ' ' << stats.count << ' '
            << stats.cycles << '\n';
    }
    for (unsigned core = 0; core < worker.config().machine.numCores;
         ++core)
        for (const uat::Vlb *vlb :
             {&worker.uat().ivlb(core), &worker.uat().dvlb(core)})
            out << "vlb " << core << ' ' << vlb->stats().hits << ' '
                << vlb->stats().misses << '\n';
    const uat::VtdStats &vtd = worker.uat().vtd().stats();
    out << "vtd " << vtd.reads << ' ' << vtd.writes << ' '
        << vtd.pessimistic << '\n';
    return out.str();
}

TEST(ProfiledRuns, AttachingProfilingDoesNotPerturbTheRun)
{
    workloads::Workload w = workloads::makeByName("Hotel");

    auto runOnce = [&](bool profiled, std::string &layers) {
        WorkerConfig cfg;
        WorkerServer worker(cfg, w.registry);
        std::optional<Pmu> pmu;
        std::optional<Profiler> profiler;
        if (profiled) {
            pmu.emplace(cfg.machine.numCores);
            Profiler::Config pcfg;
            pcfg.freqGhz = cfg.machine.freqGhz;
            profiler.emplace(worker.eventQueue(), worker, pcfg);
            worker.setPmu(&*pmu);
            worker.setProfiler(&*profiler);
        }
        RunResult res = worker.run(2.0, 4000, w.mix);
        layers = layerStats(worker);
        return res;
    };

    std::string plain_layers, profiled_layers;
    RunResult plain = runOnce(false, plain_layers);
    RunResult profiled = runOnce(true, profiled_layers);

    EXPECT_EQ(plain_layers, profiled_layers);
    EXPECT_DOUBLE_EQ(plain.achievedMrps, profiled.achievedMrps);
    EXPECT_DOUBLE_EQ(plain.latencyUs.p50(), profiled.latencyUs.p50());
    EXPECT_DOUBLE_EQ(plain.latencyUs.p99(), profiled.latencyUs.p99());
    EXPECT_DOUBLE_EQ(plain.executorUtilization,
                     profiled.executorUtilization);
    EXPECT_EQ(plain.invocations, profiled.invocations);
    EXPECT_EQ(plain.completedRequests, profiled.completedRequests);
}

TEST(ProfiledRuns, FoldedStacksCaptureNestedInvocations)
{
    ProfiledRun run = runProfiled(4.0, 6000);
    // Hotel fans out (GetRecommendation -> ProfileGet etc.), so a busy
    // enough run must sample at least one nested stack, plus the
    // orchestrator pseudo-frame.
    EXPECT_NE(run.folded.find(';'), std::string::npos) << run.folded;
    EXPECT_NE(run.folded.find("orchestrator"), std::string::npos);
    // Folded weights are multiples of the sample period and the file
    // is sorted by stack name (std::map order).
    std::istringstream lines(run.folded);
    std::string prev, line;
    while (std::getline(lines, line)) {
        std::string stack = line.substr(0, line.rfind(' '));
        EXPECT_LT(prev, stack);
        prev = stack;
    }
}

} // namespace
