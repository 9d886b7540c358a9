/**
 * @file
 * Exact digests of whole worker runs.
 *
 * Each digest is FNV-1a over the bit patterns of every RunResult field
 * (each sampler's count, moments and percentile grid; the per-function
 * vectors) plus the events the run dispatched. The runs cover the
 * request paths of the worker's host bookkeeping: nested fan-out,
 * failed attempts and their retries, deadlines that fire in queues and
 * mid-invocation, admission shedding, NightCore pipe drops of nested
 * calls, and profiler stack samples that walk the nested-call chain. A
 * host-speed change that moves a single simulated byte fails here. A
 * deliberate model change updates the constants and says why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "fault/fault.hh"
#include "prof/profiler.hh"
#include "runtime/worker.hh"
#include "workloads/workloads.hh"

namespace {

using namespace jord;
using runtime::RunResult;
using runtime::SystemKind;
using runtime::WorkerConfig;
using runtime::WorkerServer;

struct RunDigest {
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

    void
    add(const stats::Sampler &s)
    {
        add(static_cast<std::uint64_t>(s.count()));
        if (s.empty())
            return;
        for (double v : {s.mean(), s.min(), s.max(), s.stddev()})
            add(v);
        for (int p = 0; p <= 100; ++p)
            add(s.percentile(p));
    }

    void
    add(const runtime::Breakdown &bd)
    {
        for (sim::Cycles v :
             {bd.exec, bd.isolation, bd.dispatch, bd.comm, bd.pipe, bd.queue})
            add(static_cast<std::uint64_t>(v));
    }
};

std::uint64_t
digestOf(const RunResult &r, std::uint64_t events)
{
    RunDigest d;
    d.add(events);
    d.add(r.offeredMrps);
    d.add(r.achievedMrps);
    d.add(r.executorUtilization);
    for (std::uint64_t v :
         {r.invocations, r.completedRequests, r.failedRequests,
          r.timedOutRequests, r.shedRequests, r.retries,
          r.abortedInvocations, r.faultsInjected})
        d.add(v);
    d.add(r.totals);
    for (const stats::Sampler *s :
         {&r.latencyUs, &r.serviceUs, &r.failedUs, &r.timedOutUs,
          &r.retryDelayUs, &r.dispatchNs, &r.shootdownNs})
        d.add(*s);
    d.add(static_cast<std::uint64_t>(r.perFunctionCount.size()));
    for (std::size_t f = 0; f < r.perFunctionCount.size(); ++f) {
        d.add(r.perFunctionCount[f]);
        d.add(r.perFunctionServiceUs[f]);
        d.add(r.perFunctionBreakdown[f]);
    }
    return d.h;
}

struct PinnedRun {
    RunResult result;
    std::uint64_t digest = 0;
};

PinnedRun
runPinned(const WorkerConfig &cfg, const char *app, double mrps,
          std::uint64_t requests)
{
    workloads::Workload w = workloads::makeByName(app);
    WorkerServer worker(cfg, w.registry);
    PinnedRun out;
    out.result = worker.run(mrps, requests, w.mix);
    out.digest = digestOf(out.result, worker.eventQueue().numDispatched());
    return out;
}

WorkerConfig
pinConfig(SystemKind system)
{
    WorkerConfig cfg;
    cfg.system = system;
    cfg.seed = 1;
    return cfg;
}

TEST(WorkerPin, JordMediaNestedFanOut)
{
    // Every Media entry fans out asynchronously (12 children, or 106
    // for ReadPage) and joins before its last segment.
    PinnedRun run = runPinned(pinConfig(SystemKind::Jord), "Media", 1.5,
                              1200);
    EXPECT_EQ(run.result.completedRequests, 960u);
    EXPECT_GT(run.result.invocations, 10u * 960u);
    EXPECT_EQ(run.digest, 0x64aaa7810fcfa8afull);
}

TEST(WorkerPin, JordHotelFaultsDeadlinesRetriesAndShedding)
{
    // Hotel mixes sync and async nested calls. Past its capacity, with
    // crashes, ArgBuf violations and stragglers injected, attempts fail
    // and retry, deadlines fire in the orchestrator queue and
    // mid-invocation, and the queue cap sheds.
    WorkerConfig cfg = pinConfig(SystemKind::Jord);
    cfg.faultPlan =
        fault::FaultPlan::parse("crash=0.1,perm=0.05,spike=0.05,seed=3");
    cfg.timeoutUs = 60.0;
    cfg.maxRetries = 1;
    cfg.retryBackoffUs = 5.0;
    cfg.shedCap = 48;
    PinnedRun run = runPinned(cfg, "Hotel", 7.5, 3000);
    const RunResult &r = run.result;
    EXPECT_EQ(r.completedRequests + r.failedRequests + r.timedOutRequests +
                  r.shedRequests,
              2400u);
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_GT(r.failedRequests, 0u);
    EXPECT_GT(r.timedOutRequests, 0u);
    EXPECT_GT(r.shedRequests, 0u);
    EXPECT_GT(r.abortedInvocations, 0u);
    EXPECT_EQ(run.digest, 0x3b47b619ee520fabull);
}

TEST(WorkerPin, NightCorePipeDropsOfNestedCalls)
{
    // A dropped nested call delivers a failed result to its waiting
    // parent; a dropped root dispatch fails the attempt.
    WorkerConfig cfg = pinConfig(SystemKind::NightCore);
    cfg.faultPlan = fault::FaultPlan::parse("drop=0.05,seed=5");
    cfg.maxRetries = 1;
    PinnedRun run = runPinned(cfg, "Hotel", 0.8, 1500);
    const RunResult &r = run.result;
    EXPECT_EQ(r.completedRequests + r.failedRequests, 1200u);
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_GT(r.retries, 0u);
    EXPECT_GT(r.abortedInvocations, 0u);
    EXPECT_EQ(run.digest, 0xf508c51392c5a082ull);
}

TEST(WorkerPin, ProfiledRunFoldsNestedStacks)
{
    // The sampling profiler walks each running invocation's parent
    // chain into a folded stack and samples the live-invocation and
    // queue-depth gauges; its daemon events interleave with the run's.
    WorkerConfig cfg = pinConfig(SystemKind::Jord);
    workloads::Workload w = workloads::makeByName("Media");
    WorkerServer worker(cfg, w.registry);
    prof::Profiler::Config pcfg;
    pcfg.freqGhz = cfg.machine.freqGhz;
    pcfg.hz = 2e6;
    prof::Profiler profiler(worker.eventQueue(), worker, pcfg);
    worker.setProfiler(&profiler);
    RunResult res = worker.run(1.5, 1200, w.mix);

    RunDigest d;
    d.add(digestOf(res, worker.eventQueue().numDispatched()));
    d.add(profiler.samples());
    std::size_t nested = 0;
    for (const auto &[stack, cycles] : profiler.folded()) {
        d.add(stack);
        d.add(cycles);
        nested += stack.find(';') != std::string::npos;
    }
    std::ostringstream series;
    profiler.writeTimeSeriesCsv(series);
    d.add(series.str());
    EXPECT_GT(nested, 0u);
    EXPECT_EQ(d.h, 0xf7abf72eff0063baull);
}

} // namespace
