/**
 * @file
 * Tests for the host-parallel run engine (src/par): pool lifecycle,
 * orderedMap's index-order results, deterministic exception
 * propagation on the serial and the pooled path, nested fork-join
 * deadlock freedom, and the end-to-end byte-identity guarantee the CI
 * parallel-determinism job rests on. This binary is also run under
 * -fsanitize=thread in CI, so the stress tests double as data-race
 * probes.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/cluster.hh"
#include "par/par.hh"
#include "workloads/sweep.hh"
#include "workloads/workloads.hh"

using namespace jord;

namespace {

/** A tiny scheduling jitter so parallel runs actually interleave. */
void
jitter(std::size_t i)
{
    // Deliberate wall-clock jitter so workers and helping joins
    // actually interleave; it never reaches simulated state.
    // detlint: allow(D1, "test-only scheduling jitter, not sim state")
    std::this_thread::sleep_for(
        std::chrono::microseconds((i * 7) % 40));
}

} // namespace

TEST(Par, ResolveJobs)
{
    EXPECT_GE(par::resolveJobs(0), 1u);
    EXPECT_EQ(par::resolveJobs(1), 1u);
    EXPECT_EQ(par::resolveJobs(7), 7u);
}

TEST(Par, PoolRunsAllSubmittedTasks)
{
    std::atomic<int> count{0};
    {
        par::ThreadPool pool(4);
        EXPECT_EQ(pool.numThreads(), 4u);
        for (int i = 0; i < 200; ++i)
            pool.submit([&count] { ++count; });
        // No explicit wait: the destructor must drain the deque.
    }
    EXPECT_EQ(count.load(), 200);
}

TEST(Par, OrderedMapCommitsInSubmissionOrder)
{
    par::ThreadPool pool(4);
    std::vector<int> out =
        par::orderedMap<int>(&pool, 64, [](std::size_t i) {
            jitter(63 - i);
            return static_cast<int>(i * i);
        });
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(Par, SerialAndParallelResultsMatch)
{
    auto job = [](std::size_t i) {
        jitter(i);
        return static_cast<double>(i) * 1.5 + 1.0;
    };
    std::vector<double> serial =
        par::orderedMap<double>(nullptr, 32, job);
    par::ThreadPool pool(8);
    std::vector<double> parallel =
        par::orderedMap<double>(&pool, 32, job);
    EXPECT_EQ(serial, parallel);
}

TEST(Par, LowestIndexExceptionWins)
{
    auto job = [](std::size_t i) {
        // Index 9 fails temporally first, index 3 must still win.
        if (i == 3) {
            jitter(30);
            throw std::runtime_error("job 3");
        }
        if (i == 9)
            throw std::runtime_error("job 9");
        return static_cast<int>(i);
    };
    for (unsigned threads : {0u, 4u}) {
        std::unique_ptr<par::ThreadPool> pool;
        if (threads)
            pool = std::make_unique<par::ThreadPool>(threads);
        try {
            par::orderedMap<int>(pool.get(), 16, job);
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "job 3");
        }
    }
}

TEST(Par, FailedJobDoesNotCancelOthers)
{
    // Both paths: the serial loop must keep going after a throw just
    // like the pool does, and raise the error only at the join.
    for (unsigned threads : {0u, 2u}) {
        std::unique_ptr<par::ThreadPool> pool;
        if (threads)
            pool = std::make_unique<par::ThreadPool>(threads);
        std::atomic<int> ran{0};
        auto job = [&ran](std::size_t i) {
            if (i == 0)
                throw std::runtime_error("first");
            ++ran;
            return 0;
        };
        EXPECT_THROW(par::orderedMap<int>(pool.get(), 20, job),
                     std::runtime_error);
        EXPECT_EQ(ran.load(), 19) << threads << " threads";
    }
}

TEST(Par, NestedSubmissionIsDeadlockFree)
{
    // Three levels, like fig9's workload -> system -> load point: every
    // pool thread blocks in an inner join at some point; the helping
    // join is what keeps this from deadlocking.
    par::ThreadPool pool(2);
    std::vector<long> sums =
        par::orderedMap<long>(&pool, 4, [&pool](std::size_t outer) {
            std::vector<long> mid = par::orderedMap<long>(
                &pool, 3, [&pool, outer](std::size_t m) {
                    std::vector<long> inner = par::orderedMap<long>(
                        &pool, 8, [outer, m](std::size_t i) {
                            jitter(i);
                            return static_cast<long>(outer * 100 +
                                                     m * 10 + i);
                        });
                    return std::accumulate(inner.begin(), inner.end(),
                                           0L);
                });
            return std::accumulate(mid.begin(), mid.end(), 0L);
        });
    ASSERT_EQ(sums.size(), 4u);
    // 24 leaves per outer job: 3 mid x 8 inner, each m * 10 + i summing
    // to 8 * (0 + 10 + 20) + 3 * 28.
    for (std::size_t outer = 0; outer < sums.size(); ++outer)
        EXPECT_EQ(sums[outer], static_cast<long>(outer * 2400 + 324));
}

TEST(Par, StressManyMoreJobsThanThreads)
{
    par::ThreadPool pool(16); // intentionally more than host cores
    std::atomic<long> sum{0};
    par::orderedMap<int>(&pool, 2000, [&sum](std::size_t i) {
        sum += static_cast<long>(i);
        return 0;
    });
    EXPECT_EQ(sum.load(), 2000L * 1999 / 2);
}

TEST(Par, FinalizeSweepIsFillOrderIndependent)
{
    // Regression for the old accumulate-as-you-go knee detection: the
    // knee must be a pure function of the final point series, so an
    // out-of-order (parallel) fill finalizes identically.
    auto mkpoint = [](double mrps, bool meets) {
        workloads::SweepPoint p;
        p.offeredMrps = mrps;
        p.achievedMrps = mrps * 0.99;
        p.p99Us = meets ? 10.0 : 100.0;
        p.meetsSlo = meets;
        return p;
    };
    // meets, meets, fails, meets (post-knee recovery must not count).
    const bool pattern[] = {true, true, false, true};
    workloads::SweepResult in_order, reversed;
    in_order.points.resize(4);
    reversed.points.resize(4);
    for (std::size_t i = 0; i < 4; ++i)
        in_order.points[i] = mkpoint(1.0 + i, pattern[i]);
    for (std::size_t i = 4; i-- > 0;)
        reversed.points[i] = mkpoint(1.0 + i, pattern[i]);
    workloads::finalizeSweep(in_order);
    workloads::finalizeSweep(reversed);
    EXPECT_EQ(in_order.throughputUnderSlo,
              reversed.throughputUnderSlo);
    // The knee is the last point before the first SLO miss.
    EXPECT_DOUBLE_EQ(in_order.throughputUnderSlo, 2.0 * 0.99);
}

TEST(Par, SeedSweepByteIdenticalAcrossJobCounts)
{
    // The end-to-end golden: the merged per-seed CSV must not depend
    // on the thread count. Three seeds, small run, Hotel.
    workloads::Workload w = workloads::makeHotel();
    workloads::SeedSweepConfig cfg;
    cfg.seedLo = 1;
    cfg.seedHi = 3;
    cfg.mrps = 1.0;
    cfg.requests = 1200;
    auto csvAt = [&](unsigned threads) {
        std::unique_ptr<par::ThreadPool> pool;
        if (threads)
            pool = std::make_unique<par::ThreadPool>(threads);
        workloads::SeedSweepConfig run = cfg;
        run.pool = pool.get();
        auto results = workloads::runSeedSweep(w, run);
        return workloads::seedSweepCsv("Hotel", "Jord", run, results);
    };
    std::string serial = csvAt(0);
    EXPECT_EQ(serial.rfind("seed,workload,system,", 0), 0u);
    EXPECT_EQ(serial, csvAt(2));
    EXPECT_EQ(serial, csvAt(8));
}

TEST(Par, SweepLoadByteIdenticalAcrossJobCounts)
{
    workloads::Workload w = workloads::makeHotel();
    auto sweepAt = [&](unsigned threads) {
        std::unique_ptr<par::ThreadPool> pool;
        if (threads)
            pool = std::make_unique<par::ThreadPool>(threads);
        workloads::SweepConfig cfg;
        cfg.requestsPerPoint = 800;
        cfg.pool = pool.get();
        auto loads = workloads::loadSeries(0.5, 6.0, 6);
        return workloads::sweepLoad(w, runtime::SystemKind::Jord,
                                    loads, 30.0, cfg);
    };
    workloads::SweepResult serial = sweepAt(0);
    workloads::SweepResult parallel = sweepAt(4);
    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        EXPECT_EQ(serial.points[i].achievedMrps,
                  parallel.points[i].achievedMrps);
        EXPECT_EQ(serial.points[i].p99Us, parallel.points[i].p99Us);
        EXPECT_EQ(serial.points[i].meetsSlo,
                  parallel.points[i].meetsSlo);
    }
    EXPECT_EQ(serial.throughputUnderSlo, parallel.throughputUnderSlo);
}

TEST(Par, ClusterByteIdenticalAcrossJobCounts)
{
    // The fleet pipeline's only parallel stage is calibration (one
    // job per probe load); the fleet DES itself is serial. Both the
    // calibrated model and the cluster result must be bit-identical
    // whether calibration ran serially or on a pool.
    workloads::Workload w = workloads::makeHotel();
    auto runAt = [&](unsigned threads) {
        std::unique_ptr<par::ThreadPool> pool;
        if (threads)
            pool = std::make_unique<par::ThreadPool>(threads);
        cluster::ClusterConfig cfg;
        cfg.calibration.requests = 2000;
        cfg.numServers = 4;
        cfg.traffic.mrps = 2.0;
        cfg.traffic.durationUs = 5000.0;
        cluster::ServerModel model = cluster::calibrateServer(
            w, cfg.worker, cfg.calibration, pool.get());
        return cluster::ClusterSim(cfg, model).run();
    };
    cluster::ClusterResult serial = runAt(0);
    cluster::ClusterResult parallel = runAt(4);
    EXPECT_EQ(serial.generated, parallel.generated);
    EXPECT_EQ(serial.completed, parallel.completed);
    EXPECT_EQ(serial.shed, parallel.shed);
    EXPECT_EQ(serial.coldStarts, parallel.coldStarts);
    EXPECT_EQ(serial.p99Us, parallel.p99Us);
    EXPECT_EQ(serial.meanUs, parallel.meanUs);
    EXPECT_EQ(serial.goodputMrps, parallel.goodputMrps);
    EXPECT_EQ(serial.costServerSeconds, parallel.costServerSeconds);
    ASSERT_EQ(serial.servers.size(), parallel.servers.size());
    for (std::size_t s = 0; s < serial.servers.size(); ++s) {
        EXPECT_EQ(serial.servers[s].completed,
                  parallel.servers[s].completed);
        EXPECT_EQ(serial.servers[s].p99Us, parallel.servers[s].p99Us);
    }
}
