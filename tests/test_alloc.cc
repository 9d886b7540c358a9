/**
 * @file
 * Allocation gate for the worker's request path.
 *
 * This binary replaces the global operator new with a counting one, so
 * it cannot share jord_tests. The gate counts the operator new calls
 * made inside one WorkerServer::run of the worker32-media benchmark
 * scenario (Media on the Table 2 machine, 4 orchestrators, seed 1,
 * 1.5 MRPS, 2,400 requests). Steady-state events, requests and
 * invocations reuse inline callbacks and recycled slots, so what is
 * left is growth: slot chunks, free lists and the samplers' vectors.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "runtime/worker.hh"
#include "workloads/workloads.hh"

namespace {

bool counting = false;
std::uint64_t news = 0;

void *
countedAlloc(std::size_t n)
{
    if (counting)
        ++news;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

// The library's array forms forward to these.
void *operator new(std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace jord;

TEST(WorkerAllocations, MediaRunStaysUnderTheGate)
{
    workloads::Workload w = workloads::makeByName("Media");
    runtime::WorkerConfig cfg;
    cfg.numOrchestrators = 4;
    cfg.seed = 1;
    runtime::WorkerServer worker(cfg, w.registry);

    news = 0;
    counting = true;
    runtime::RunResult res = worker.run(1.5, 2400, w.mix);
    counting = false;

    EXPECT_EQ(res.completedRequests, 1920u);
    EXPECT_GT(res.invocations, 20000u);
    EXPECT_LT(news, 5000u) << news << " operator new calls in one run";
}

} // namespace
