/**
 * @file
 * Tests for the OS kernel model (§4.4) and the NightCore baseline cost
 * models (pipes, worker provisioning).
 */

#include <gtest/gtest.h>

#include "baseline/nightcore.hh"
#include "os/kernel.hh"
#include "runtime/worker.hh"
#include "workloads/workloads.hh"

namespace {

using namespace jord;
namespace pipe = baseline::pipe;
using os::Kernel;
using os::SyscallResult;

// --- Kernel -------------------------------------------------------------------

TEST(Kernel, ReserveHandsOutDisjointChunks)
{
    Kernel kernel(sim::MachineConfig::isca25Default(), 1 << 20);
    SyscallResult a = kernel.uatConfigReserve(4096);
    SyscallResult b = kernel.uatConfigReserve(4096);
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_GE(b.addr, a.addr + 4096);
    EXPECT_EQ(kernel.numSyscalls(), 2u);
}

TEST(Kernel, ReserveChargesSyscallLatency)
{
    Kernel kernel(sim::MachineConfig::isca25Default());
    SyscallResult res = kernel.uatConfigReserve(4096);
    EXPECT_EQ(res.latency, kernel.syscallCycles());
    EXPECT_GT(sim::cyclesToNs(res.latency), 100.0);
}

TEST(Kernel, ReservationExhausts)
{
    Kernel kernel(sim::MachineConfig::isca25Default(), 8192);
    EXPECT_TRUE(kernel.uatConfigReserve(8192).ok);
    SyscallResult fail = kernel.uatConfigReserve(64);
    EXPECT_FALSE(fail.ok);
    EXPECT_GT(fail.latency, 0u); // the failed syscall still costs
}

TEST(Kernel, ChunksAreBlockAligned)
{
    Kernel kernel(sim::MachineConfig::isca25Default());
    kernel.uatConfigReserve(100); // rounds to 128
    SyscallResult next = kernel.uatConfigReserve(64);
    EXPECT_EQ(next.addr % sim::kCacheBlockBytes, 0u);
}

TEST(Kernel, ContextSaveRestoreRoundTrips)
{
    Kernel kernel(sim::MachineConfig::isca25Default());
    uat::UatCsrFile live;
    live.setUatp(0x2000'0000'0000ull, true);
    live.uatc = 0x1234;
    live.ucid = 42;

    uat::UatCsrFile saved;
    kernel.saveContext(live, saved);
    uat::UatCsrFile restored;
    kernel.restoreContext(saved, restored);
    EXPECT_EQ(restored.uatp, live.uatp);
    EXPECT_EQ(restored.uatc, live.uatc);
    EXPECT_EQ(restored.ucid, live.ucid);
    EXPECT_TRUE(restored.enabled());
    EXPECT_GT(kernel.csrContextSwitchCycles(), 0u);
}

// --- PipeCosts -----------------------------------------------------------------

TEST(PipeCosts, CostsScaleWithPayload)
{
    EXPECT_GT(pipe::sendBusy(4096), pipe::sendBusy(64));
    EXPECT_GT(pipe::recvBusy(4096), pipe::recvBusy(64));
    EXPECT_EQ(pipe::sendBusy(4096) - pipe::sendBusy(0),
              static_cast<sim::Cycles>(4096 * pipe::kCopyCyclesPerByte));
}

TEST(PipeCosts, SyscallFloorDominatesSmallMessages)
{
    // A 64-byte message costs nearly the same as an empty one.
    EXPECT_LT(pipe::sendBusy(64) - pipe::sendBusy(0), 20u);
    EXPECT_GT(sim::cyclesToNs(pipe::sendBusy(0)), 200.0);
}

TEST(PipeCosts, RoundTripIsMicrosecondScale)
{
    double one_hop_ns =
        sim::cyclesToNs(pipe::sendBusy(512) + pipe::recvBusy(512) +
                        pipe::recvLatency());
    EXPECT_GT(one_hop_ns, 1000.0);
    EXPECT_LT(one_hop_ns, 5000.0);
}

// --- Provisioning ----------------------------------------------------------------

TEST(Provisioning, ColdStartPenaltyAppearsOnce)
{
    // With a single pre-provisioned worker per function, driving
    // concurrency up forces 0.8 ms provisioning stalls that show up in
    // the tail during warmup.
    runtime::FunctionRegistry reg;
    runtime::FunctionSpec spec;
    spec.name = "slow";
    spec.execMeanUs = 20.0;
    auto fn = reg.add(spec);

    runtime::WorkerConfig cold;
    cold.system = runtime::SystemKind::NightCore;
    cold.provisioning.preProvisioned = 1;
    runtime::WorkerServer cold_worker(cold, reg);
    // Measure from the first request (no warmup) to catch cold starts.
    auto cold_res = cold_worker.run(0.4, 1500, {{fn, 1.0}}, 0.0);

    runtime::WorkerConfig warm = cold;
    warm.provisioning.preProvisioned = 64;
    runtime::WorkerServer warm_worker(warm, reg);
    auto warm_res = warm_worker.run(0.4, 1500, {{fn, 1.0}}, 0.0);

    // The cold system's worst latency includes ~0.8 ms provisioning.
    EXPECT_GT(cold_res.latencyUs.max(), 700.0);
    EXPECT_LT(warm_res.latencyUs.max(), cold_res.latencyUs.max());

    // Steady state (second run, same worker) no longer provisions.
    auto steady = cold_worker.run(0.4, 1500, {{fn, 1.0}}, 0.0);
    EXPECT_LT(steady.latencyUs.max(), cold_res.latencyUs.max());
}

TEST(Provisioning, JordNeedsNoProvisioning)
{
    // Jord's "cold start" is a PD + stack/heap allocation: the first
    // request is as fast as any other.
    workloads::Workload w = workloads::makeHotel();
    runtime::WorkerConfig cfg;
    runtime::WorkerServer worker(cfg, w.registry);
    auto res = worker.run(0.5, 1500, w.mix, 0.0);
    EXPECT_LT(res.latencyUs.max(), 400.0);
}

} // namespace
