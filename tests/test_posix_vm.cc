/**
 * @file
 * Tests for the OS-mediated mmap/mprotect/munmap path with IPI
 * shootdowns — the slow path Jord is designed to avoid (§2.2).
 */

#include <gtest/gtest.h>

#include "mem/coherence.hh"
#include "noc/mesh.hh"
#include "vm/posix_vm.hh"

namespace {

using jord::mem::CoherenceEngine;
using jord::noc::Mesh;
using jord::sim::MachineConfig;
using jord::vm::kPageBytes;
using jord::vm::PagePerms;
using jord::vm::PosixVm;
using jord::vm::VmOpResult;

// --- PosixVm ------------------------------------------------------------------

class PosixVmTest : public ::testing::Test
{
  protected:
    MachineConfig cfg = MachineConfig::isca25Default();
    Mesh mesh{cfg};
    CoherenceEngine engine{cfg, mesh};
    PosixVm vm{cfg, engine};
};

TEST_F(PosixVmTest, MmapThenAccess)
{
    VmOpResult res = vm.mmap(0, 8 * kPageBytes, PagePerms::rw());
    ASSERT_TRUE(res.ok);
    EXPECT_GT(res.latency, jord::vm::oscost::kSyscall);
    EXPECT_EQ(vm.numVmas(), 1u);

    auto first = vm.pageTable().translate(res.addr);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->perms, PagePerms::rw());
    auto sixth = vm.pageTable().translate(res.addr + 5 * kPageBytes);
    ASSERT_TRUE(sixth.has_value());
    EXPECT_EQ(sixth->perms, PagePerms::rw());
}

TEST_F(PosixVmTest, MprotectEnforcedAndShootsDown)
{
    VmOpResult res = vm.mmap(0, kPageBytes, PagePerms::rw());
    ASSERT_TRUE(res.ok);
    VmOpResult prot = vm.mprotect(0, res.addr, kPageBytes,
                                  PagePerms::ro());
    ASSERT_TRUE(prot.ok);
    EXPECT_EQ(prot.ipis, cfg.numCores - 1);
    auto t = vm.pageTable().translate(res.addr);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->perms, PagePerms::ro());
}

TEST_F(PosixVmTest, MunmapRemovesMapping)
{
    VmOpResult res = vm.mmap(0, 2 * kPageBytes, PagePerms::rw());
    ASSERT_TRUE(res.ok);
    VmOpResult un = vm.munmap(0, res.addr, 2 * kPageBytes);
    ASSERT_TRUE(un.ok);
    EXPECT_EQ(vm.numVmas(), 0u);
    EXPECT_FALSE(vm.pageTable().translate(res.addr).has_value());
    EXPECT_FALSE(
        vm.pageTable().translate(res.addr + kPageBytes).has_value());
}

TEST_F(PosixVmTest, MunmapWrongLengthRejected)
{
    VmOpResult res = vm.mmap(0, 2 * kPageBytes, PagePerms::rw());
    EXPECT_FALSE(vm.munmap(0, res.addr, kPageBytes).ok);
}

TEST_F(PosixVmTest, ShootdownCostsMicroseconds)
{
    // The motivating observation of §2.2: OS-level permission changes
    // take on the order of microseconds due to IPI-based shootdowns.
    VmOpResult res = vm.mmap(0, kPageBytes, PagePerms::rw());
    VmOpResult prot = vm.mprotect(0, res.addr, kPageBytes,
                                  PagePerms::ro());
    double us = jord::sim::cyclesToUs(prot.latency, cfg.freqGhz);
    EXPECT_GT(us, 1.0);
}

TEST_F(PosixVmTest, DistinctMmapsDontOverlap)
{
    VmOpResult a = vm.mmap(0, 4 * kPageBytes, PagePerms::rw());
    VmOpResult b = vm.mmap(1, 4 * kPageBytes, PagePerms::rw());
    ASSERT_TRUE(a.ok && b.ok);
    EXPECT_GE(b.addr, a.addr + 4 * kPageBytes);
}

// --- Pinned OS-path costs -----------------------------------------------------

/**
 * A fresh PosixVm on @p cfg runs one 16 KB mmap -> mprotect(ro) ->
 * munmap from core 0; each step must cost exactly @p cycles with
 * @p ipis shootdown IPIs. motivation_vm_compare's OS column averages
 * repetitions of this sequence, so these pins catch any drift in the
 * syscall, leaf-PTE or shootdown cost model.
 */
void
expectOsPath(const MachineConfig &cfg, const jord::sim::Cycles (&cycles)[3],
             const unsigned (&ipis)[3])
{
    constexpr std::uint64_t kBytes = 16 << 10;
    Mesh mesh(cfg);
    CoherenceEngine engine(cfg, mesh);
    PosixVm vm(cfg, engine);
    VmOpResult ops[3];
    ops[0] = vm.mmap(0, kBytes, PagePerms::rw());
    ops[1] = vm.mprotect(0, ops[0].addr, kBytes, PagePerms::ro());
    ops[2] = vm.munmap(0, ops[0].addr, kBytes);
    for (unsigned i = 0; i < 3; ++i) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(ops[i].ok);
        EXPECT_EQ(ops[i].latency, cycles[i]);
        EXPECT_EQ(ops[i].ipis, ipis[i]);
    }
}

TEST(PosixVmPin, Isca25Default)
{
    expectOsPath(MachineConfig::isca25Default(), {1900, 36464, 36456},
                 {0, 31, 31});
}

TEST(PosixVmPin, Scaled64Cores2Sockets)
{
    // The second socket adds the inter-socket round trip to the slowest
    // shootdown handler.
    expectOsPath(MachineConfig::scaled(64, 2), {1900, 70544, 70536},
                 {0, 63, 63});
}

} // namespace
