/**
 * @file
 * Tests for the machine configuration and the 2D-mesh NoC model.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "noc/mesh.hh"
#include "sim/machine.hh"

namespace {

using jord::noc::Coord;
using jord::noc::Mesh;
using jord::noc::MsgKind;
using jord::sim::Addr;
using jord::sim::Cycles;
using jord::sim::MachineConfig;

TEST(MachineConfig, DefaultMatchesTable2)
{
    MachineConfig cfg = MachineConfig::isca25Default();
    EXPECT_EQ(cfg.numCores, 32u);
    EXPECT_DOUBLE_EQ(cfg.freqGhz, 4.0);
    EXPECT_EQ(cfg.meshCols, 8u);
    EXPECT_EQ(cfg.meshRows, 4u);
    EXPECT_EQ(cfg.l1HitCycles, 2u);
    EXPECT_EQ(cfg.llcHitCycles, 6u);
    EXPECT_EQ(cfg.hopCycles, 3u);
    EXPECT_EQ(cfg.linkBytes, 16u);
    EXPECT_EQ(cfg.ivlbEntries, 16u);
    EXPECT_EQ(cfg.dvlbEntries, 16u);
    EXPECT_EQ(cfg.l1Lines, 512u);
}

TEST(MachineConfig, ScaledCoversAllCores)
{
    for (unsigned cores : {16u, 64u, 128u, 256u}) {
        MachineConfig cfg = MachineConfig::scaled(cores, 1);
        EXPECT_EQ(cfg.meshCols * cfg.meshRows, cores);
        EXPECT_GE(cfg.meshCols, cfg.meshRows);
    }
    MachineConfig dual = MachineConfig::scaled(256, 2);
    EXPECT_EQ(dual.coresPerSocket(), 128u);
    EXPECT_EQ(dual.meshCols * dual.meshRows, 128u);
}

TEST(MachineConfig, SocketOf)
{
    MachineConfig cfg = MachineConfig::scaled(256, 2);
    EXPECT_EQ(cfg.socketOf(0), 0u);
    EXPECT_EQ(cfg.socketOf(127), 0u);
    EXPECT_EQ(cfg.socketOf(128), 1u);
    EXPECT_EQ(cfg.socketOf(255), 1u);
}

TEST(MachineConfig, FpgaProfileScalesSoftwareOnly)
{
    MachineConfig sim_cfg = MachineConfig::isca25Default();
    MachineConfig fpga = MachineConfig::fpgaPrototype();
    EXPECT_DOUBLE_EQ(sim_cfg.swLatencyScale(), 1.0);
    EXPECT_GT(fpga.swLatencyScale(), 2.0);
    EXPECT_EQ(fpga.numCores, 2u);
}

TEST(MachineConfig, DescribeMentionsCores)
{
    EXPECT_NE(MachineConfig::isca25Default().describe().find("32-core"),
              std::string::npos);
}

class MeshTest : public ::testing::Test
{
  protected:
    MachineConfig cfg = MachineConfig::isca25Default();
    Mesh mesh{cfg};
};

TEST_F(MeshTest, HopCountIsManhattan)
{
    // Tile 0 = (0,0); tile 9 = (1,1) on an 8-wide mesh.
    EXPECT_EQ(mesh.hops(0, 0), 0u);
    EXPECT_EQ(mesh.hops(0, 1), 1u);
    EXPECT_EQ(mesh.hops(0, 9), 2u);
    EXPECT_EQ(mesh.hops(0, 31), 7u + 3u);
}

TEST_F(MeshTest, HopsAreSymmetric)
{
    for (unsigned a = 0; a < 32; a += 3)
        for (unsigned b = 0; b < 32; b += 5)
            EXPECT_EQ(mesh.hops(a, b), mesh.hops(b, a));
}

TEST_F(MeshTest, ControlVsDataSerialization)
{
    // 64 B block on 16 B links: 5 flits vs 1 flit -> 4 extra cycles.
    EXPECT_EQ(mesh.flits(MsgKind::Control), 1u);
    EXPECT_EQ(mesh.flits(MsgKind::Data), 5u);
    auto ctl = mesh.latency(0, 31, MsgKind::Control);
    auto data = mesh.latency(0, 31, MsgKind::Data);
    EXPECT_EQ(data - ctl, 4u);
}

TEST_F(MeshTest, LatencyScalesWithDistance)
{
    EXPECT_LT(mesh.latency(0, 1, MsgKind::Control),
              mesh.latency(0, 31, MsgKind::Control));
    // 10 hops at 3 cycles/hop.
    EXPECT_EQ(mesh.latency(0, 31, MsgKind::Control), 30u);
}

TEST_F(MeshTest, LocalSliceHasNoHops)
{
    EXPECT_EQ(mesh.latency(5, 5, MsgKind::Control), 0u);
    EXPECT_EQ(mesh.latency(5, 5, MsgKind::Data), 4u);
}

TEST_F(MeshTest, RoundTripIsRequestPlusResponse)
{
    auto rt = mesh.roundTrip(0, 31, MsgKind::Data);
    EXPECT_EQ(rt, mesh.latency(0, 31, MsgKind::Control) +
                      mesh.latency(31, 0, MsgKind::Data));
}

TEST_F(MeshTest, HomeSliceIsStableAndInRange)
{
    for (jord::sim::Addr addr = 0; addr < 100 * 64; addr += 64) {
        unsigned slice = mesh.homeSlice(addr, 0);
        EXPECT_LT(slice, 32u);
        EXPECT_EQ(slice, mesh.homeSlice(addr, 3));
    }
}

TEST_F(MeshTest, HomeSliceSpreadsBlocks)
{
    std::vector<unsigned> counts(32, 0);
    for (jord::sim::Addr addr = 0; addr < 3200 * 64; addr += 64)
        counts[mesh.homeSlice(addr, 0)]++;
    for (unsigned slice = 0; slice < 32; ++slice)
        EXPECT_GT(counts[slice], 50u) << "slice " << slice;
}

TEST(MeshMultiSocket, CrossSocketAddsLinkLatency)
{
    MachineConfig cfg = MachineConfig::scaled(256, 2);
    Mesh mesh(cfg);
    EXPECT_FALSE(mesh.crossSocket(0, 127));
    EXPECT_TRUE(mesh.crossSocket(0, 128));
    auto local = mesh.latency(0, 127, MsgKind::Control);
    auto remote = mesh.latency(0, 128, MsgKind::Control);
    EXPECT_GT(remote, local);
    EXPECT_GE(remote, cfg.interSocketCycles);
}

TEST(MeshMultiSocket, HomeSliceStaysInRequesterSocket)
{
    MachineConfig cfg = MachineConfig::scaled(256, 2);
    Mesh mesh(cfg);
    for (jord::sim::Addr addr = 0; addr < 64 * 64; addr += 64) {
        EXPECT_EQ(cfg.socketOf(mesh.homeSlice(addr, 5)), 0u);
        EXPECT_EQ(cfg.socketOf(mesh.homeSlice(addr, 200)), 1u);
    }
}

TEST(MeshMultiSocket, AvgLatencyGrowsWithScale)
{
    Mesh small(MachineConfig::scaled(16, 1));
    Mesh large(MachineConfig::scaled(256, 1));
    EXPECT_LT(small.avgLatencyFrom(0, MsgKind::Control),
              large.avgLatencyFrom(0, MsgKind::Control));
}

// --- Equivalence with the division-based formulas ---------------------------

/**
 * The mesh formulas written out with the divisions and modulos that
 * derive a tile's socket and coordinate on every call. Mesh precomputes
 * them per tile; every answer must stay the same.
 */
struct ReferenceMesh {
    const MachineConfig &cfg;

    unsigned tilesPerSocket() const { return cfg.meshCols * cfg.meshRows; }

    unsigned
    socketOf(unsigned tile) const
    {
        return tile / (cfg.numCores / cfg.numSockets);
    }

    Coord
    coordOf(unsigned tile) const
    {
        unsigned local = tile % tilesPerSocket();
        return Coord{local % cfg.meshCols, local / cfg.meshCols};
    }

    unsigned
    hops(unsigned a, unsigned b) const
    {
        Coord ca = coordOf(a);
        Coord cb = coordOf(b);
        int cols = static_cast<int>(ca.col) - static_cast<int>(cb.col);
        int rows = static_cast<int>(ca.row) - static_cast<int>(cb.row);
        return static_cast<unsigned>(std::abs(cols) + std::abs(rows));
    }

    Cycles
    serialization(MsgKind kind) const
    {
        if (kind == MsgKind::Control)
            return 0;
        return (jord::sim::kCacheBlockBytes + cfg.linkBytes - 1) /
               cfg.linkBytes;
    }

    Cycles
    latency(unsigned src, unsigned dst, MsgKind kind) const
    {
        if (socketOf(src) == socketOf(dst)) {
            if (src == dst)
                return serialization(kind);
            return hops(src, dst) * cfg.hopCycles + serialization(kind);
        }
        Coord s = coordOf(src);
        Coord d = coordOf(dst);
        int rows = static_cast<int>(s.row) - static_cast<int>(d.row);
        unsigned edge = s.col + d.col + static_cast<unsigned>(std::abs(rows));
        return edge * cfg.hopCycles + cfg.interSocketCycles +
               serialization(kind);
    }

    Cycles
    roundTrip(unsigned src, unsigned dst, MsgKind kind) const
    {
        return latency(src, dst, MsgKind::Control) + latency(dst, src, kind);
    }

    unsigned
    homeSlice(Addr block_addr, unsigned from_tile) const
    {
        Addr block = block_addr / jord::sim::kCacheBlockBytes;
        block ^= block >> 17;
        block *= 0xff51afd7ed558ccdull;
        block ^= block >> 33;
        return socketOf(from_tile) * tilesPerSocket() +
               static_cast<unsigned>(block % tilesPerSocket());
    }
};

void
expectMatchesReference(const MachineConfig &cfg)
{
    Mesh mesh(cfg);
    ReferenceMesh ref{cfg};
    const unsigned n = cfg.numCores;
    for (unsigned src = 0; src < n; ++src) {
        for (unsigned dst = 0; dst < n; ++dst) {
            for (MsgKind kind : {MsgKind::Control, MsgKind::Data}) {
                ASSERT_EQ(mesh.latency(src, dst, kind),
                          ref.latency(src, dst, kind))
                    << src << "->" << dst;
                ASSERT_EQ(mesh.roundTrip(src, dst, kind),
                          ref.roundTrip(src, dst, kind))
                    << src << "->" << dst;
            }
            ASSERT_EQ(mesh.hops(src, dst), ref.hops(src, dst))
                << src << "->" << dst;
        }
        for (Addr addr = 0; addr < 512 * 64; addr += 64 + 3) {
            ASSERT_EQ(mesh.homeSlice(addr, src), ref.homeSlice(addr, src))
                << addr << " from " << src;
            Addr high = 0x2000'0000'0000ull + addr * 4096;
            ASSERT_EQ(mesh.homeSlice(high, src), ref.homeSlice(high, src))
                << high << " from " << src;
        }
    }
}

TEST(MeshEquivalence, DefaultMachine)
{
    expectMatchesReference(MachineConfig::isca25Default());
}

TEST(MeshEquivalence, TwoSocket256Cores)
{
    expectMatchesReference(MachineConfig::scaled(256, 2));
}

TEST(MeshEquivalence, ThreeSocket48Cores)
{
    expectMatchesReference(MachineConfig::scaled(48, 3));
}

TEST(MeshEquivalence, FpgaPrototype)
{
    expectMatchesReference(MachineConfig::fpgaPrototype());
}

} // namespace
