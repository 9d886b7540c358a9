/**
 * @file
 * Tests for the range VLB (§4.1) and the virtual translation directory
 * (§4.2), including the directory-victim corner case.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "mem/coherence.hh"
#include "noc/mesh.hh"
#include "uat/vlb.hh"
#include "uat/vtd.hh"
#include "uat/vte.hh"

namespace {

using jord::mem::CoreMask;
using jord::noc::Mesh;
using jord::sim::Addr;
using jord::sim::MachineConfig;
using jord::uat::Perm;
using jord::uat::Vlb;
using jord::uat::VlbEntry;
using jord::uat::Vtd;

VlbEntry
makeEntry(Addr vte, Addr base, std::uint64_t bound,
          jord::uat::PdId pd, bool global = false)
{
    VlbEntry entry;
    entry.valid = true;
    entry.vteAddr = vte;
    entry.base = base;
    entry.bound = bound;
    entry.offs = 0x1000;
    entry.perm = Perm::rw();
    entry.pd = pd;
    entry.global = global;
    return entry;
}

// --- Vlb --------------------------------------------------------------------

TEST(Vlb, RangeHitAnywhereInsideBound)
{
    Vlb vlb(16);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 4096, 3));
    EXPECT_TRUE(vlb.lookup(0x4000'0000'0000ull, 3).has_value());
    EXPECT_TRUE(vlb.lookup(0x4000'0000'0fffull, 3).has_value());
    EXPECT_FALSE(vlb.lookup(0x4000'0000'1000ull, 3).has_value());
    EXPECT_FALSE(vlb.lookup(0x3fff'ffff'ffffull, 3).has_value());
}

TEST(Vlb, PdTaggingIsolatesDomains)
{
    Vlb vlb(16);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 4096, 3));
    EXPECT_FALSE(vlb.lookup(0x4000'0000'0000ull, 4).has_value());
}

TEST(Vlb, GlobalEntryMatchesAnyPd)
{
    Vlb vlb(16);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 4096, 0, true));
    EXPECT_TRUE(vlb.lookup(0x4000'0000'0000ull, 99).has_value());
}

TEST(Vlb, LruReplacement)
{
    Vlb vlb(2);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 1));
    vlb.insert(makeEntry(0x140, 0x4000'0000'1000ull, 128, 1));
    vlb.lookup(0x4000'0000'0000ull, 1); // entry 1 becomes MRU
    vlb.insert(makeEntry(0x180, 0x4000'0000'2000ull, 128, 1));
    EXPECT_TRUE(vlb.holdsVte(0x100));
    EXPECT_FALSE(vlb.holdsVte(0x140));
    EXPECT_EQ(vlb.stats().evictions, 1u);
}

TEST(Vlb, ReinsertSameVtePdUpdatesInPlace)
{
    Vlb vlb(4);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 1));
    VlbEntry update = makeEntry(0x100, 0x4000'0000'0000ull, 256, 1);
    update.perm = Perm::r();
    vlb.insert(update);
    EXPECT_EQ(vlb.occupancy(), 1u);
    auto hit = vlb.lookup(0x4000'0000'0000ull, 1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->perm, Perm::r());
    EXPECT_EQ(hit->bound, 256u);
}

TEST(Vlb, SameVmaDifferentPdsCoexist)
{
    Vlb vlb(4);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 1));
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 2));
    EXPECT_EQ(vlb.occupancy(), 2u);
    EXPECT_TRUE(vlb.lookup(0x4000'0000'0000ull, 1).has_value());
    EXPECT_TRUE(vlb.lookup(0x4000'0000'0000ull, 2).has_value());
}

TEST(Vlb, InvalidateVteRemovesAllPdVariants)
{
    Vlb vlb(4);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 1));
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 2));
    vlb.insert(makeEntry(0x140, 0x4000'0000'1000ull, 128, 1));
    EXPECT_EQ(vlb.invalidateVte(0x100), 2u);
    EXPECT_FALSE(vlb.holdsVte(0x100));
    EXPECT_TRUE(vlb.holdsVte(0x140));
    EXPECT_EQ(vlb.stats().shootdowns, 2u);
}

TEST(Vlb, HitMissStats)
{
    Vlb vlb(4);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 1));
    vlb.lookup(0x4000'0000'0000ull, 1);
    vlb.lookup(0x5000'0000'0000ull, 1);
    EXPECT_EQ(vlb.stats().hits, 1u);
    EXPECT_EQ(vlb.stats().misses, 1u);
    EXPECT_NEAR(vlb.stats().hitRate(), 0.5, 1e-12);
}

// --- Vtd --------------------------------------------------------------------

class VtdTest : public ::testing::Test
{
  protected:
    MachineConfig cfg = MachineConfig::isca25Default();
    Mesh mesh{cfg};
    Vtd vtd{cfg, mesh};
};

TEST_F(VtdTest, TracksSharers)
{
    vtd.addSharer(0x2000'0000'0000ull, 3);
    vtd.addSharer(0x2000'0000'0000ull, 7);
    auto sharers = vtd.sharers(0x2000'0000'0000ull);
    ASSERT_TRUE(sharers.has_value());
    EXPECT_TRUE(sharers->test(3));
    EXPECT_TRUE(sharers->test(7));
    EXPECT_EQ(sharers->count(), 2u);
}

TEST_F(VtdTest, RemoveDropsEntry)
{
    vtd.addSharer(0x2000'0000'0000ull, 3);
    vtd.remove(0x2000'0000'0000ull);
    EXPECT_FALSE(vtd.sharers(0x2000'0000'0000ull).has_value());
}

TEST_F(VtdTest, UntrackedReturnsNullopt)
{
    EXPECT_FALSE(vtd.sharers(0xdead'beefull).has_value());
}

TEST_F(VtdTest, PessimisticInstallOnlyWhenAbsent)
{
    CoreMask dir;
    dir.set(5);
    vtd.installPessimistic(0x2000'0000'0040ull, dir);
    EXPECT_TRUE(vtd.sharers(0x2000'0000'0040ull)->test(5));

    // Already tracked precisely: the install must not clobber.
    vtd.addSharer(0x2000'0000'0080ull, 1);
    CoreMask other;
    other.set(9);
    vtd.installPessimistic(0x2000'0000'0080ull, other);
    auto sharers = vtd.sharers(0x2000'0000'0080ull);
    EXPECT_TRUE(sharers->test(1));
    EXPECT_FALSE(sharers->test(9));
}

TEST_F(VtdTest, EmptyMaskNotInstalled)
{
    vtd.installPessimistic(0x2000'0000'00c0ull, CoreMask{});
    EXPECT_FALSE(vtd.sharers(0x2000'0000'00c0ull).has_value());
}

TEST_F(VtdTest, CapacityEvictionLru)
{
    // Overfill one set: addresses that map to the same slice and set.
    MachineConfig tiny = cfg;
    tiny.vtdSets = 1;
    tiny.vtdWays = 2;
    Vtd small(tiny, mesh);
    // Find three VTE addresses homed on the same slice.
    std::vector<Addr> same_slice;
    unsigned target = mesh.homeSlice(0x2000'0000'0000ull, 0);
    for (Addr addr = 0x2000'0000'0000ull; same_slice.size() < 3;
         addr += 64) {
        if (mesh.homeSlice(addr, 0) == target)
            same_slice.push_back(addr);
    }
    small.addSharer(same_slice[0], 0);
    small.addSharer(same_slice[1], 1);
    small.addSharer(same_slice[0], 2); // refresh LRU of [0]
    small.addSharer(same_slice[2], 3); // evicts [1]
    EXPECT_TRUE(small.sharers(same_slice[0]).has_value());
    EXPECT_FALSE(small.sharers(same_slice[1]).has_value());
    EXPECT_TRUE(small.sharers(same_slice[2]).has_value());
    EXPECT_GE(small.stats().evictions, 1u);
}

TEST_F(VtdTest, CapacityScalesWithConfig)
{
    EXPECT_EQ(vtd.capacity(),
              static_cast<std::uint64_t>(cfg.vtdSets) * cfg.vtdWays *
                  cfg.numCores);
}

/** True if a value-initialised T is all-zero bytes, padding included. */
template <typename T>
bool
valueInitIsAllZeroBytes()
{
    const T value = T();
    const unsigned char zeros[sizeof(T)] = {};
    return std::memcmp(&value, zeros, sizeof(T)) == 0;
}

TEST(ZeroedTables, ValueInitialisedVteAndVtdEntryAreAllZeroBytes)
{
    // The VMA table's slots and the VTD's entries start as zero pages;
    // that is only right if zero bytes are the value-initialised state.
    EXPECT_TRUE(valueInitIsAllZeroBytes<jord::uat::Vte>());
    EXPECT_TRUE(valueInitIsAllZeroBytes<Vtd::Entry>());
}

} // namespace
