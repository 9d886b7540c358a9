/**
 * @file
 * Tests for the range VLB (§4.1) and the virtual translation directory
 * (§4.2), including the directory-victim corner case.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "mem/coherence.hh"
#include "noc/mesh.hh"
#include "sim/rng.hh"
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
    EXPECT_NE(vlb.lookup(0x4000'0000'0000ull, 3), nullptr);
    EXPECT_NE(vlb.lookup(0x4000'0000'0fffull, 3), nullptr);
    EXPECT_EQ(vlb.lookup(0x4000'0000'1000ull, 3), nullptr);
    EXPECT_EQ(vlb.lookup(0x3fff'ffff'ffffull, 3), nullptr);
}

TEST(Vlb, PdTaggingIsolatesDomains)
{
    Vlb vlb(16);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 4096, 3));
    EXPECT_EQ(vlb.lookup(0x4000'0000'0000ull, 4), nullptr);
}

TEST(Vlb, GlobalEntryMatchesAnyPd)
{
    Vlb vlb(16);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 4096, 0, true));
    EXPECT_NE(vlb.lookup(0x4000'0000'0000ull, 99), nullptr);
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
    const VlbEntry *hit = vlb.lookup(0x4000'0000'0000ull, 1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->perm, Perm::r());
    EXPECT_EQ(hit->bound, 256u);
}

TEST(Vlb, SameVmaDifferentPdsCoexist)
{
    Vlb vlb(4);
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 1));
    vlb.insert(makeEntry(0x100, 0x4000'0000'0000ull, 128, 2));
    EXPECT_EQ(vlb.occupancy(), 2u);
    EXPECT_NE(vlb.lookup(0x4000'0000'0000ull, 1), nullptr);
    EXPECT_NE(vlb.lookup(0x4000'0000'0000ull, 2), nullptr);
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

TEST(VlbDeathTest, MoreThan64EntriesFatal)
{
    // One 64-bit word records which entries are valid.
    EXPECT_DEATH(Vlb(65), "at most 64");
    Vlb widest(64);
    for (Addr i = 0; i <= 64; ++i)
        widest.insert(makeEntry(0x100 + i * 64, 0x4000'0000'0000ull + i * 4096,
                                128, 1));
    EXPECT_EQ(widest.occupancy(), 64u);
    EXPECT_EQ(widest.stats().evictions, 1u);
    EXPECT_FALSE(widest.holdsVte(0x100));
    EXPECT_TRUE(widest.holdsVte(0x100 + 64 * 64));
}

// --- Exact behaviour under random interleavings -----------------------------

/** FNV-1a over the bytes of 64-bit words. */
struct Digest {
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/**
 * Fixed-seed inserts, lookups, shootdowns and full flushes on a VLB of
 * @p entries entries, over 12 VMAs filled per PD or globally. A 13th
 * VTE maps a range that overlaps two of the others, as a stale entry
 * left by a skipped shootdown would. Returns a digest of every lookup
 * result, every shootdown count, holdsVte and occupancy after every
 * operation, and the final stats.
 */
std::uint64_t
vlbScriptDigest(unsigned entries)
{
    struct Vma {
        Addr vte;
        Addr base;
        std::uint64_t bound;
    };
    constexpr Addr kBase = 0x4000'0000'0000ull;
    std::vector<Vma> vmas;
    for (unsigned i = 0; i < 12; ++i)
        vmas.push_back({0x8000'0000ull + i * 64ull, kBase + i * 0x10000ull,
                        0x1000ull * (1 + i % 3)});
    vmas.push_back({0x8000'1000ull, kBase + 0x800, 0x10000});

    Vlb vlb(entries);
    Digest d;
    jord::sim::Rng rng(20261017);
    for (unsigned op = 0; op < 20000; ++op) {
        const Vma &vma = vmas[rng.uniformInt(vmas.size())];
        auto pd = static_cast<jord::uat::PdId>(1 + rng.uniformInt(3));
        std::uint64_t kind = rng.uniformInt(1000);
        d.add(kind);
        if (kind < 350) {
            VlbEntry entry = makeEntry(vma.vte, vma.base, vma.bound, pd,
                                       rng.chance(0.25));
            entry.offs = static_cast<std::int64_t>(rng.uniformInt(1 << 20));
            entry.perm = Perm(static_cast<std::uint8_t>(rng.uniformInt(8)));
            entry.pbit = rng.chance(0.1);
            vlb.insert(entry);
        } else if (kind < 800) {
            // Also probe just past the end of the range.
            Addr va = vma.base + rng.uniformInt(vma.bound + 0x100);
            const VlbEntry *hit = vlb.lookup(va, pd);
            d.add(hit != nullptr);
            if (hit) {
                d.add(hit->vteAddr);
                d.add(hit->base);
                d.add(hit->bound);
                d.add(static_cast<std::uint64_t>(hit->offs));
                d.add(hit->perm.bits);
                d.add(hit->pbit);
                d.add(hit->global);
                d.add(hit->pd);
            }
        } else if (kind < 995) {
            d.add(vlb.invalidateVte(vma.vte));
        } else {
            vlb.invalidateAll();
        }
        d.add(vlb.holdsVte(vma.vte));
        d.add(vlb.occupancy());
    }
    for (const Vma &vma : vmas)
        d.add(vlb.holdsVte(vma.vte));
    d.add(vlb.stats().hits);
    d.add(vlb.stats().misses);
    d.add(vlb.stats().evictions);
    d.add(vlb.stats().shootdowns);
    return d.h;
}

TEST(VlbDigest, RandomInterleavingsMatchThePinnedBehaviour)
{
    // Pinned from the VLB that tracks validity with a flag per entry and
    // scans every entry on each shootdown.
    EXPECT_EQ(vlbScriptDigest(1), 0xcdfb75d20c4eef54ull);
    EXPECT_EQ(vlbScriptDigest(2), 0x8a22ea8c49b2b123ull);
    EXPECT_EQ(vlbScriptDigest(4), 0x3fe176a535a28bd5ull);
    EXPECT_EQ(vlbScriptDigest(16), 0xa14dcf5aaee43f5full);
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

TEST_F(VtdTest, RemoveReturnsTheSharersAndUntracksTheVte)
{
    vtd.addSharer(0x2000'0000'0000ull, 3);
    vtd.addSharer(0x2000'0000'0000ull, 7);
    vtd.addSharer(0x2000'0000'0040ull, 5);
    std::optional<CoreMask> removed = vtd.remove(0x2000'0000'0000ull);
    ASSERT_TRUE(removed.has_value());
    EXPECT_TRUE(removed->test(3));
    EXPECT_TRUE(removed->test(7));
    EXPECT_EQ(removed->count(), 2u);
    EXPECT_FALSE(vtd.sharers(0x2000'0000'0000ull).has_value());
    // A second remove finds nothing, and the neighbour stays tracked.
    EXPECT_FALSE(vtd.remove(0x2000'0000'0000ull).has_value());
    std::optional<CoreMask> neighbour = vtd.sharers(0x2000'0000'0040ull);
    ASSERT_TRUE(neighbour.has_value());
    EXPECT_TRUE(neighbour->test(5));
    // The freed way takes a new registration with only its own sharer.
    vtd.addSharer(0x2000'0000'0000ull, 9);
    std::optional<CoreMask> fresh = vtd.sharers(0x2000'0000'0000ull);
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(fresh->count(), 1u);
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
