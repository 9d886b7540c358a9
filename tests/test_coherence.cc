/**
 * @file
 * Tests for the directory-based MESI coherence engine: state
 * transitions, timing ordering, L1 capacity, atomics, the T-bit
 * observer protocol, and a pinned digest of random interleavings.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/coherence.hh"
#include "sim/rng.hh"

namespace {

using jord::mem::Access;
using jord::mem::CacheState;
using jord::mem::CoherenceEngine;
using jord::mem::CoreMask;
using jord::mem::TranslationObserver;
using jord::noc::Mesh;
using jord::sim::Addr;
using jord::sim::Cycles;
using jord::sim::MachineConfig;

constexpr Addr kA = 0x1000;
constexpr Addr kB = 0x2000;

class CoherenceTest : public ::testing::Test
{
  protected:
    MachineConfig cfg = MachineConfig::isca25Default();
    Mesh mesh{cfg};
    CoherenceEngine engine{cfg, mesh};
};

TEST_F(CoherenceTest, ColdReadFillsExclusiveFromDram)
{
    Access acc = engine.read(0, kA);
    EXPECT_FALSE(acc.l1Hit);
    EXPECT_FALSE(acc.llcHit);
    EXPECT_GE(acc.latency, cfg.dramCycles);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Exclusive);
    EXPECT_TRUE(engine.cachedIn(0, kA));
}

TEST_F(CoherenceTest, SecondReadIsL1Hit)
{
    engine.read(0, kA);
    Access acc = engine.read(0, kA);
    EXPECT_TRUE(acc.l1Hit);
    EXPECT_EQ(acc.latency, cfg.l1HitCycles);
    EXPECT_EQ(acc.messages, 0u);
}

TEST_F(CoherenceTest, SharedReadersDowngradeToShared)
{
    engine.read(0, kA);
    Access acc = engine.read(1, kA);
    EXPECT_FALSE(acc.l1Hit);
    EXPECT_TRUE(acc.llcHit);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Shared);
    EXPECT_TRUE(engine.cachedIn(0, kA));
    EXPECT_TRUE(engine.cachedIn(1, kA));
    EXPECT_EQ(engine.sharersOf(kA).count(), 2u);
}

TEST_F(CoherenceTest, WriteMakesModified)
{
    engine.write(0, kA);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Modified);
    Access again = engine.write(0, kA);
    EXPECT_TRUE(again.l1Hit);
    EXPECT_EQ(again.latency, cfg.l1HitCycles);
}

TEST_F(CoherenceTest, SilentExclusiveToModifiedUpgrade)
{
    engine.read(0, kA); // E
    Access acc = engine.write(0, kA);
    EXPECT_TRUE(acc.l1Hit);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Modified);
}

TEST_F(CoherenceTest, UpgradeInvalidatesOtherSharers)
{
    engine.read(0, kA);
    engine.read(1, kA);
    engine.read(2, kA);
    auto before = engine.stats().invalidations;
    Access acc = engine.write(1, kA);
    EXPECT_FALSE(acc.l1Hit);
    EXPECT_EQ(engine.stats().invalidations, before + 2);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Modified);
    EXPECT_FALSE(engine.cachedIn(0, kA));
    EXPECT_TRUE(engine.cachedIn(1, kA));
    EXPECT_FALSE(engine.cachedIn(2, kA));
}

TEST_F(CoherenceTest, DirtyRemoteReadForwardsFromOwner)
{
    engine.write(0, kA);
    Access acc = engine.read(1, kA);
    EXPECT_TRUE(acc.llcHit);
    EXPECT_GE(acc.messages, 3u);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Shared);
    // Owner forward must cost more than a plain LLC fetch.
    engine.flushAll();
    engine.read(2, kB);
    engine.evictL1(2, kB);
    Access llc_only = engine.read(1, kB);
    EXPECT_GT(acc.latency, cfg.l1HitCycles);
    EXPECT_TRUE(llc_only.llcHit);
}

TEST_F(CoherenceTest, RemoteDirtyWriteTransfersOwnership)
{
    engine.write(0, kA);
    Access acc = engine.write(1, kA);
    EXPECT_FALSE(acc.l1Hit);
    EXPECT_EQ(engine.stateOf(kA), CacheState::Modified);
    EXPECT_TRUE(engine.cachedIn(1, kA));
    EXPECT_FALSE(engine.cachedIn(0, kA));
}

TEST_F(CoherenceTest, LatencyOrderingL1LlcDram)
{
    Access dram = engine.read(0, kA); // cold
    engine.evictL1(0, kA);
    Access llc = engine.read(0, kA); // LLC
    Access l1 = engine.read(0, kA);  // L1
    EXPECT_LT(l1.latency, llc.latency);
    EXPECT_LT(llc.latency, dram.latency);
}

TEST_F(CoherenceTest, EvictL1WritesBackDirtyLine)
{
    engine.write(0, kA);
    engine.evictL1(0, kA);
    EXPECT_FALSE(engine.cachedIn(0, kA));
    EXPECT_EQ(engine.stateOf(kA), CacheState::Invalid);
    // The block stays on chip: refetch hits the LLC.
    Access acc = engine.read(0, kA);
    EXPECT_TRUE(acc.llcHit);
}

TEST_F(CoherenceTest, AtomicBehavesLikeWritePlusAlu)
{
    Access w = engine.write(0, kA);
    engine.flushAll();
    Access a = engine.atomic(0, kA);
    EXPECT_EQ(a.latency, w.latency + 1);
    EXPECT_EQ(engine.stats().atomics, 1u);
}

TEST_F(CoherenceTest, L1CapacityEvictsLru)
{
    // Fill the L1 beyond capacity; the first line must be gone.
    for (unsigned i = 0; i < cfg.l1Lines + 10; ++i)
        engine.read(0, kA + static_cast<Addr>(i) * 64);
    EXPECT_FALSE(engine.cachedIn(0, kA));
    EXPECT_TRUE(engine.cachedIn(
        0, kA + static_cast<Addr>(cfg.l1Lines + 9) * 64));
    // The evicted line refetches from the LLC, not DRAM.
    Access acc = engine.read(0, kA);
    EXPECT_TRUE(acc.llcHit);
}

TEST_F(CoherenceTest, L1LruKeepsHotLines)
{
    engine.read(0, kA); // will be kept hot
    for (unsigned i = 0; i < cfg.l1Lines - 1; ++i) {
        engine.read(0, kB + static_cast<Addr>(i) * 64);
        engine.read(0, kA); // touch to keep at MRU
    }
    // One more line evicts the LRU (an early kB line), not kA.
    engine.read(0, kB + static_cast<Addr>(cfg.l1Lines) * 64);
    EXPECT_TRUE(engine.cachedIn(0, kA));
}

TEST_F(CoherenceTest, StatsCount)
{
    engine.read(0, kA);
    engine.read(0, kA);
    engine.write(1, kA);
    const auto &stats = engine.stats();
    EXPECT_EQ(stats.reads, 2u);
    EXPECT_EQ(stats.writes, 1u);
    EXPECT_EQ(stats.l1Hits, 1u);
    EXPECT_EQ(stats.dramFills, 1u);
    EXPECT_GT(stats.messages, 0u);
}

TEST_F(CoherenceTest, SubBlockAddressesShareALine)
{
    engine.read(0, kA);
    Access acc = engine.read(0, kA + 32);
    EXPECT_TRUE(acc.l1Hit);
}

// --- T-bit observer protocol ------------------------------------------------

struct RecordingObserver : TranslationObserver {
    unsigned reads = 0;
    unsigned writes = 0;
    unsigned locals = 0;
    unsigned evicts = 0;
    CoreMask lastDir;
    Cycles extra = 0;

    void
    translationRead(unsigned, Addr) override
    {
        ++reads;
    }
    Cycles
    translationWrite(unsigned, Addr, const CoreMask &dir) override
    {
        ++writes;
        lastDir = dir;
        return extra;
    }
    void
    translationWriteLocal(unsigned, Addr) override
    {
        ++locals;
    }
    void
    directoryEvict(Addr, const CoreMask &dir) override
    {
        ++evicts;
        lastDir = dir;
    }
};

TEST_F(CoherenceTest, TbitReadNotifiesObserverOnHitsToo)
{
    // Every translation read registers the sharer, L1 hits included:
    // a VLB fill served from the local L1 must stay visible to later
    // shootdowns even after the block leaves the L1 (and with it the
    // directory's sharer list).
    RecordingObserver obs;
    engine.setTranslationObserver(&obs);
    engine.read(0, kA, true);
    EXPECT_EQ(obs.reads, 1u);
    engine.read(0, kA, true); // L1 hit: still registers
    EXPECT_EQ(obs.reads, 2u);
}

TEST_F(CoherenceTest, TbitWriteLocalWhenDirtyInOwnL1)
{
    RecordingObserver obs;
    engine.setTranslationObserver(&obs);
    engine.write(0, kA, true); // miss -> translationWrite
    EXPECT_EQ(obs.writes, 1u);
    engine.write(0, kA, true); // M hit -> local
    EXPECT_EQ(obs.locals, 1u);
    EXPECT_EQ(obs.writes, 1u);
}

TEST_F(CoherenceTest, TbitWritePassesDirectorySharers)
{
    RecordingObserver obs;
    engine.setTranslationObserver(&obs);
    engine.read(1, kA);
    engine.read(2, kA);
    engine.write(0, kA, true);
    EXPECT_TRUE(obs.lastDir.test(1));
    EXPECT_TRUE(obs.lastDir.test(2));
}

TEST_F(CoherenceTest, ObserverExtraLatencyIsAdded)
{
    RecordingObserver obs;
    obs.extra = 500;
    engine.setTranslationObserver(&obs);
    engine.read(1, kA);
    Access with = engine.write(0, kA, true);
    engine.flushAll();
    obs.extra = 0;
    engine.read(1, kA);
    Access without = engine.write(0, kA, true);
    EXPECT_EQ(with.latency, without.latency + 500);
}

TEST_F(CoherenceTest, DirectoryEvictNotifiesWithSharers)
{
    RecordingObserver obs;
    engine.setTranslationObserver(&obs);
    engine.read(3, kA);
    engine.evictDirectory(kA);
    EXPECT_EQ(obs.evicts, 1u);
    EXPECT_TRUE(obs.lastDir.test(3));
    EXPECT_EQ(engine.stateOf(kA), CacheState::Invalid);
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

    void
    add(const CoreMask &mask)
    {
        mask.forEach([&](unsigned core) { add(core); });
        add(~0ull);
    }
};

/** Folds every callback and its arguments into the digest. */
struct DigestObserver : TranslationObserver {
    Digest &d;

    explicit DigestObserver(Digest &digest) : d(digest) {}

    void
    translationRead(unsigned core, Addr addr) override
    {
        d.add(1);
        d.add(core);
        d.add(addr);
    }
    Cycles
    translationWrite(unsigned core, Addr addr, const CoreMask &dir) override
    {
        d.add(2);
        d.add(core);
        d.add(addr);
        d.add(dir);
        return (addr >> 6) % 5 * 7; // shootdown fan-out the engine adds
    }
    void
    translationWriteLocal(unsigned core, Addr addr) override
    {
        d.add(3);
        d.add(core);
        d.add(addr);
    }
    void
    directoryEvict(Addr addr, const CoreMask &dir) override
    {
        d.add(4);
        d.add(addr);
        d.add(dir);
    }
};

/**
 * Fixed-seed random reads, writes, atomics, forced L1 and directory
 * evictions and two full flushes on the 32-core machine with
 * @p l1_lines L1 lines, over 12288 distinct blocks in three address
 * patterns, with a hot subset that keeps lines shared. Invalidations
 * therefore interleave with L1 capacity evictions. Returns a digest of
 * every access outcome, every observer callback and the final
 * per-block directory and residency state.
 */
std::uint64_t
randomScriptDigest(unsigned l1_lines)
{
    MachineConfig cfg = MachineConfig::isca25Default();
    cfg.l1Lines = l1_lines;
    Mesh mesh{cfg};
    CoherenceEngine engine{cfg, mesh};
    Digest d;
    DigestObserver obs{d};
    engine.setTranslationObserver(&obs);

    constexpr unsigned kPerRegion = 4096;
    constexpr unsigned kHot = 48;
    std::vector<Addr> blocks;
    for (unsigned i = 0; i < kPerRegion; ++i) {
        blocks.push_back(0x1000'0000ull + i * 64ull);            // dense
        blocks.push_back(0x2000'0000'0000ull + i * 4096ull);     // pages
        blocks.push_back(0x7f00'0000'0000ull + i * 64ull * 257); // sparse
    }

    jord::sim::Rng rng(20251017);
    for (unsigned op = 0; op < 400000; ++op) {
        auto core = static_cast<unsigned>(rng.uniformInt(cfg.numCores));
        bool hot = rng.chance(0.6);
        Addr block = blocks[rng.uniformInt(hot ? 3 * kHot : blocks.size())];
        Addr addr = block + rng.uniformInt(64);
        bool tbit = rng.chance(0.3);
        std::uint64_t kind = rng.uniformInt(100000);
        Access acc;
        if (kind < 40000) {
            acc = engine.read(core, addr, tbit);
        } else if (kind < 75000) {
            acc = engine.write(core, addr, tbit);
        } else if (kind < 85000) {
            acc = engine.atomic(core, addr);
        } else if (kind < 95000) {
            engine.evictL1(core, addr);
        } else {
            engine.evictDirectory(addr);
        }
        d.add(kind);
        d.add(acc.latency);
        d.add(acc.l1Hit);
        d.add(acc.llcHit);
        d.add(acc.messages);
        // Rare enough that every L1 also fills to 512 lines in between.
        if (op % 150000 == 149999)
            engine.flushAll();
    }

    for (Addr block : blocks) {
        d.add(static_cast<std::uint64_t>(engine.stateOf(block)));
        for (unsigned core = 0; core < cfg.numCores; ++core)
            d.add(engine.cachedIn(core, block));
        d.add(engine.sharersOf(block));
    }
    const auto &s = engine.stats();
    d.add(s.reads);
    d.add(s.writes);
    d.add(s.atomics);
    d.add(s.l1Hits);
    d.add(s.llcHits);
    d.add(s.dramFills);
    d.add(s.invalidations);
    d.add(s.messages);
    d.add(s.tbitReads);
    d.add(s.tbitWrites);
    return d.h;
}

TEST(CoherenceDigest, RandomInterleavingsMatchThePinnedBehaviour)
{
    // Pinned from the node-based engine (std::unordered_map line table,
    // std::list L1 LRU). Any change to the line table or the LRU must
    // reproduce every access, callback and final state exactly.
    EXPECT_EQ(randomScriptDigest(1), 0x0958c6eed531d092ull);
    EXPECT_EQ(randomScriptDigest(4), 0x66e3521f3d6741f9ull);
    EXPECT_EQ(randomScriptDigest(512), 0x328fbdca03e1dbb9ull);
}

// --- CoreMask ----------------------------------------------------------------

TEST(CoreMask, BasicOperations)
{
    CoreMask mask;
    EXPECT_TRUE(mask.none());
    mask.set(3);
    mask.set(200);
    EXPECT_TRUE(mask.test(3));
    EXPECT_TRUE(mask.test(200));
    EXPECT_FALSE(mask.test(4));
    EXPECT_EQ(mask.count(), 2u);
    EXPECT_FALSE(mask.onlyContains(3));
    mask.clear(200);
    EXPECT_TRUE(mask.onlyContains(3));
}

TEST(CoreMask, ForEachVisitsInOrder)
{
    CoreMask mask;
    mask.set(5);
    mask.set(64);
    mask.set(255);
    std::vector<unsigned> seen;
    mask.forEach([&](unsigned core) { seen.push_back(core); });
    EXPECT_EQ(seen, (std::vector<unsigned>{5, 64, 255}));
}

TEST(CoreMask, SetOperators)
{
    CoreMask a, b;
    a.set(1);
    b.set(2);
    a |= b;
    EXPECT_EQ(a.count(), 2u);
    CoreMask c;
    c.set(2);
    a &= c;
    EXPECT_TRUE(a.onlyContains(2));
}

} // namespace
