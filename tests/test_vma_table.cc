/**
 * @file
 * Tests for the VTE layout (Fig. 8), the plain-list VMA table, and the
 * B-tree table including its structural invariants under random churn.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/rng.hh"
#include "uat/btree_table.hh"
#include "uat/vma_table.hh"

namespace {

using jord::sim::Addr;
using jord::sim::Rng;
using jord::uat::BTreeVmaTable;
using jord::uat::kSubArrayEntries;
using jord::uat::Perm;
using jord::uat::PlainListVmaTable;
using jord::uat::SubEntry;
using jord::uat::TableUpdate;
using jord::uat::TableWalk;
using jord::uat::VaEncoding;
using jord::uat::Vte;

// --- VTE layout ---------------------------------------------------------------

TEST(Vte, IsOneCacheBlock)
{
    EXPECT_EQ(sizeof(Vte), 64u);
}

TEST(Vte, SubEntryEncoding)
{
    SubEntry entry = SubEntry::make(0x123, Perm::rw());
    EXPECT_TRUE(entry.valid());
    EXPECT_EQ(entry.pd(), 0x123);
    EXPECT_EQ(entry.perm(), Perm::rw());
    entry.clear();
    EXPECT_FALSE(entry.valid());
}

TEST(Vte, AttrBits)
{
    Vte vte;
    EXPECT_FALSE(vte.valid());
    vte.setAttr(true, true, false, Perm::rx());
    EXPECT_TRUE(vte.valid());
    EXPECT_TRUE(vte.global());
    EXPECT_FALSE(vte.privileged());
    EXPECT_EQ(vte.globalPerm(), Perm::rx());
    vte.setAttr(true, false, true, Perm::none());
    EXPECT_TRUE(vte.privileged());
    EXPECT_FALSE(vte.global());
}

TEST(Vte, OffsIsSignedAndPreserved)
{
    Vte vte;
    vte.setOffs(-0x3800'0000'0000ll);
    EXPECT_EQ(vte.offs(), -0x3800'0000'0000ll);
    vte.setAttr(true, false, false, Perm::none());
    EXPECT_EQ(vte.offs(), -0x3800'0000'0000ll); // attr must not clobber
    vte.setOffs(0x7ff'ffff'f000ll);
    EXPECT_EQ(vte.offs(), 0x7ff'ffff'f000ll);
}

TEST(Vte, SubArrayFindAndFill)
{
    Vte vte;
    for (unsigned i = 0; i < kSubArrayEntries; ++i) {
        SubEntry *slot = vte.freeSub();
        ASSERT_NE(slot, nullptr);
        *slot = SubEntry::make(static_cast<jord::uat::PdId>(i + 1),
                               Perm::r());
    }
    EXPECT_EQ(vte.freeSub(), nullptr);
    EXPECT_EQ(vte.numSharers(), kSubArrayEntries);
    EXPECT_NE(vte.findSub(7), nullptr);
    EXPECT_EQ(vte.findSub(99), nullptr);
}

// --- Plain list ---------------------------------------------------------------

class PlainListTest : public ::testing::Test
{
  protected:
    VaEncoding enc;
    PlainListVmaTable table{enc};
};

TEST_F(PlainListTest, WalkTouchesExactlyOneBlock)
{
    Addr base = enc.encode(2, 17);
    TableWalk walk = table.walk(base + 100);
    ASSERT_NE(walk.vte, nullptr);
    EXPECT_EQ(walk.readAddrs.size(), 1u);
    EXPECT_EQ(walk.readAddrs[0], walk.vteAddr);
    EXPECT_EQ(walk.vmaBase, base);
}

TEST_F(PlainListTest, VteAddrIsPureFunctionOfVa)
{
    Addr base = enc.encode(4, 9);
    EXPECT_EQ(table.vteAddrOf(base),
              jord::uat::kVmaTableBase +
                  enc.slotOf(4, 9) * 64);
    EXPECT_EQ(table.walk(base + 5).vteAddr, table.vteAddrOf(base));
}

TEST_F(PlainListTest, NonUatVaHasNoSlot)
{
    TableWalk walk = table.walk(0x7f00'0000'0000ull);
    EXPECT_EQ(walk.vte, nullptr);
    EXPECT_TRUE(walk.readAddrs.empty());
}

TEST_F(PlainListTest, InsertRemoveTracksCount)
{
    Addr base = enc.encode(0, 0);
    EXPECT_TRUE(table.noteInsert(base).ok);
    table.vteFor(base)->setAttr(true, false, false, Perm::none());
    EXPECT_EQ(table.numValid(), 1u);
    EXPECT_TRUE(table.noteRemove(base).ok);
    EXPECT_EQ(table.numValid(), 0u);
}

TEST_F(PlainListTest, ContainsCoversTableRegion)
{
    EXPECT_TRUE(table.contains(jord::uat::kVmaTableBase));
    EXPECT_TRUE(table.contains(jord::uat::kVmaTableBase + 64 * 1000));
    EXPECT_FALSE(table.contains(jord::uat::kVmaTableBase - 1));
}

TEST_F(PlainListTest, PermForChecksSubArrayGlobalAndOverflow)
{
    Addr base = enc.encode(1, 1);
    Vte *vte = table.vteFor(base);
    ASSERT_NE(vte, nullptr);
    vte->setAttr(true, false, false, Perm::none());
    *vte->freeSub() = SubEntry::make(5, Perm::rw());

    EXPECT_EQ(table.permFor(*vte, 5).value(), Perm::rw());
    EXPECT_FALSE(table.permFor(*vte, 6).has_value());

    // Overflow list behind the ptr field.
    table.overflowList(*vte).push_back(SubEntry::make(77, Perm::r()));
    EXPECT_EQ(table.permFor(*vte, 77).value(), Perm::r());

    // Global bit overrides the sub-array.
    vte->setAttr(true, true, false, Perm::rx());
    EXPECT_EQ(table.permFor(*vte, 999).value(), Perm::rx());

    table.clearOverflow(*vte);
    EXPECT_EQ(vte->ptr, 0u);
}

TEST_F(PlainListTest, InvalidVteHasNoPerm)
{
    Addr base = enc.encode(1, 2);
    Vte *vte = table.vteFor(base);
    EXPECT_FALSE(table.permFor(*vte, 0).has_value());
}

// --- B-tree -------------------------------------------------------------------

class BTreeTest : public ::testing::Test
{
  protected:
    VaEncoding enc;
    BTreeVmaTable table{enc};

    Addr
    key(unsigned sc, std::uint64_t index)
    {
        return enc.encode(sc, index);
    }
};

TEST_F(BTreeTest, InsertThenWalkFindsVte)
{
    Addr base = key(2, 5);
    TableUpdate upd = table.noteInsert(base);
    ASSERT_TRUE(upd.ok);
    Vte *vte = table.vteFor(base);
    ASSERT_NE(vte, nullptr);
    vte->bound = 512;
    vte->setAttr(true, false, false, Perm::none());

    TableWalk walk = table.walk(base + 17);
    ASSERT_NE(walk.vte, nullptr);
    EXPECT_EQ(walk.vte->bound, 512u);
    EXPECT_EQ(walk.vmaBase, base);
    // Node path + VTE block: at least two reads (vs one for the list).
    EXPECT_GE(walk.readAddrs.size(), 2u);
}

TEST_F(BTreeTest, DuplicateInsertRejected)
{
    Addr base = key(0, 1);
    EXPECT_TRUE(table.noteInsert(base).ok);
    EXPECT_FALSE(table.noteInsert(base).ok);
}

TEST_F(BTreeTest, RemoveMakesKeyUnfindable)
{
    Addr base = key(0, 1);
    table.noteInsert(base);
    EXPECT_TRUE(table.noteRemove(base).ok);
    EXPECT_EQ(table.vteFor(base), nullptr);
    EXPECT_FALSE(table.noteRemove(base).ok);
}

TEST_F(BTreeTest, HeightGrowsLogarithmically)
{
    EXPECT_EQ(table.height(), 1u);
    for (std::uint64_t i = 0; i < 1000; ++i)
        table.noteInsert(key(0, i));
    EXPECT_GE(table.height(), 3u);
    EXPECT_LE(table.height(), 6u);
    EXPECT_TRUE(table.checkInvariants());
}

TEST_F(BTreeTest, SplitsReportNodeWrites)
{
    // Fill one leaf, then overflow it: the split dirties several nodes.
    TableUpdate last;
    for (std::uint64_t i = 0; i <= jord::uat::kBtreeOrder; ++i)
        last = table.noteInsert(key(0, i));
    EXPECT_TRUE(last.ok);
    bool any_multi_write = last.writeAddrs.size() >= 3;
    EXPECT_TRUE(any_multi_write);
}

TEST_F(BTreeTest, WalkDepthMatchesHeight)
{
    for (std::uint64_t i = 0; i < 500; ++i)
        table.noteInsert(key(0, i));
    TableWalk walk = table.walk(key(0, 250));
    ASSERT_NE(walk.vte, nullptr);
    EXPECT_EQ(walk.readAddrs.size(), table.height() + 1);
}

TEST_F(BTreeTest, WalkPathHoldsATreeOfAHundredThousandVmas)
{
    // Walks record their reads in a fixed inline array. A tree grown
    // by sequential inserts to 100k VMAs is 7 levels deep, and its
    // walks must stay well inside the array.
    std::vector<Addr> bases;
    for (unsigned sc = 0; bases.size() < 100000; ++sc)
        for (std::uint64_t i = 0;
             i < enc.indicesPerClass(sc) && bases.size() < 100000; ++i)
            bases.push_back(key(sc, i));
    for (Addr base : bases)
        ASSERT_TRUE(table.noteInsert(base).ok);
    EXPECT_TRUE(table.checkInvariants());
    EXPECT_GE(table.height(), 7u);
    EXPECT_LT(table.height() + 1, jord::uat::WalkPath::kCapacity);
    for (Addr base : bases) {
        TableWalk walk = table.walk(base);
        ASSERT_NE(walk.vte, nullptr);
        ASSERT_EQ(walk.readAddrs.size(), table.height() + 1);
        ASSERT_EQ(walk.readAddrs[walk.readAddrs.size() - 1], walk.vteAddr);
    }
}

TEST_F(BTreeTest, RandomChurnKeepsInvariantsProperty)
{
    Rng rng(55);
    std::set<std::uint64_t> live;
    for (int step = 0; step < 6000; ++step) {
        std::uint64_t index = rng.uniformInt(std::uint64_t(800));
        if (rng.chance(0.55)) {
            bool ok = table.noteInsert(key(0, index)).ok;
            EXPECT_EQ(ok, !live.count(index));
            live.insert(index);
        } else {
            bool ok = table.noteRemove(key(0, index)).ok;
            EXPECT_EQ(ok, live.erase(index) == 1);
        }
        if (step % 500 == 0) {
            ASSERT_TRUE(table.checkInvariants()) << "step " << step;
        }
    }
    ASSERT_TRUE(table.checkInvariants());
    EXPECT_EQ(table.numValid(), live.size());
    for (std::uint64_t index : live)
        EXPECT_NE(table.vteFor(key(0, index)), nullptr);
}

TEST_F(BTreeTest, DrainToEmptyAndReuse)
{
    for (std::uint64_t i = 0; i < 200; ++i)
        table.noteInsert(key(0, i));
    for (std::uint64_t i = 0; i < 200; ++i)
        EXPECT_TRUE(table.noteRemove(key(0, i)).ok);
    EXPECT_EQ(table.numValid(), 0u);
    EXPECT_EQ(table.height(), 1u);
    EXPECT_TRUE(table.noteInsert(key(1, 3)).ok);
    EXPECT_TRUE(table.checkInvariants());
}

TEST_F(BTreeTest, VtePayloadsAreRecycled)
{
    table.noteInsert(key(0, 1));
    Addr first_vte = table.vteAddrOf(key(0, 1));
    table.noteRemove(key(0, 1));
    table.noteInsert(key(0, 2));
    EXPECT_EQ(table.vteAddrOf(key(0, 2)), first_vte);
}

} // namespace
