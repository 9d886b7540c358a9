/**
 * @file
 * Tests for JordSan, the isolation sanitizer (src/check).
 *
 * The positive tests prove a correct stack runs clean under every
 * checker family. The negative tests deliberately break the system —
 * skip one core in the VTD shootdown fan-out, leak an ArgBuf, corrupt
 * a difftable mirror — and prove the sanitizer catches each bug with
 * a pinpointed diagnostic, which is the whole point of having it.
 */

#include <sstream>

#include "tests/fixture.hh"
#include "uat/vlb.hh"

namespace {

using jord::check::CheckConfig;
using jord::check::Checker;
using jord::check::CheckFamily;
using jord::check::Violation;
using jord::check::ViolationKind;
using jord::sim::Addr;
using jord::test::JordStackTest;
using jord::uat::PdId;
using jord::uat::Perm;
using jord::uat::Vlb;
using jord::uat::VlbEntry;
using jord::uat::Vte;

// --- CheckConfig parsing -------------------------------------------------------

TEST(CheckConfigParse, EmptySpecEnablesEveryFamily)
{
    CheckConfig cfg;
    ASSERT_TRUE(CheckConfig::parse("", cfg));
    EXPECT_TRUE(cfg.access);
    EXPECT_TRUE(cfg.vlb);
    EXPECT_TRUE(cfg.difftable);
}

TEST(CheckConfigParse, SubsetSelectsOnlyNamedFamilies)
{
    CheckConfig cfg;
    ASSERT_TRUE(CheckConfig::parse("vlb,difftable", cfg));
    EXPECT_FALSE(cfg.access);
    EXPECT_TRUE(cfg.vlb);
    EXPECT_TRUE(cfg.difftable);
    CheckConfig one;
    ASSERT_TRUE(CheckConfig::parse("access", one));
    EXPECT_TRUE(one.access);
    EXPECT_FALSE(one.vlb);
    EXPECT_FALSE(one.difftable);
}

TEST(CheckConfigParse, UnknownFamilyIsRejected)
{
    CheckConfig cfg;
    EXPECT_FALSE(CheckConfig::parse("vlbb", cfg));
    EXPECT_FALSE(CheckConfig::parse("access,tables", cfg));
}

// --- Stack-level tests ---------------------------------------------------------

class CheckTest : public JordStackTest
{
  protected:
    PdId pd = 0;
    Addr vma = 0;

    void
    SetUp() override
    {
        pd = mustCget(0);
        vma = mustMmapFor(0, pd, 4096, Perm::rw());
    }

    /** Access @p va from @p core with the ucid set to @p as. */
    jord::uat::UatAccess
    accessAs(unsigned core, PdId as, Addr va, Perm need)
    {
        PdId saved = uat->csrFile(core).ucid;
        uat->csrFile(core).ucid = as;
        jord::uat::UatAccess acc = uat->dataAccess(core, va, need);
        uat->csrFile(core).ucid = saved;
        return acc;
    }

    /** Run a PrivLib call with the ucid set to @p as. */
    template <typename Fn>
    auto
    runAs(unsigned core, PdId as, Fn &&fn)
    {
        PdId saved = uat->csrFile(core).ucid;
        uat->csrFile(core).ucid = as;
        auto res = fn();
        uat->csrFile(core).ucid = saved;
        return res;
    }

    /** First logged violation of @p kind, or nullptr. */
    const Violation *
    firstOfKind(ViolationKind kind) const
    {
        for (const Violation &v : checker->log())
            if (v.kind == kind)
                return &v;
        return nullptr;
    }
};

TEST_F(CheckTest, CleanLifecycleRunsWithZeroViolations)
{
    // Exercise fills on two cores, a downgrade (with its shootdown), a
    // transfer, and a full teardown; nothing may trip the sanitizer.
    EXPECT_TRUE(accessAs(1, pd, vma, Perm::rw()).ok());
    EXPECT_TRUE(accessAs(2, pd, vma + 64, Perm::r()).ok());
    ASSERT_TRUE(runAs(0, pd, [&] {
        return privlib->mprotect(0, vma, 4096, Perm::r());
    }).ok);
    EXPECT_TRUE(accessAs(1, pd, vma, Perm::r()).ok());

    PdId other = mustCget(0);
    ASSERT_TRUE(runAs(0, pd, [&] {
        return privlib->pmove(0, vma, other, Perm::r());
    }).ok);
    EXPECT_TRUE(accessAs(1, other, vma, Perm::r()).ok());

    ASSERT_TRUE(runAs(0, other, [&] {
        return privlib->munmap(0, vma, 4096);
    }).ok);
    ASSERT_TRUE(privlib->cput(0, other).ok);
    ASSERT_TRUE(privlib->cput(0, pd).ok);
    EXPECT_EQ(checker->totalViolations(), 0u);
}

TEST_F(CheckTest, DeniedAccessesMatchTheShadowModel)
{
    PdId other = mustCget(0);
    // The hardware and the shadow model must agree on both denials.
    EXPECT_FALSE(accessAs(1, other, vma, Perm::r()).ok());
    EXPECT_FALSE(accessAs(1, pd, vma, Perm(Perm::X)).ok());
    EXPECT_EQ(checker->totalViolations(), 0u);
}

TEST_F(CheckTest, SkippedShootdownCoreIsCaughtEagerly)
{
    // Fill the VLBs of cores 1 and 2, then break the hardware: the VTD
    // fan-out skips core 2. The downgrade's shootdown reaches core 1
    // only, and the oracle must flag core 2 at shootdown time, before
    // the stale entry is ever used.
    expectViolations();
    ASSERT_TRUE(accessAs(1, pd, vma, Perm::rw()).ok());
    ASSERT_TRUE(accessAs(2, pd, vma, Perm::rw()).ok());
    uat->debugSkipShootdownCore(2);
    ASSERT_TRUE(runAs(0, pd, [&] {
        return privlib->mprotect(0, vma, 4096, Perm::r());
    }).ok);

    EXPECT_GE(checker->violations(CheckFamily::Vlb), 1u);
    const Violation *v = firstOfKind(ViolationKind::MissedShootdown);
    ASSERT_NE(v, nullptr);
    // The diagnostic pinpoints the forgotten holder and the VTE.
    EXPECT_EQ(v->core, 2u);
    EXPECT_EQ(v->vteAddr, table->vteAddrOf(vma));
}

TEST_F(CheckTest, StaleTranslationUseIsCaught)
{
    // Same broken fan-out, but this time the forgotten core keeps
    // translating through its stale entry; the use itself must also
    // be flagged, pinned to the stale entry's VMA.
    expectViolations();
    ASSERT_TRUE(accessAs(1, pd, vma, Perm::rw()).ok());
    uat->debugSkipShootdownCore(1);
    ASSERT_TRUE(runAs(0, pd, [&] {
        return privlib->mprotect(0, vma, 4096, Perm::r());
    }).ok);
    ASSERT_TRUE(accessAs(1, pd, vma + 8, Perm::rw()).ok())
        << "the broken hardware should still allow the write";

    const Violation *v = firstOfKind(ViolationKind::StaleTranslation);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->core, 1u);
    EXPECT_EQ(v->va, vma);
    EXPECT_EQ(v->pd, pd);
}

TEST_F(CheckTest, ViolationReportDumpsTheFirstViolation)
{
    expectViolations();
    ASSERT_TRUE(accessAs(1, pd, vma, Perm::rw()).ok());
    uat->debugSkipShootdownCore(1);
    ASSERT_TRUE(runAs(0, pd, [&] {
        return privlib->mprotect(0, vma, 4096, Perm::r());
    }).ok);
    ASSERT_GT(checker->totalViolations(), 0u);

    std::ostringstream os;
    checker->report(os);
    std::string report = os.str();
    EXPECT_NE(report.find("missed-shootdown"), std::string::npos);
    std::ostringstream va;
    va << std::hex << table->vteAddrOf(vma);
    EXPECT_NE(report.find(va.str()), std::string::npos);
}

TEST_F(CheckTest, DifftableMirrorCorruptionIsCaught)
{
    // Corrupt the B-tree mirror behind the checker's back and probe:
    // the differential checker must see the mirrors diverge.
    expectViolations();
    Vte *mirror = checker->mirrorBtree()->vteFor(vma);
    ASSERT_NE(mirror, nullptr);
    *mirror = Vte{};
    checker->difftableProbe(vma);

    EXPECT_EQ(checker->violations(CheckFamily::Difftable), 1u);
    const Violation *v = firstOfKind(ViolationKind::TableDivergence);
    ASSERT_NE(v, nullptr);
    EXPECT_NE(v->detail.find("B-tree lost the mapping"),
              std::string::npos);
}

// --- Unit-level lifecycle checks ----------------------------------------------

TEST(CheckerUnit, LeakedArgBufIsFlaggedAtRunEnd)
{
    Checker ck(CheckConfig::all());
    ck.argBufMapped(0x4000, 256, 42);
    ck.argBufMapped(0x8000, 256, 43);
    ck.argBufFreed(0x4000);
    ck.onRunEnd();

    ASSERT_EQ(ck.totalViolations(), 1u);
    const Violation &v = ck.log().front();
    EXPECT_EQ(v.kind, ViolationKind::ArgBufLeak);
    EXPECT_EQ(v.va, 0x8000u);
    EXPECT_EQ(v.reqId, 43u);
}

TEST(CheckerUnit, BalancedArgBufLifecycleIsQuiet)
{
    Checker ck(CheckConfig::all());
    ck.argBufMapped(0x4000, 256, 42);
    ck.argBufFreed(0x4000);
    ck.onRunEnd();
    EXPECT_EQ(ck.totalViolations(), 0u);
}

TEST(CheckerUnit, DoublePdCreateAndDestroyAreFlagged)
{
    Checker ck(CheckConfig::all());
    ck.onPdCreated(5, 0);
    ck.onPdCreated(5, 0);
    EXPECT_NE(ck.log().front().kind, ViolationKind::DoublePdDestroy);
    EXPECT_EQ(ck.log().front().kind, ViolationKind::DoublePdCreate);
    ck.onPdDestroyed(5);
    ck.onPdDestroyed(5);
    EXPECT_EQ(ck.log().back().kind, ViolationKind::DoublePdDestroy);
    EXPECT_EQ(ck.totalViolations(), 2u);
}

// --- VLB duplicate-entry regression (the bug that motivated JordSan) -----------

TEST(VlbRegression, PermissionChangeReplacesInsteadOfDuplicating)
{
    // Re-inserting the same VTE for the same PD with a new permission
    // must replace the old entry: a duplicate would let the pre-change
    // permission win lookups after a downgrade.
    Vlb vlb(8);
    VlbEntry e;
    e.vteAddr = 0x2000'0000'0040ull;
    e.base = 0x100'0000'0000ull;
    e.bound = 4096;
    e.perm = Perm::rw();
    e.pd = 3;
    vlb.insert(e);
    e.perm = Perm::r();
    vlb.insert(e);

    EXPECT_EQ(vlb.occupancy(), 1u);
    const VlbEntry *hit = vlb.lookup(e.base + 16, 3);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->perm, Perm::r());
}

TEST(VlbRegression, GlobalBitFlipReplacesTheSameVte)
{
    // A PD-tagged entry and a global entry for the same VTE describe
    // the same translation; flipping the G bit must not duplicate it.
    Vlb vlb(8);
    VlbEntry e;
    e.vteAddr = 0x2000'0000'0080ull;
    e.base = 0x100'0000'1000ull;
    e.bound = 4096;
    e.perm = Perm::rw();
    e.pd = 3;
    vlb.insert(e);
    e.global = true;
    e.perm = Perm::r();
    vlb.insert(e);

    EXPECT_EQ(vlb.occupancy(), 1u);
    const VlbEntry *hit = vlb.lookup(e.base, 7); // any PD: global entry
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->perm, Perm::r());
}

} // namespace
