/**
 * @file
 * Shared test fixture: a fully assembled Jord hardware/software stack
 * (mesh, coherence, VMA table, UAT hardware, kernel, PrivLib) on the
 * default Table 2 machine.
 *
 * The JordSan checker is attached with every family enabled, so any
 * test driving the stack through this fixture is sanitized for free;
 * TearDown fails the test if a violation was recorded. Negative tests
 * that provoke violations on purpose call expectViolations() first.
 */

#ifndef JORD_TESTS_FIXTURE_HH
#define JORD_TESTS_FIXTURE_HH

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "check/check.hh"
#include "mem/coherence.hh"
#include "noc/mesh.hh"
#include "os/kernel.hh"
#include "privlib/privlib.hh"
#include "uat/btree_table.hh"
#include "uat/uat_system.hh"

namespace jord::test {

/** GTest fixture wiring a complete single-machine Jord stack. */
class JordStackTest : public ::testing::Test
{
  protected:
    explicit JordStackTest(bool btree = false)
    {
        mesh = std::make_unique<noc::Mesh>(cfg);
        coherence = std::make_unique<mem::CoherenceEngine>(cfg, *mesh);
        uat::VaEncoding encoding;
        if (btree)
            table = std::make_unique<uat::BTreeVmaTable>(encoding);
        else
            table = std::make_unique<uat::PlainListVmaTable>(encoding);
        uat = std::make_unique<uat::UatSystem>(cfg, *coherence, *table);
        checker = std::make_unique<check::Checker>(
            check::CheckConfig::all(), encoding);
        uat->setProbe(checker.get());
        kernel = std::make_unique<os::Kernel>(cfg);
        privlib = std::make_unique<privlib::PrivLib>(
            cfg, *coherence, *uat, *table, *kernel, checker.get());
    }

    void
    TearDown() override
    {
        if (expectViolations_)
            return;
        if (checker->totalViolations() != 0) {
            std::ostringstream report;
            checker->report(report);
            ADD_FAILURE() << "JordSan flagged this test:\n"
                          << report.str();
        }
    }

    /** Negative tests opt out of the zero-violation TearDown gate. */
    void expectViolations() { expectViolations_ = true; }

    /** Allocate a VMA in @p pd and return its base (asserts success). */
    sim::Addr
    mustMmapFor(unsigned core, uat::PdId pd, std::uint64_t len,
                uat::Perm prot)
    {
        privlib::PrivResult res =
            privlib->mmapFor(core, pd, len, prot);
        EXPECT_TRUE(res.ok) << uat::faultName(res.fault);
        return res.value;
    }

    /** Create a PD from the root domain (asserts success). */
    uat::PdId
    mustCget(unsigned core)
    {
        privlib::PrivResult res = privlib->cget(core);
        EXPECT_TRUE(res.ok) << uat::faultName(res.fault);
        return static_cast<uat::PdId>(res.value);
    }

    sim::MachineConfig cfg = sim::MachineConfig::isca25Default();
    std::unique_ptr<noc::Mesh> mesh;
    std::unique_ptr<mem::CoherenceEngine> coherence;
    std::unique_ptr<uat::VmaTableBase> table;
    std::unique_ptr<uat::UatSystem> uat;
    std::unique_ptr<check::Checker> checker;
    std::unique_ptr<os::Kernel> kernel;
    std::unique_ptr<privlib::PrivLib> privlib;

  private:
    bool expectViolations_ = false;
};

} // namespace jord::test

#endif // JORD_TESTS_FIXTURE_HH
