/**
 * @file
 * Tests for the workload models (§5) and the load-sweep methodology
 * helpers: structural properties the paper states (fan-outs, selected
 * functions) and SLO/knee detection behaviour.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "workloads/sweep.hh"
#include "workloads/workloads.hh"

namespace {

using namespace jord;
using runtime::SystemKind;
using workloads::Workload;

double
avgEntryFanOut(const Workload &w)
{
    double weight_total = 0, weighted = 0;
    for (const auto &[fn, weight] : w.mix) {
        weighted +=
            weight *
            static_cast<double>(w.registry.at(fn).spec.calls.size());
        weight_total += weight;
    }
    return weighted / weight_total;
}

TEST(Workloads, AllFourPresentInPaperOrder)
{
    auto all = workloads::makeAll();
    ASSERT_EQ(all.size(), 4u);
    EXPECT_EQ(all[0].name, "Hipster");
    EXPECT_EQ(all[1].name, "Hotel");
    EXPECT_EQ(all[2].name, "Media");
    EXPECT_EQ(all[3].name, "Social");
}

TEST(Workloads, MakeByName)
{
    EXPECT_EQ(workloads::makeByName("Hotel").name, "Hotel");
    EXPECT_DEATH(workloads::makeByName("Nope"), "unknown workload");
}

TEST(Workloads, EntryMixReferencesValidFunctions)
{
    for (const Workload &w : workloads::makeAll()) {
        ASSERT_FALSE(w.mix.empty()) << w.name;
        for (const auto &[fn, weight] : w.mix) {
            EXPECT_LT(fn, w.registry.size());
            EXPECT_GT(weight, 0.0);
        }
    }
}

TEST(Workloads, SelectedFunctionsMatchTable3)
{
    auto all = workloads::makeAll();
    const std::vector<std::vector<std::string>> expected = {
        {"GC", "PO"}, {"SN", "MR"}, {"UU", "RP"}, {"F", "CP"}};
    for (std::size_t i = 0; i < all.size(); ++i) {
        ASSERT_EQ(all[i].selected.size(), 2u);
        EXPECT_EQ(all[i].selected[0].first, expected[i][0]);
        EXPECT_EQ(all[i].selected[1].first, expected[i][1]);
        for (const auto &[abbr, fn] : all[i].selected)
            EXPECT_LT(fn, all[i].registry.size());
    }
}

TEST(Workloads, FanOutsMatchPaper)
{
    // "each function invokes an average of 12 nested functions
    // [Media], compared to three in other workloads" (§6.1).
    auto all = workloads::makeAll();
    EXPECT_NEAR(avgEntryFanOut(all[0]), 3.0, 0.8);  // Hipster
    EXPECT_NEAR(avgEntryFanOut(all[1]), 3.0, 0.8);  // Hotel
    EXPECT_NEAR(avgEntryFanOut(all[2]), 12.0, 1.5); // Media
    EXPECT_NEAR(avgEntryFanOut(all[3]), 3.0, 1.2);  // Social
}

TEST(Workloads, ReadPageFansOutOverHundred)
{
    Workload media = workloads::makeMedia();
    auto rp = media.registry.findByName("ReadPage");
    ASSERT_TRUE(rp.has_value());
    EXPECT_GT(media.registry.at(*rp).spec.calls.size(), 100u);
}

TEST(Workloads, SocialHasLongTailFunction)
{
    // One Social function needs ~75 us (§6.2) — ComposePost.
    Workload social = workloads::makeSocial();
    double longest = 0;
    for (const auto &fn : social.registry.all())
        longest = std::max(longest, fn.spec.execMeanUs);
    EXPECT_GT(longest, 40.0);
}

TEST(Workloads, CallsTargetRegisteredFunctions)
{
    for (const Workload &w : workloads::makeAll())
        for (const auto &fn : w.registry.all())
            for (const auto &call : fn.spec.calls) {
                EXPECT_LT(call.target, w.registry.size());
                EXPECT_GT(call.argBytes, 0u);
            }
}

// --- Sweep helpers ----------------------------------------------------------------

TEST(Sweep, LoadSeriesIsGeometricAndInclusive)
{
    auto loads = workloads::loadSeries(1.0, 16.0, 5);
    ASSERT_EQ(loads.size(), 5u);
    EXPECT_DOUBLE_EQ(loads.front(), 1.0);
    EXPECT_DOUBLE_EQ(loads.back(), 16.0);
    for (std::size_t i = 1; i < loads.size(); ++i)
        EXPECT_NEAR(loads[i] / loads[i - 1], 2.0, 1e-9);
}

TEST(Sweep, LoadSeriesDegenerateCases)
{
    EXPECT_TRUE(workloads::loadSeries(1, 2, 0).empty());
    auto one = workloads::loadSeries(1, 8, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_DOUBLE_EQ(one[0], 8.0);
}

TEST(Sweep, MeasureSloIsTenTimesMinimalLoadLatency)
{
    workloads::Workload w = workloads::makeHotel();
    workloads::SweepConfig cfg;
    cfg.requestsPerPoint = 3000;
    double slo = workloads::measureSloUs(w, cfg);
    // Hotel requests run a handful of us at minimal load.
    EXPECT_GT(slo, 10.0);
    EXPECT_LT(slo, 120.0);
    // The minimal load, the warm-up fraction and kSloMultiplier all
    // feed these bits.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(slo), 0x403cc7d3dd97f635ull);
}

TEST(Sweep, KneeDetectionIsMonotone)
{
    workloads::Workload w = workloads::makeHotel();
    workloads::SweepConfig cfg;
    cfg.requestsPerPoint = 2000;
    double slo = workloads::measureSloUs(w, cfg);
    auto res = workloads::sweepLoad(w, SystemKind::Jord,
                                    {1.0, 3.0, 30.0, 5.0}, slo, cfg);
    // 30 MRPS is far beyond saturation; the later 5.0 point (even if
    // it happened to pass) must not count after the failure.
    ASSERT_EQ(res.points.size(), 4u);
    EXPECT_FALSE(res.points[2].meetsSlo);
    EXPECT_LE(res.throughputUnderSlo, 3.5);
}

TEST(Sweep, JordBeatsNightCoreOnHotel)
{
    workloads::Workload w = workloads::makeHotel();
    workloads::SweepConfig cfg;
    cfg.requestsPerPoint = 2500;
    double slo = workloads::measureSloUs(w, cfg);
    auto loads = workloads::loadSeries(0.5, 8.0, 6);
    auto jord = workloads::sweepLoad(w, SystemKind::Jord, loads, slo,
                                     cfg);
    auto ntc = workloads::sweepLoad(w, SystemKind::NightCore, loads,
                                    slo, cfg);
    EXPECT_GT(jord.throughputUnderSlo, 2 * ntc.throughputUnderSlo);
}

} // namespace
