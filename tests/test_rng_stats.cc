/**
 * @file
 * Unit and property tests for the RNG and statistics modules.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/rng.hh"
#include "stats/histogram.hh"
#include "stats/sampler.hh"
#include "stats/table.hh"

namespace {

using jord::sim::Rng;
using jord::stats::Histogram;
using jord::stats::Sampler;
using jord::stats::Table;

// --- Rng ------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2u);
}

TEST(Rng, UniformStaysInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.uniformInt(std::uint64_t(17));
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng rng(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.05);
}

TEST(Rng, NormalMomentsConverge)
{
    Rng rng(13);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, LognormalIsPositive)
{
    Rng rng(17);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(23);
    Rng child = a.split();
    EXPECT_NE(a.next(), child.next());
}

TEST(Rng, ChanceProbabilityRoughlyCorrect)
{
    Rng rng(29);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// --- Sampler ----------------------------------------------------------------

TEST(Sampler, BasicMoments)
{
    Sampler s;
    for (double v : {1.0, 2.0, 3.0, 4.0, 5.0})
        s.record(v);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);
}

namespace {

/** The interpolated percentile of an already sorted reference. */
double
sortedPercentile(const std::vector<double> &sorted, double p)
{
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

const double kRefPercentiles[] = {0.0,  10.0, 50.0, 90.0,
                                  99.0, 99.9, 100.0};

/** Exact equality with @p ref for every reference percentile, first
 * with no sorted cache (selection) and again after cdf() sorted. */
void
expectExactPercentiles(const Sampler &s, std::vector<double> ref)
{
    std::sort(ref.begin(), ref.end());
    for (double p : kRefPercentiles)
        EXPECT_EQ(s.percentile(p), sortedPercentile(ref, p))
            << "p=" << p;
    ASSERT_FALSE(s.cdf(16).empty());
    for (double p : kRefPercentiles)
        EXPECT_EQ(s.percentile(p), sortedPercentile(ref, p))
            << "p=" << p << " after cdf()";
}

} // namespace

TEST(Sampler, PercentilesMatchSortedReference)
{
    Sampler s;
    Rng rng(31);
    std::vector<double> ref;
    for (int i = 0; i < 5000; ++i) {
        double v = 1000.0 * rng.uniform();
        s.record(v);
        ref.push_back(v);
    }
    expectExactPercentiles(s, ref);

    // Duplicates: few distinct values, so ranks straddle equal runs.
    Sampler dup;
    std::vector<double> dup_ref;
    for (int i = 0; i < 3001; ++i) {
        double v = static_cast<double>(rng.uniformInt(7)) * 1.5;
        dup.record(v);
        dup_ref.push_back(v);
    }
    expectExactPercentiles(dup, dup_ref);

    // Merged: the union of both samplers' retained samples.
    Sampler merged;
    merged.merge(s);
    merged.merge(dup);
    std::vector<double> merged_ref = ref;
    merged_ref.insert(merged_ref.end(), dup_ref.begin(), dup_ref.end());
    expectExactPercentiles(merged, merged_ref);

    // New samples after cdf() make the cache stale again.
    s.record(-1.0);
    s.record(2000.0);
    ref.push_back(-1.0);
    ref.push_back(2000.0);
    expectExactPercentiles(s, ref);

    // Reservoir-capped: the retained subset cannot be listed, so the
    // reference is the sorted path, on the same sampler once cdf() has
    // sorted it and on an uncapped sampler that merged that subset.
    Sampler capped(1000);
    for (int i = 0; i < 20000; ++i)
        capped.record(rng.lognormal(1.0, 0.8));
    Sampler retained;
    retained.merge(capped);
    ASSERT_EQ(retained.count(), 1000u);
    std::vector<double> selected;
    for (double p : kRefPercentiles)
        selected.push_back(capped.percentile(p));
    ASSERT_FALSE(capped.cdf(16).empty());
    ASSERT_FALSE(retained.cdf(16).empty());
    for (std::size_t i = 0; i < selected.size(); ++i) {
        double p = kRefPercentiles[i];
        EXPECT_EQ(selected[i], capped.percentile(p)) << "p=" << p;
        EXPECT_EQ(selected[i], retained.percentile(p)) << "p=" << p;
    }
}

TEST(Sampler, EmptySamplerIsSafe)
{
    Sampler s;
    EXPECT_EQ(s.percentile(99), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_TRUE(s.cdf(8).empty());
}

TEST(Sampler, SingleSample)
{
    Sampler s;
    s.record(42.0);
    EXPECT_DOUBLE_EQ(s.p50(), 42.0);
    EXPECT_DOUBLE_EQ(s.p99(), 42.0);
}

TEST(Sampler, CdfIsMonotone)
{
    Sampler s;
    Rng rng(37);
    for (int i = 0; i < 2000; ++i)
        s.record(rng.lognormal(1.0, 0.8));
    auto cdf = s.cdf(32);
    ASSERT_EQ(cdf.size(), 32u);
    for (std::size_t i = 1; i < cdf.size(); ++i) {
        EXPECT_GE(cdf[i].first, cdf[i - 1].first);
        EXPECT_GT(cdf[i].second, cdf[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Sampler, ReservoirKeepsCountAndApproximatesQuantiles)
{
    Sampler s(1000);
    for (int i = 0; i < 100000; ++i)
        s.record(i);
    EXPECT_EQ(s.count(), 100000u);
    // Uniform 0..100k: the reservoir median should be near 50k.
    EXPECT_NEAR(s.p50(), 50000.0, 5000.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 99999.0);
}

TEST(Sampler, MergeCombinesSamples)
{
    Sampler a, b;
    a.record(1.0);
    b.record(3.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Sampler, ResetClears)
{
    Sampler s;
    s.record(5.0);
    s.reset();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.mean(), 0.0);
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, ExactForSmallValues)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 32; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 32u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 31u);
    EXPECT_EQ(h.percentile(50), 15u);
}

TEST(Histogram, BoundedRelativeErrorProperty)
{
    Histogram h(1ull << 40, 64);
    Rng rng(41);
    std::vector<std::uint64_t> ref;
    for (int i = 0; i < 20000; ++i) {
        auto v = static_cast<std::uint64_t>(
            rng.lognormal(8.0, 2.0));
        h.record(v);
        ref.push_back(v);
    }
    std::sort(ref.begin(), ref.end());
    for (double p : {50.0, 90.0, 99.0}) {
        auto idx = static_cast<std::size_t>(
            p / 100.0 * (ref.size() - 1));
        double exact = static_cast<double>(ref[idx]);
        double approx = static_cast<double>(h.percentile(p));
        EXPECT_NEAR(approx, exact, exact * 0.05 + 2.0) << "p=" << p;
    }
}

TEST(Histogram, MergeAddsCounts)
{
    Histogram a, b;
    a.record(10);
    b.record(20);
    b.record(30);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.max(), 30u);
}

TEST(Histogram, MergeFromEmptyIsIdentity)
{
    Histogram a, empty;
    a.record(10);
    a.record(90);
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 10u);
    EXPECT_EQ(a.max(), 90u);
}

TEST(Histogram, MergeIntoEmptyAdoptsEverything)
{
    Histogram a, b;
    b.record(10);
    b.record(90);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.min(), 10u);
    EXPECT_EQ(a.max(), 90u);
    // The boundary percentiles must pin to the adopted min/max, not
    // to a bucket bound of the previously-empty histogram.
    EXPECT_EQ(a.percentile(0), 10u);
    EXPECT_EQ(a.percentile(100), 90u);
}

TEST(Histogram, MergeOfEmptiesStaysEmpty)
{
    Histogram a, b;
    a.merge(b);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.percentile(50), 0u);
}

TEST(Histogram, MergePinsPercentilesToUnionMinMax)
{
    // Disjoint ranges: the merged extreme percentiles must come from
    // the union, clamped to exact min/max even though interior
    // percentiles are bucket-approximate.
    Histogram lo, hi;
    for (std::uint64_t v = 1000; v < 1100; ++v)
        lo.record(v);
    for (std::uint64_t v = 9000; v < 9100; ++v)
        hi.record(v);
    lo.merge(hi);
    EXPECT_EQ(lo.count(), 200u);
    EXPECT_EQ(lo.percentile(0), 1000u);
    EXPECT_EQ(lo.percentile(100), 9099u);
    // Interior percentiles are bucket-quantized (values near 9000
    // share a bucket whose reported bound is 8704), so bound them to
    // the correct cluster rather than the exact value.
    EXPECT_GE(lo.percentile(99), 8000u);
    EXPECT_LE(lo.percentile(40), 1100u);
}

TEST(Histogram, MergeRejectsDifferentGeometry)
{
    Histogram a(1ull << 40, 32), b(1ull << 40, 64);
    b.record(7);
    EXPECT_DEATH(a.merge(b), "different geometry");
}

TEST(Histogram, WeightedRecord)
{
    Histogram h;
    h.recordN(5, 100);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.percentile(99), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

TEST(Histogram, EmptyHistogramReportsZeroEverywhere)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(0), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.percentile(100), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleSampleNeverInterpolatesOutOfRange)
{
    // 100 lands in the [96, 104) bucket; every percentile must still
    // report the one recorded value, not the bucket's lower bound.
    Histogram h;
    h.record(100);
    EXPECT_EQ(h.percentile(0), 100u);
    EXPECT_EQ(h.percentile(50), 100u);
    EXPECT_EQ(h.percentile(99), 100u);
    EXPECT_EQ(h.percentile(100), 100u);
}

TEST(Histogram, ExtremePercentilesPinToObservedRange)
{
    Histogram h;
    h.record(3);
    h.record(1000);
    EXPECT_EQ(h.percentile(0), 3u);
    EXPECT_EQ(h.percentile(100), 1000u);
    // p=0 is exactly min even when min shares a bucket with nothing.
    Histogram g;
    g.record(97);
    g.record(1000000);
    EXPECT_EQ(g.percentile(0), 97u);
    EXPECT_GE(g.percentile(100), 97u);
    EXPECT_LE(g.percentile(100), 1000000u);
}

// --- Table -------------------------------------------------------------------

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(Table, CellFormatting)
{
    EXPECT_EQ(Table::cell(3.14159, "%.2f"), "3.14");
    EXPECT_EQ(Table::cell(std::uint64_t(42)), "42");
}

TEST(TableDeathTest, WrongArityPanics)
{
    Table t({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "cells");
}

} // namespace
