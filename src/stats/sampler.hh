/**
 * @file
 * Exact latency sampler with percentile and CDF extraction.
 *
 * Stores every recorded sample and computes exact order statistics on
 * demand. The evaluation uses P99 latency as the primary metric (§5), so
 * percentile fidelity matters more than memory footprint at the scales
 * we simulate.
 */

#ifndef JORD_STATS_SAMPLER_HH
#define JORD_STATS_SAMPLER_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace jord::stats {

/**
 * Collects double-valued samples and answers order-statistic queries.
 */
class Sampler
{
  public:
    /** Record one sample. */
    void record(double value);

    /** Number of samples recorded. */
    std::uint64_t count() const { return count_; }

    /** True if no samples have been recorded. */
    bool empty() const { return count_ == 0; }

    double min() const;
    double max() const;
    double mean() const;
    /** Sample standard deviation (Welford). */
    double stddev() const;

    /**
     * Exact percentile via linear interpolation between closest ranks.
     * The two ranks come from the sorted copy cdf() leaves behind, or,
     * when samples arrived since, from an O(n) selection.
     * @param p Percentile in [0, 100].
     */
    double percentile(double p) const;

    /** Shorthand for the paper's headline metric. */
    double p99() const { return percentile(99.0); }

    double p50() const { return percentile(50.0); }

    /**
     * Extract @p points CDF points as (value, cumulative fraction) pairs,
     * evenly spaced in rank. Used to regenerate Fig. 10.
     */
    std::vector<std::pair<double, double>> cdf(std::size_t points) const;

    /** Discard all samples. */
    void reset();

    /** Merge another sampler's samples into this one. */
    void merge(const Sampler &other);

  private:
    std::vector<double> samples_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double m2_ = 0.0; // Welford accumulator
    double mean_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;

    /** Sorted copy of samples_ when sortedValid_; otherwise scratch
     * space for percentile()'s selection. */
    mutable std::vector<double> sorted_;
    mutable bool sortedValid_ = false;

    void ensureSorted() const;
};

} // namespace jord::stats

#endif // JORD_STATS_SAMPLER_HH
