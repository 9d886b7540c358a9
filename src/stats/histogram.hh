/**
 * @file
 * Fixed-memory log-linear histogram for latency distributions.
 *
 * Buckets are arranged HDR-style: each power-of-two range is split into a
 * fixed number of linear sub-buckets, giving bounded relative error with a
 * few KB of memory regardless of sample count. Used where the exact
 * Sampler would be too heavy (per-operation hardware latencies).
 */

#ifndef JORD_STATS_HISTOGRAM_HH
#define JORD_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

namespace jord::stats {

/**
 * Log-linear histogram over non-negative integer values.
 */
class Histogram
{
  public:
    /**
     * @param max_value Largest value that must be representable.
     * @param sub_buckets Linear sub-buckets per power-of-two range;
     * relative quantile error is bounded by 1/sub_buckets.
     */
    explicit Histogram(std::uint64_t max_value = (1ull << 40),
                       unsigned sub_buckets = 32);

    /** Record one value (clamped to the configured maximum). */
    void record(std::uint64_t value);

    /** Record @p weight occurrences of @p value. */
    void recordN(std::uint64_t value, std::uint64_t weight);

    std::uint64_t count() const { return count_; }
    bool empty() const { return count_ == 0; }

    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    double mean() const;

    /** Approximate percentile; @p p in [0, 100]. */
    std::uint64_t percentile(double p) const;

    std::uint64_t p50() const { return percentile(50.0); }
    std::uint64_t p99() const { return percentile(99.0); }

    /** Merge another histogram with identical geometry. */
    void merge(const Histogram &other);

    /** Discard all samples. */
    void reset();

  private:
    unsigned subBuckets_;
    unsigned subBucketShift_;
    std::uint64_t maxValue_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    double sum_ = 0.0;

    std::size_t bucketIndex(std::uint64_t value) const;
    std::uint64_t bucketLowerBound(std::size_t index) const;
};

} // namespace jord::stats

#endif // JORD_STATS_HISTOGRAM_HH
