#include "stats/histogram.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/logging.hh"

namespace jord::stats {

Histogram::Histogram(std::uint64_t max_value, unsigned sub_buckets)
    : subBuckets_(sub_buckets), maxValue_(max_value)
{
    if (sub_buckets < 2 || (sub_buckets & (sub_buckets - 1)) != 0)
        sim::fatal("histogram sub_buckets must be a power of two >= 2");
    subBucketShift_ = static_cast<unsigned>(std::countr_zero(sub_buckets));
    // Values < sub_buckets map 1:1; above that, each power-of-two range
    // contributes sub_buckets/2 additional buckets.
    unsigned ranges = 64 - subBucketShift_;
    buckets_.assign(subBuckets_ + ranges * (subBuckets_ / 2), 0);
}

std::size_t
Histogram::bucketIndex(std::uint64_t value) const
{
    if (value < subBuckets_)
        return static_cast<std::size_t>(value);
    unsigned msb = 63 - static_cast<unsigned>(std::countl_zero(value));
    unsigned range = msb - subBucketShift_ + 1;
    std::uint64_t sub = (value >> (msb - subBucketShift_ + 1)) &
                        (subBuckets_ / 2 - 1);
    return subBuckets_ + (range - 1) * (subBuckets_ / 2) +
           static_cast<std::size_t>(sub);
}

std::uint64_t
Histogram::bucketLowerBound(std::size_t index) const
{
    if (index < subBuckets_)
        return index;
    std::size_t rel = index - subBuckets_;
    unsigned range = static_cast<unsigned>(rel / (subBuckets_ / 2)) + 1;
    std::uint64_t sub = rel % (subBuckets_ / 2);
    std::uint64_t base = 1ull << (subBucketShift_ + range - 1);
    std::uint64_t step = base / (subBuckets_ / 2);
    return base + sub * step;
}

void
Histogram::record(std::uint64_t value)
{
    recordN(value, 1);
}

void
Histogram::recordN(std::uint64_t value, std::uint64_t weight)
{
    if (weight == 0)
        return;
    value = std::min(value, maxValue_);
    std::size_t idx = bucketIndex(value);
    if (idx >= buckets_.size())
        idx = buckets_.size() - 1;
    buckets_[idx] += weight;
    if (count_ == 0) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    count_ += weight;
    sum_ += static_cast<double>(value) * static_cast<double>(weight);
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (p < 0.0 || p > 100.0)
        sim::panic("percentile out of range: %f", p);
    if (count_ == 0)
        return 0;
    // p=0 and p=100 are the observed extremes by definition; the
    // bucket scan below would return the lower bound of the extreme's
    // bucket, which can undercut the recorded value.
    if (p == 0.0)
        return min_;
    if (p == 100.0)
        return max_;
    std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count_)));
    target = std::max<std::uint64_t>(target, 1);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        // Clamp to the observed range: a bucket's lower bound can lie
        // below min_ (single sample 100 lands in the [96,104) bucket,
        // whose bound 96 was never recorded).
        if (seen >= target)
            return std::clamp(bucketLowerBound(i), min_, max_);
    }
    return max_;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.buckets_.size() != buckets_.size() ||
        other.subBuckets_ != subBuckets_) {
        sim::panic("merging histograms with different geometry");
    }
    for (std::size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    if (other.count_) {
        if (count_ == 0) {
            min_ = other.min_;
            max_ = other.max_;
        } else {
            min_ = std::min(min_, other.min_);
            max_ = std::max(max_, other.max_);
        }
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    min_ = max_ = 0;
    sum_ = 0.0;
}

} // namespace jord::stats
