#include "stats/sampler.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace jord::stats {

Sampler::Sampler(std::size_t reservoir_cap)
    : reservoirCap_(reservoir_cap), rngState_(0x853c49e6748fea9bull)
{
}

std::uint64_t
Sampler::nextRand() const
{
    // splitmix64 step; const-cast free by keeping state mutable-equivalent
    // via the caller (record() is non-const; cdf/percentile never draw).
    auto *self = const_cast<Sampler *>(this);
    std::uint64_t z = (self->rngState_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Sampler::record(double value)
{
    ++count_;
    sum_ += value;
    double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
    if (count_ == 1) {
        min_ = max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }

    if (reservoirCap_ == 0 || samples_.size() < reservoirCap_) {
        samples_.push_back(value);
    } else {
        // Vitter's algorithm R.
        std::uint64_t slot = nextRand() % count_;
        if (slot < reservoirCap_)
            samples_[slot] = value;
    }
    sortedValid_ = false;
}

double
Sampler::min() const
{
    return count_ ? min_ : 0.0;
}

double
Sampler::max() const
{
    return count_ ? max_ : 0.0;
}

double
Sampler::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Sampler::stddev() const
{
    if (count_ < 2)
        return 0.0;
    return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

void
Sampler::ensureSorted() const
{
    if (sortedValid_)
        return;
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sortedValid_ = true;
}

double
Sampler::percentile(double p) const
{
    if (samples_.empty())
        return 0.0;
    if (p < 0.0 || p > 100.0)
        sim::panic("percentile out of range: %f", p);
    std::size_t n = samples_.size();
    if (n == 1)
        return samples_[0];
    double rank = p / 100.0 * static_cast<double>(n - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, n - 1);
    double frac = rank - static_cast<double>(lo);
    if (!sortedValid_) {
        // Two order statistics need no full sort: nth_element puts the
        // lo-th in place with nothing smaller after it, so the hi-th
        // is the least of the tail. The stale cache is the scratch
        // buffer and stays stale; only cdf() sorts.
        sorted_ = samples_;
        auto at_lo = sorted_.begin() + static_cast<std::ptrdiff_t>(lo);
        std::nth_element(sorted_.begin(), at_lo, sorted_.end());
        double v_lo = *at_lo;
        double v_hi = hi == lo ? v_lo
                               : *std::min_element(at_lo + 1, sorted_.end());
        return v_lo + frac * (v_hi - v_lo);
    }
    return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

std::vector<std::pair<double, double>>
Sampler::cdf(std::size_t points) const
{
    std::vector<std::pair<double, double>> out;
    if (samples_.empty() || points == 0)
        return out;
    ensureSorted();
    out.reserve(points);
    for (std::size_t i = 0; i < points; ++i) {
        double frac = static_cast<double>(i + 1) /
                      static_cast<double>(points);
        std::size_t idx = static_cast<std::size_t>(
            frac * static_cast<double>(sorted_.size() - 1));
        out.emplace_back(sorted_[idx], frac);
    }
    return out;
}

void
Sampler::reset()
{
    samples_.clear();
    sorted_.clear();
    sortedValid_ = false;
    count_ = 0;
    sum_ = m2_ = mean_ = min_ = max_ = 0.0;
}

void
Sampler::merge(const Sampler &other)
{
    for (double v : other.samples_)
        record(v);
}

} // namespace jord::stats
