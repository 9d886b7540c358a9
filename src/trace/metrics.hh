/**
 * @file
 * Process-wide metrics registry.
 *
 * Modules register named metrics — monotonic counters, simulated-
 * time-weighted gauges, and value histograms — instead of growing
 * their own one-off statistic structs. Registration is idempotent:
 * asking for an existing name of the same kind returns the same
 * instance, so independent modules can share a metric by name;
 * re-registering a name under a different kind is a programming error
 * and throws std::logic_error.
 *
 * All simulated-time weighting uses ticks supplied by the caller, so
 * the registry itself has no clock dependency and stays deterministic.
 */

#ifndef JORD_TRACE_METRICS_HH
#define JORD_TRACE_METRICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "sim/types.hh"
#include "stats/histogram.hh"

namespace jord::trace {

/** A monotonically increasing count. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = mark_ = 0; }

    /**
     * Snapshot-and-reset for windowed streams: returns the amount
     * added since the previous intervalReset() (or since creation)
     * and advances the interval mark. The cumulative value() is
     * untouched, so end-of-run exports still see the full count.
     */
    std::uint64_t
    intervalReset()
    {
        std::uint64_t delta = value_ - mark_;
        mark_ = value_;
        return delta;
    }

  private:
    std::uint64_t value_ = 0;
    std::uint64_t mark_ = 0;
};

/**
 * A level that varies over simulated time (queue depth, busy
 * executors). Each set() weights the previous level by the simulated
 * time it persisted, so mean() is the time-weighted average level.
 */
class Gauge
{
  public:
    /** Record that the level becomes @p value at tick @p now. */
    void
    set(double value, sim::Tick now)
    {
        if (started_) {
            weightedSum_ +=
                value_ * static_cast<double>(now - lastTick_);
            span_ += now - lastTick_;
        } else {
            started_ = true;
        }
        value_ = value;
        lastTick_ = now;
        if (value > max_)
            max_ = value;
    }

    void add(double delta, sim::Tick now) { set(value_ + delta, now); }

    /** The current level. */
    double value() const { return value_; }

    double max() const { return max_; }

    /** Time-weighted mean level over the observed span. */
    double
    mean() const
    {
        return span_ ? weightedSum_ / static_cast<double>(span_)
                     : value_;
    }

  private:
    double value_ = 0;
    double weightedSum_ = 0;
    double max_ = 0;
    sim::Tick lastTick_ = 0;
    sim::Tick span_ = 0;
    bool started_ = false;
};

/**
 * Distribution of non-negative integer values (latencies in ns,
 * sizes in bytes). Thin wrapper over the log-linear stats::Histogram
 * with recordWeighted() for simulated-time-weighted distributions.
 */
class Distribution
{
  public:
    void record(std::uint64_t value) { hist_.record(value); }

    /** Record @p value weighted by the simulated time it persisted. */
    void
    recordWeighted(std::uint64_t value, sim::Tick ticks)
    {
        hist_.recordN(value, ticks);
    }

    std::uint64_t count() const { return hist_.count(); }
    double mean() const { return hist_.mean(); }
    std::uint64_t min() const { return hist_.min(); }
    std::uint64_t max() const { return hist_.max(); }
    std::uint64_t p50() const { return hist_.p50(); }
    std::uint64_t p99() const { return hist_.p99(); }

  private:
    stats::Histogram hist_;
};

/**
 * The registry: a flat namespace of metrics, ordered by name so every
 * export is deterministic.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Find-or-create a metric. @throws std::logic_error when @p name
     * is already registered under a different kind.
     */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Distribution &distribution(const std::string &name);

    bool contains(const std::string &name) const;
    std::size_t size() const { return metrics_.size(); }

    /**
     * Dump all metrics as CSV:
     * `name,kind,count,value,mean,min,max,p50,p99` — columns not
     * meaningful for a kind are left empty.
     */
    void writeCsv(std::ostream &out) const;

  private:
    enum class Kind { Counter, Gauge, Distribution };

    struct Entry {
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Distribution> dist;
    };

    std::map<std::string, Entry> metrics_;

    Entry &fetch(const std::string &name, Kind kind);
};

} // namespace jord::trace

#endif // JORD_TRACE_METRICS_HH
