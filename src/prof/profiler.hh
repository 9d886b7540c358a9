/**
 * @file
 * Sampling profiler driven by periodic event-queue events.
 *
 * Every sample period the profiler pulls a snapshot of per-core state
 * (running PD/function, the nested-ccall stack, queue depths, VLB
 * occupancy) and global gauges (live PDs, ArgBufs, invocations) from a
 * SampleSource — implemented by the runtime's WorkerServer — and folds
 * busy cores' call stacks into a flamegraph-ready folded-stack map
 * weighted by the sample period in cycles. Gauge snapshots land in a
 * bounded ring buffer exported as a time-series CSV.
 *
 * Sampling mutates no simulation state and draws no random numbers, so
 * attaching the profiler leaves the simulated run byte-identical.
 * The self-rescheduling sample event stops rescheduling once the event
 * queue holds no other work, so it never keeps the run alive.
 */

#ifndef JORD_PROF_PROFILER_HH
#define JORD_PROF_PROFILER_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace jord::prof {

/** One core's state at a sample point. */
struct CoreSample
{
    unsigned core = 0;
    bool orchestrator = false;
    bool busy = false;
    std::uint64_t pd = 0;
    std::string fn;
    /** Folded ccall stack, root caller first; empty when idle. */
    std::vector<std::string> stack;
    std::size_t queueDepth = 0;
    std::size_t outstanding = 0;
    unsigned domainDepth = 0;
    std::size_t vlbIOccupancy = 0;
    std::size_t vlbICapacity = 0;
    std::size_t vlbDOccupancy = 0;
    std::size_t vlbDCapacity = 0;
};

/** System-wide gauges at a sample point. */
struct GlobalSample
{
    std::size_t livePds = 0;
    std::size_t liveArgBufs = 0;
    std::size_t liveInvocations = 0;
};

/** Implemented by the runtime: fill in the current snapshot. */
class SampleSource
{
  public:
    virtual ~SampleSource() = default;
    virtual void profSample(std::vector<CoreSample> &cores,
                            GlobalSample &global) = 0;
};

/** One ring-buffer entry of the sampled gauge time series. */
struct TimePoint
{
    sim::Tick tick = 0;
    unsigned busyCores = 0;
    std::size_t liveInvocations = 0;
    std::size_t livePds = 0;
    std::size_t liveArgBufs = 0;
    std::size_t queueDepth = 0;
    std::size_t vlbIOccupancy = 0;
    std::size_t vlbDOccupancy = 0;
};

class Profiler
{
  public:
    struct Config
    {
        double hz = 100000.0;    ///< samples per simulated second
        double freqGhz = 4.0;    ///< core clock, converts hz to cycles
    };

    Profiler(sim::EventQueue &events, SampleSource &source,
             const Config &cfg);

    /** Schedule the first sample; call after the run's first events
     * are queued (an empty queue would stop sampling immediately). */
    void arm();

    sim::Cycles periodCycles() const { return period_; }
    std::uint64_t samples() const { return samples_; }

    /** Folded stacks: "root;callee;leaf" -> sampled cycles. */
    const std::map<std::string, std::uint64_t> &folded() const
    {
        return folded_;
    }

    /** Flamegraph folded-stack format, one "stack weight" per line. */
    void writeFolded(std::ostream &out) const;

    /** Time-series CSV of the (ring-buffered) gauge samples. */
    void writeTimeSeriesCsv(std::ostream &out) const;

  private:
    void fire();
    void record();

    sim::EventQueue &events_;
    SampleSource &source_;
    Config cfg_;
    sim::Cycles period_;
    std::uint64_t samples_ = 0;
    std::uint64_t dropped_ = 0;

    std::map<std::string, std::uint64_t> folded_;
    std::vector<TimePoint> ring_;
    std::size_t ringHead_ = 0;

    // Scratch buffers reused across samples.
    std::vector<CoreSample> coreScratch_;
};

} // namespace jord::prof

#endif // JORD_PROF_PROFILER_HH
