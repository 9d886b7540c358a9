/**
 * @file
 * Simulated per-core performance-monitoring unit (PMU).
 *
 * The PMU carries two kinds of state, both incremented at zero
 * simulated latency by the worker's instrumentation channel
 * (runtime::Instruments) from coherence, UAT, PrivLib and runtime
 * events:
 *
 *  - named event counters (VLB i/d hits and misses, VTW walks and walk
 *    depth, VTD lookups/shootdowns/back-invalidations, NoC messages and
 *    hops, L1/LLC/DRAM coherence events, queue-wait cycles, ...);
 *  - top-down cycle buckets that decompose each core's time into
 *    retire / VLB-miss stall / VTW walk / shootdown / NoC /
 *    dispatch-wait / idle.
 *
 * Bucket charges are only accepted inside an *attribution window* the
 * runtime opens around each busy stretch of a core. The window closes
 * with the stretch's total busy cycles; whatever the hooks did not
 * attribute to a stall bucket is charged to Retire. This makes the
 * per-core invariant
 *
 *     Retire + stalls == sum of busy cycles
 *
 * hold by construction, and finalize() turns the remainder of the run
 * into Idle so the buckets of each core sum to the run's total ticks.
 */

#ifndef JORD_PROF_PMU_HH
#define JORD_PROF_PMU_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/types.hh"

namespace jord::prof {

/** Named PMU event counters. */
enum class PmuCounter : unsigned {
    RetiredOps,      ///< modelled operations retired (UAT + memory)
    VlbIHits,        ///< instruction-VLB hits
    VlbIMisses,      ///< instruction-VLB misses
    VlbDHits,        ///< data-VLB hits
    VlbDMisses,      ///< data-VLB misses
    VtwWalks,        ///< VTW table walks started
    VtwWalkDepth,    ///< table blocks touched across all walks
    VtdLookups,      ///< VTD sharer-tracker lookups
    VtdShootdowns,   ///< shootdowns that fanned out to a remote core
    VtdBackInvals,   ///< VTD capacity-eviction back-invalidations
    NocMsgs,         ///< coherence messages placed on the NoC
    NocHops,         ///< mesh hops traversed by those messages
    L1Hits,          ///< L1 cache hits
    LlcHits,         ///< LLC hits (including owner forwards)
    DramFills,       ///< misses filled from DRAM
    QueueWaitCycles, ///< invocation cycles waiting in queues/joins
    DispatchScans,   ///< orchestrator JBSQ queue-length scans
    NumCounters,
};

/** Top-down cycle-attribution buckets (§6-style decomposition). */
enum class PmuBucket : unsigned {
    Retire,       ///< useful work (compute segments, runtime code)
    VlbMissStall, ///< VLB-miss handling outside the walk's memory reads
    VtwWalk,      ///< memory traffic of VTW table walks
    Shootdown,    ///< waiting on VLB shootdown completion (fences)
    Noc,          ///< stalled on cross-core coherence traffic
    DispatchWait, ///< orchestrator dispatch-decision scans
    Idle,         ///< no work on the core
    NumBuckets,
};

const char *pmuCounterName(PmuCounter counter);
const char *pmuBucketName(PmuBucket bucket);

/**
 * The simulated PMU: per-core counters plus one uncore counter row for
 * events with no initiating core (VTD back-invalidations).
 */
class Pmu
{
  public:
    static constexpr unsigned kNumCounters =
        static_cast<unsigned>(PmuCounter::NumCounters);
    static constexpr unsigned kNumBuckets =
        static_cast<unsigned>(PmuBucket::NumBuckets);

    explicit Pmu(unsigned num_cores);

    unsigned numCores() const
    {
        return static_cast<unsigned>(counters_.size());
    }

    // --- Event counters (always accepted) ---------------------------

    void
    add(unsigned core, PmuCounter counter, std::uint64_t n = 1)
    {
        counters_[core][static_cast<unsigned>(counter)] += n;
    }

    /** Count an event with no initiating core (uncore row). */
    void
    addUncore(PmuCounter counter, std::uint64_t n = 1)
    {
        uncore_[static_cast<unsigned>(counter)] += n;
    }

    std::uint64_t
    counter(unsigned core, PmuCounter counter) const
    {
        return counters_[core][static_cast<unsigned>(counter)];
    }

    std::uint64_t
    uncoreCounter(PmuCounter counter) const
    {
        return uncore_[static_cast<unsigned>(counter)];
    }

    /** Sum of a counter over all cores plus the uncore row. */
    std::uint64_t totalCounter(PmuCounter counter) const;

    // --- Top-down cycle buckets -------------------------------------

    /**
     * Open the attribution window of a busy stretch on @p core and
     * return the attributed-cycle watermark to pass to endWindow().
     */
    std::uint64_t
    beginWindow(unsigned core)
    {
        windowOpen_[core] = true;
        return attributed_[core];
    }

    /**
     * Close the window: the stretch consumed @p busy cycles in total;
     * whatever the hooks attributed beyond @p watermark stays in its
     * stall bucket and the remainder is charged to Retire.
     */
    void endWindow(unsigned core, sim::Cycles busy,
                   std::uint64_t watermark);

    /** Charge stall cycles; dropped when no window is open on @p core
     * (work outside any busy stretch is not attributed). */
    void
    charge(unsigned core, PmuBucket bucket, sim::Cycles cycles)
    {
        if (!windowOpen_[core] || cycles == 0)
            return;
        buckets_[core][static_cast<unsigned>(bucket)] += cycles;
        attributed_[core] += cycles;
    }

    /** Move up to @p cycles already charged to @p from into @p to
     * (e.g. walk memory reads first land in Noc, then get
     * reclassified as VtwWalk). Attributed totals are unchanged. */
    void reclassify(unsigned core, PmuBucket from, PmuBucket to,
                    sim::Cycles cycles);

    std::uint64_t
    bucket(unsigned core, PmuBucket bucket) const
    {
        return buckets_[core][static_cast<unsigned>(bucket)];
    }

    /**
     * End-of-run: charge each core's unaccounted remainder of
     * @p total_ticks to Idle. Cores whose attributed work already
     * exceeds the total (possible only through off-model charges) are
     * clamped to zero idle and counted in clampedCores().
     */
    void finalize(sim::Tick total_ticks);

    sim::Tick totalTicks() const { return totalTicks_; }
    unsigned clampedCores() const { return clampedCores_; }

    // --- Export -------------------------------------------------------

    /** Per-core counter CSV: core,counter,value (plus uncore/total). */
    void writeCountersCsv(std::ostream &out) const;

    /** Per-core top-down CSV: core,bucket...,total. */
    void writeTopDownCsv(std::ostream &out) const;

    void reset();

  private:
    std::vector<std::array<std::uint64_t, kNumCounters>> counters_;
    std::array<std::uint64_t, kNumCounters> uncore_{};
    std::vector<std::array<std::uint64_t, kNumBuckets>> buckets_;
    /** Cycles charged to any stall bucket (not Retire/Idle), per core. */
    std::vector<std::uint64_t> attributed_;
    std::vector<bool> windowOpen_;
    sim::Tick totalTicks_ = 0;
    unsigned clampedCores_ = 0;
};

/**
 * RAII window guard: opens an attribution window on construction and
 * closes it with the current value of a caller-owned busy accumulator.
 * Null PMU means every operation is a no-op.
 */
class PmuWindow
{
  public:
    PmuWindow(Pmu *pmu, unsigned core, const sim::Cycles &busy)
        : pmu_(pmu), core_(core), busy_(busy),
          watermark_(pmu ? pmu->beginWindow(core) : 0)
    {
    }

    ~PmuWindow()
    {
        if (pmu_)
            pmu_->endWindow(core_, busy_, watermark_);
    }

    PmuWindow(const PmuWindow &) = delete;
    PmuWindow &operator=(const PmuWindow &) = delete;

  private:
    Pmu *pmu_;
    unsigned core_;
    const sim::Cycles &busy_;
    std::uint64_t watermark_;
};

} // namespace jord::prof

#endif // JORD_PROF_PMU_HH
