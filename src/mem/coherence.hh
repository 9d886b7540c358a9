/**
 * @file
 * Tracked-line directory-based MESI coherence engine with timing.
 *
 * The engine models, per cache block actually touched by the simulation,
 * the directory state (MESI), L1 presence per core, LLC presence, and the
 * latency of every access composed from L1/LLC/DRAM latencies and NoC
 * message traversals (Table 2). Bulk application data that never crosses
 * cores is folded into workload execution-time segments and never enters
 * this engine (DESIGN.md §5.3).
 *
 * Jord's single-bit Translation (T) sideband (§4.2) is modelled by the
 * @c tbit parameter on accesses: whenever a T-bit access generates
 * coherence traffic that reaches the home directory, the registered
 * TranslationObserver (the VTD) is notified and may add latency for the
 * VLB-shootdown fan-out it performs.
 */

#ifndef JORD_MEM_COHERENCE_HH
#define JORD_MEM_COHERENCE_HH

#include <cstdint>
#include <vector>

#include "mem/block_map.hh"
#include "mem/core_mask.hh"
#include "noc/mesh.hh"
#include "sim/machine.hh"
#include "sim/types.hh"

namespace jord::prof {
class Pmu;
}

namespace jord::mem {

/** Directory-visible state of a tracked block. */
enum class CacheState : std::uint8_t {
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Outcome of one timed memory access. */
struct Access {
    sim::Cycles latency = 0;
    bool l1Hit = false;
    bool llcHit = false;
    /** Coherence messages generated on the NoC (0 for L1 hits). */
    unsigned messages = 0;
};

/**
 * Interface the UAT layer implements to observe T-bit traffic (the VTD).
 */
class TranslationObserver
{
  public:
    virtual ~TranslationObserver() = default;

    /**
     * A T-bit read from @p core for VTE block @p addr reached the home
     * directory: register the core as a translation sharer.
     */
    virtual void translationRead(unsigned core, sim::Addr addr) = 0;

    /**
     * A T-bit write from @p core for VTE block @p addr reached the home
     * directory. @p dir_sharers is the directory's L1 sharer list before
     * invalidation (the VTD falls back to it pessimistically when it has
     * no entry of its own, §4.2).
     *
     * @return Extra latency for the VLB invalidation fan-out beyond the
     * MESI invalidations already accounted for.
     */
    virtual sim::Cycles translationWrite(unsigned core, sim::Addr addr,
                                         const CoreMask &dir_sharers) = 0;

    /**
     * A T-bit write hit dirty in the writer's L1: only a local VLB
     * invalidation is needed, with no coherence traffic (§4.2).
     */
    virtual void translationWriteLocal(unsigned core, sim::Addr addr) = 0;

    /**
     * The directory evicted a block; if the VTD has no entry for it, it
     * must pessimistically treat all L1 sharers as translation sharers
     * (the directory acts as a victim cache for the VTD, §4.2).
     */
    virtual void directoryEvict(sim::Addr addr,
                                const CoreMask &dir_sharers) = 0;
};

/** Aggregate coherence statistics. */
struct CoherenceStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t atomics = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t dramFills = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t messages = 0;
    std::uint64_t tbitReads = 0;
    std::uint64_t tbitWrites = 0;

    void
    reset()
    {
        *this = CoherenceStats{};
    }
};

/**
 * The coherence engine. All addresses are block-aligned internally.
 */
class CoherenceEngine
{
  public:
    CoherenceEngine(const sim::MachineConfig &cfg, const noc::Mesh &mesh);

    /** Timed read of one block by @p core. */
    Access read(unsigned core, sim::Addr addr, bool tbit = false);

    /** Timed write of one block by @p core. */
    Access write(unsigned core, sim::Addr addr, bool tbit = false);

    /**
     * Timed atomic read-modify-write (free-list pops/pushes). Write
     * semantics plus the ALU forwarding cycle.
     */
    Access atomic(unsigned core, sim::Addr addr);

    /** Register the VTD (may be null to detach). */
    void
    setTranslationObserver(TranslationObserver *observer)
    {
        observer_ = observer;
    }

    /** Attach the simulated PMU (null to detach). Zero-latency: counter
     * and cycle-attribution hooks never change access timing. */
    void setPmu(prof::Pmu *pmu) { pmu_ = pmu; }

    /** Directory state of a block (Invalid if never touched). */
    CacheState stateOf(sim::Addr addr) const;

    /** True if @p core currently holds the block in its L1. */
    bool cachedIn(unsigned core, sim::Addr addr) const;

    /** Current L1 sharer mask of a block. */
    CoreMask sharersOf(sim::Addr addr) const;

    /**
     * Force-evict the block from @p core's L1 (silent eviction of a clean
     * line, or writeback of a dirty one). Used by tests to reproduce the
     * VTD victim-cache corner case.
     */
    void evictL1(unsigned core, sim::Addr addr);

    /**
     * Evict the block's directory entry entirely (notifies the
     * TranslationObserver, §4.2 victim behaviour).
     */
    void evictDirectory(sim::Addr addr);

    /** Drop all tracked state (keeps stats). */
    void flushAll();

    const CoherenceStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    const noc::Mesh &mesh() const { return mesh_; }
    const sim::MachineConfig &config() const { return cfg_; }

    /** Latency of an L1 hit. */
    sim::Cycles l1Latency() const { return cfg_.l1HitCycles; }

  private:
    struct Line {
        CoreMask sharers;      ///< cores holding the line in L1
        unsigned owner = 0;    ///< valid when state is Modified/Exclusive
        CacheState state = CacheState::Invalid;
        bool inLlc = false;    ///< block has an on-chip LLC copy
    };

    /**
     * Per-core L1 residency in LRU order: a doubly linked list threaded
     * through a node array by index, plus a block -> node index. The
     * array grows on demand and never holds more than l1Lines + 1 nodes.
     */
    class CoreL1
    {
      public:
        /** Make @p addr most recent; false if it was not resident. */
        bool touch(sim::Addr addr);
        /** Insert a non-resident @p addr as most recent. */
        void pushFront(sim::Addr addr);
        /** Remove and return the least recent block. */
        sim::Addr popBack();
        /** Remove @p addr if resident. */
        void erase(sim::Addr addr);
        void clear();
        std::size_t size() const { return index_.size(); }

      private:
        static constexpr std::uint32_t kNil = ~0u;
        struct Node {
            sim::Addr addr;
            std::uint32_t prev; ///< toward the most recent
            std::uint32_t next; ///< toward the least recent
        };
        std::vector<Node> nodes_;
        BlockMap<std::uint32_t> index_;
        std::uint32_t head_ = kNil; ///< most recent
        std::uint32_t tail_ = kNil; ///< least recent: the next victim
        std::uint32_t free_ = kNil; ///< unused nodes, chained by next

        void link(std::uint32_t node);
        void unlink(std::uint32_t node);
        void release(std::uint32_t node);
    };

    const sim::MachineConfig cfg_;
    const noc::Mesh &mesh_;
    TranslationObserver *observer_ = nullptr;
    prof::Pmu *pmu_ = nullptr;
    BlockMap<Line> lines_;
    std::vector<CoreL1> l1s_;
    CoherenceStats stats_;

    /**
     * The line for @p addr, inserted Invalid if untracked. The reference
     * is valid only until the next insert into or erase from the line
     * table. Within one read/write/atomic nothing else inserts or erases
     * a line: touchL1's evictions, invalidateSharers and the
     * TranslationObserver callbacks only look lines up.
     */
    Line &lineFor(sim::Addr addr);

    /** PMU bookkeeping for one finished access (no timing effect). */
    void notePmu(unsigned core, const Access &acc, unsigned home);

    /** Record residency of @p addr in @p core's L1; evicts LRU victims
     * beyond the configured capacity. */
    void touchL1(unsigned core, sim::Addr addr);

    /** Remove @p addr from @p core's LRU bookkeeping (invalidation). */
    void dropFromL1(unsigned core, sim::Addr addr);

    /** Max parallel invalidation round-trip from home to all sharers. */
    sim::Cycles invalidateSharers(unsigned home, Line &line,
                                  sim::Addr addr_of_line,
                                  unsigned except, unsigned &messages);
};

} // namespace jord::mem

#endif // JORD_MEM_COHERENCE_HH
