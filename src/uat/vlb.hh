/**
 * @file
 * Virtual lookaside buffer (VLB): a fully associative range TLB caching
 * VMA translations (§4.1), tagged with the VTE address for coherence
 * matching (§4.2) and the PD id the cached permission belongs to.
 */

#ifndef JORD_UAT_VLB_HH
#define JORD_UAT_VLB_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "uat/vte.hh"

namespace jord::uat {

/** One cached range translation. */
struct VlbEntry {
    /** Tag used to match T-bit invalidation messages (§4.2). */
    sim::Addr vteAddr = 0;
    sim::Addr base = 0;       ///< VMA base VA
    std::uint64_t bound = 0;  ///< VMA length in bytes
    std::int64_t offs = 0;    ///< PA = VA + offs
    Perm perm;                ///< resolved permission for pd
    bool pbit = false;        ///< privileged VMA
    bool global = false;      ///< valid for every PD
    PdId pd = 0;              ///< owning PD (ignored when global)
    std::uint64_t lastUse = 0;
};

/** VLB statistics. */
struct VlbStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t shootdowns = 0;

    double
    hitRate() const
    {
        std::uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

/**
 * Fully associative, LRU-replaced range VLB of at most 64 entries. One
 * bit per entry records whether it is valid, so a shootdown visits only
 * the valid entries.
 */
class Vlb
{
  public:
    explicit Vlb(unsigned entries);

    /**
     * Look up @p va under protection domain @p pd, visiting the valid
     * entries in index order.
     * Hits require the VA to fall in [base, base+bound) and the entry to
     * be global or tagged with @p pd.
     *
     * @return The hit entry, valid until the next insert or
     *     invalidation; null on a miss.
     */
    const VlbEntry *lookup(sim::Addr va, PdId pd);

    /** Install a translation (LRU replacement). */
    void insert(const VlbEntry &entry);

    /** Invalidate all entries tagged with @p vte_addr (shootdown). */
    unsigned invalidateVte(sim::Addr vte_addr);

    /** Invalidate everything. */
    void invalidateAll();

    /** Probe without LRU update; for tests. */
    bool holdsVte(sim::Addr vte_addr) const;

    unsigned capacity() const { return static_cast<unsigned>(entries_.size()); }
    unsigned occupancy() const;

    const VlbStats &stats() const { return stats_; }
    void resetStats() { stats_ = VlbStats{}; }

  private:
    /** The entry @p entry replaces: one it supersedes, else the first
     * invalid one, else the least recently used (an eviction). */
    unsigned victimFor(const VlbEntry &entry);

    std::vector<VlbEntry> entries_;
    std::uint64_t valid_ = 0; ///< bit i set: entries_[i] is valid
    std::uint64_t useClock_ = 0;
    VlbStats stats_;
};

} // namespace jord::uat

#endif // JORD_UAT_VLB_HH
