/**
 * @file
 * Virtual translation directory (VTD) — §4.2, Fig. 7.
 *
 * A set-associative structure co-located with each LLC slice that tracks
 * which cores' VLBs cache each translation, using the VTE address as a
 * proxy (one VTE per VMA in the plain-list design). T-bit reads register
 * sharers; T-bit writes read out the sharer list and fan out VLB
 * invalidations to it (unioned with the coherence directory's block
 * sharers, which cover cores whose fills hit in their own L1 and thus
 * never reached the VTD). The directory acts as a victim cache: on
 * directory eviction an untracked translation's sharers are installed
 * into the VTD. A VTD capacity eviction surfaces the victim's sharer
 * list to the caller, which must back-invalidate those cores' VLBs —
 * otherwise their entries would be invisible to later shootdowns.
 */

#ifndef JORD_UAT_VTD_HH
#define JORD_UAT_VTD_HH

#include <cstdint>
#include <optional>

#include "mem/core_mask.hh"
#include "noc/mesh.hh"
#include "sim/machine.hh"
#include "sim/zeroed_array.hh"

namespace jord::uat {

/** VTD statistics. */
struct VtdStats {
    std::uint64_t reads = 0;      ///< sharer registrations
    std::uint64_t writes = 0;     ///< shootdown fan-outs
    std::uint64_t evictions = 0;  ///< capacity evictions
    std::uint64_t pessimistic = 0;///< writes served from directory sharers
    std::uint64_t victims = 0;    ///< directory-evict installs
};

/**
 * The VTD. Entries are distributed across slices by the VTE address's
 * home slice, each slice holding cfg.vtdSets x cfg.vtdWays entries.
 */
class Vtd
{
  public:
    Vtd(const sim::MachineConfig &cfg, const noc::Mesh &mesh);

    /** One way of a set. The entries start as zero pages: an all-zero
     * entry is an invalid one. */
    struct Entry {
        bool valid = false;
        sim::Addr tag = 0;
        mem::CoreMask sharers;
        std::uint64_t lastUse = 0;
    };

    /** A valid entry displaced by a capacity eviction. */
    struct Evicted {
        sim::Addr tag = 0;
        mem::CoreMask sharers;
    };

    /**
     * Register @p core as a sharer of translation @p vte_addr. If the
     * insert evicts a tracked translation, its identity and sharers
     * are returned so the caller can back-invalidate their VLBs.
     */
    std::optional<Evicted> addSharer(sim::Addr vte_addr, unsigned core);

    /** Current sharer list, or nullopt if untracked. */
    std::optional<mem::CoreMask> sharers(sim::Addr vte_addr) const;

    /** Drop the entry for @p vte_addr (after a shootdown). */
    void remove(sim::Addr vte_addr);

    /**
     * Victim-cache install: the coherence directory evicted this block;
     * adopt its sharer list if we are not already tracking it. As with
     * addSharer, a displaced tracked translation is returned.
     */
    std::optional<Evicted> installPessimistic(
        sim::Addr vte_addr, const mem::CoreMask &sharers);

    const VtdStats &stats() const { return stats_; }
    void resetStats() { stats_ = VtdStats{}; }
    VtdStats &mutableStats() { return stats_; }

    /** Total capacity in entries across all slices. */
    std::uint64_t capacity() const { return entries_.size(); }

  private:
    const sim::MachineConfig &cfg_;
    const noc::Mesh &mesh_;
    sim::ZeroedArray<Entry> entries_;
    std::uint64_t useClock_ = 0;
    VtdStats stats_;

    /** First entry index of the set @p vte_addr maps to. */
    std::size_t setBase(sim::Addr vte_addr) const;
    Entry *find(sim::Addr vte_addr);
    const Entry *find(sim::Addr vte_addr) const;
    Entry &victimIn(sim::Addr vte_addr, std::optional<Evicted> &out);
};

} // namespace jord::uat

#endif // JORD_UAT_VTD_HH
