/**
 * @file
 * VMA table: the translation structure the VTW traverses (§4.1).
 *
 * Two implementations share one interface so Jord_BT (Fig. 13) is a
 * configuration, not a fork:
 *
 *  - PlainListVmaTable: the paper's design. The VTE slot is a pure
 *    function of the VA (size-class encoding), so a walk touches exactly
 *    one cache block and software and hardware share the same list.
 *  - BTreeVmaTable (btree_table.hh): a classic B-tree keyed by VMA base
 *    address, as in Midgard-style designs [28, 37]; walks touch a node
 *    path and mutations may split/merge nodes.
 *
 * The table is *functional*: it stores real VTEs that the permission
 * checks read. Timing comes from the block addresses each operation
 * reports, which callers charge to the coherence engine with the T bit.
 */

#ifndef JORD_UAT_VMA_TABLE_HH
#define JORD_UAT_VMA_TABLE_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "sim/zeroed_array.hh"
#include "uat/size_class.hh"
#include "uat/vte.hh"

namespace jord::uat {

/** Where the VMA table lives in the (privileged) address space. */
inline constexpr sim::Addr kVmaTableBase = 0x2000'0000'0000ull;

/** Result of locating the VTE for a VA. */
struct TableWalk {
    /** Block addresses the walker reads, in order (structure + VTE). */
    std::vector<sim::Addr> readAddrs;
    /** Address of the VTE block; 0 if the VA has no slot. */
    sim::Addr vteAddr = 0;
    /** The VTE (may be invalid); nullptr if the VA has no slot. */
    const Vte *vte = nullptr;
    /** Base VA of the VMA the slot describes. */
    sim::Addr vmaBase = 0;
};

/** Result of a mutating table operation. */
struct TableUpdate {
    /** Blocks written (VTE itself plus any split/merged nodes). */
    std::vector<sim::Addr> writeAddrs;
    /** Blocks read to locate the position. */
    std::vector<sim::Addr> readAddrs;
    bool ok = false;
};

/**
 * Common interface of VMA-table organisations.
 */
class VmaTableBase
{
  public:
    virtual ~VmaTableBase() = default;

    /** Base address of the table region (uatp contents). */
    virtual sim::Addr baseAddr() const = 0;

    /** True if @p addr falls inside the table region (T-bit detection). */
    virtual bool contains(sim::Addr addr) const = 0;

    /** Locate the VTE for @p va (hardware walk). */
    virtual TableWalk walk(sim::Addr va) const = 0;

    /** Mutable VTE handle for @p vma_base; nullptr if no slot. */
    virtual Vte *vteFor(sim::Addr vma_base) = 0;

    /** VTE block address for @p vma_base (0 if no slot). */
    virtual sim::Addr vteAddrOf(sim::Addr vma_base) const = 0;

    /**
     * Record that a VMA now lives at @p vma_base (B-tree inserts a key;
     * the plain list is a no-op beyond the VTE write itself).
     */
    virtual TableUpdate noteInsert(sim::Addr vma_base) = 0;

    /** Record that the VMA at @p vma_base was destroyed. */
    virtual TableUpdate noteRemove(sim::Addr vma_base) = 0;

    /** Live (valid) VMA count. */
    virtual std::uint64_t numValid() const = 0;

    /** Overflow sharer list support for VMAs with > 20 PDs (§4.3). */
    std::vector<SubEntry> &overflowList(const Vte &vte);
    const std::vector<SubEntry> *overflowListIfAny(const Vte &vte) const;
    /** Drop the overflow list attached to @p vte, if any. */
    void clearOverflow(Vte &vte);

    /**
     * Find the effective permission of @p pd in @p vte, consulting the
     * inline sub-array, the G bit, and the overflow list.
     */
    std::optional<Perm> permFor(const Vte &vte, PdId pd) const;

  protected:
    std::unordered_map<std::uint64_t, std::vector<SubEntry>> overflow_;
    std::uint64_t nextOverflowId_ = 1;
};

/**
 * The paper's plain-list table: one preallocated VTE slot per
 * (size class, index) pair, interleaved evenly. The slots start as
 * zero pages (an all-zero VTE is an invalid one), so only the slots a
 * run uses are ever faulted in.
 */
class PlainListVmaTable : public VmaTableBase
{
  public:
    explicit PlainListVmaTable(const VaEncoding &encoding);

    sim::Addr baseAddr() const override { return kVmaTableBase; }
    bool contains(sim::Addr addr) const override;
    TableWalk walk(sim::Addr va) const override;
    Vte *vteFor(sim::Addr vma_base) override;
    sim::Addr vteAddrOf(sim::Addr vma_base) const override;
    TableUpdate noteInsert(sim::Addr vma_base) override;
    TableUpdate noteRemove(sim::Addr vma_base) override;
    std::uint64_t numValid() const override { return numValid_; }

    const VaEncoding &encoding() const { return encoding_; }

  private:
    VaEncoding encoding_;
    sim::ZeroedArray<Vte> slots_;
    std::uint64_t numValid_ = 0;

    std::optional<std::uint64_t> slotFor(sim::Addr va) const;
};

} // namespace jord::uat

#endif // JORD_UAT_VMA_TABLE_HH
