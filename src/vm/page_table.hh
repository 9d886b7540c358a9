/**
 * @file
 * Functional 4-level radix page table (Sv48-style).
 *
 * This is the traditional page-based translation substrate that Jord
 * extends rather than replaces (§2.2, §4.1), and the table PosixVm's
 * OS path edits. The table is a real pointer-linked radix tree; every
 * page-table node has a synthetic physical address so PosixVm can charge
 * the kernel's leaf-PTE writes to the coherence engine.
 */

#ifndef JORD_VM_PAGE_TABLE_HH
#define JORD_VM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/types.hh"

namespace jord::vm {

/** Page size of the conventional VM system. */
inline constexpr std::uint64_t kPageBytes = 4096;
inline constexpr unsigned kPageShift = 12;
/** Radix bits per level; 4 levels cover a 48-bit VA. */
inline constexpr unsigned kLevelBits = 9;
inline constexpr unsigned kNumLevels = 4;
inline constexpr unsigned kEntriesPerNode = 1u << kLevelBits;

/** Align an address down/up to a page boundary. */
inline constexpr sim::Addr
pageAlignDown(sim::Addr addr)
{
    return addr & ~(kPageBytes - 1);
}

inline constexpr sim::Addr
pageAlignUp(sim::Addr addr)
{
    return (addr + kPageBytes - 1) & ~(kPageBytes - 1);
}

/** Page permissions. */
struct PagePerms {
    bool read = false;
    bool write = false;
    bool exec = false;

    bool operator==(const PagePerms &) const = default;

    /** True if this grants everything @p need requires. */
    bool
    covers(const PagePerms &need) const
    {
        return (!need.read || read) && (!need.write || write) &&
               (!need.exec || exec);
    }

    static PagePerms rw() { return {true, true, false}; }
    static PagePerms ro() { return {true, false, false}; }
    static PagePerms rx() { return {true, false, true}; }
    static PagePerms none() { return {}; }
};

/** A successful translation. */
struct Translation {
    sim::Addr pa = 0;
    PagePerms perms;
};

/**
 * The radix page table.
 */
class PageTable
{
  public:
    PageTable();
    ~PageTable();

    PageTable(const PageTable &) = delete;
    PageTable &operator=(const PageTable &) = delete;

    /**
     * Map [va, va+len) to [pa, pa+len) with @p perms. Both addresses must
     * be page-aligned; len is rounded up to whole pages.
     * @retval false if any page in the range is already mapped.
     */
    bool map(sim::Addr va, sim::Addr pa, std::uint64_t len,
             PagePerms perms);

    /**
     * Unmap [va, va+len). Pages that are not mapped are skipped.
     * @return number of pages actually unmapped.
     */
    std::uint64_t unmap(sim::Addr va, std::uint64_t len);

    /**
     * Change permissions on all mapped pages in [va, va+len).
     * @return number of pages updated.
     */
    std::uint64_t protect(sim::Addr va, std::uint64_t len,
                          PagePerms perms);

    /** Translate one VA; nullopt on a page fault. */
    std::optional<Translation> translate(sim::Addr va) const;

    /**
     * Synthetic physical addresses of the page-table entries a hardware
     * walker touches to translate @p va, root first. Always kNumLevels
     * entries for a mapped VA; shorter if the walk aborts early.
     */
    std::vector<sim::Addr> walkPath(sim::Addr va) const;

    /** Number of leaf pages currently mapped. */
    std::uint64_t numMappedPages() const { return numMapped_; }

    /** Number of allocated page-table nodes (including the root). */
    std::uint64_t numNodes() const { return numNodes_; }

  private:
    struct Node;

    struct Entry {
        bool valid = false;
        bool leaf = false;
        sim::Addr pa = 0;
        PagePerms perms;
        std::unique_ptr<Node> child;
    };

    struct Node {
        std::array<Entry, kEntriesPerNode> entries;
        /** Synthetic PA of this node, for timing PTE accesses. */
        sim::Addr nodePa;
    };

    std::unique_ptr<Node> root_;
    std::uint64_t numMapped_ = 0;
    std::uint64_t numNodes_ = 0;
    /** Bump allocator for synthetic page-table-node physical addresses. */
    sim::Addr nextNodePa_;

    static unsigned levelIndex(sim::Addr va, unsigned level);
    Node *ensureChild(Entry &entry);
    Entry *findLeaf(sim::Addr va) const;
    bool mapPage(sim::Addr va, sim::Addr pa, PagePerms perms);
};

} // namespace jord::vm

#endif // JORD_VM_PAGE_TABLE_HH
