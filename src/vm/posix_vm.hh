/**
 * @file
 * OS-mediated virtual memory operations with TLB-shootdown cost model.
 *
 * Models the slow path the paper argues against (§2.2): mmap/munmap/
 * mprotect as syscalls that modify the radix page table and broadcast
 * IPI-based TLB shootdowns to every other core. motivation_vm_compare
 * times these operations against Jord's PrivLib on the same machine.
 */

#ifndef JORD_VM_POSIX_VM_HH
#define JORD_VM_POSIX_VM_HH

#include <cstdint>
#include <map>

#include "mem/coherence.hh"
#include "vm/page_table.hh"

namespace jord::vm {

/** Software cost constants for the OS path. */
namespace oscost {

/** Syscall entry + exit (trap, register save/restore, audit). */
inline constexpr sim::Cycles kSyscall = sim::nsToCycles(250.0);
/** Deliver one IPI and run the remote flush handler. */
inline constexpr sim::Cycles kIpi = sim::nsToCycles(1000.0);
/** Kernel bookkeeping per page (VMA tree, rmap, counters). */
inline constexpr sim::Cycles kPerPage = 80;
/** Kernel VMA-tree (maple tree) lookup/insert. */
inline constexpr sim::Cycles kVmaTree = 120;

} // namespace oscost

/** Result of an OS VM operation. */
struct VmOpResult {
    bool ok = false;
    sim::Cycles latency = 0;
    sim::Addr addr = 0;
    /** Cores that received a shootdown IPI. */
    unsigned ipis = 0;
};

/**
 * A process's OS-visible virtual memory: VMA list, page table and
 * timed syscalls.
 */
class PosixVm
{
  public:
    PosixVm(const sim::MachineConfig &cfg,
            mem::CoherenceEngine &coherence);

    /** Allocate and map @p len bytes; returns the chosen VA. */
    VmOpResult mmap(unsigned core, std::uint64_t len, PagePerms perms);

    /** Unmap a region previously returned by mmap. */
    VmOpResult munmap(unsigned core, sim::Addr va, std::uint64_t len);

    /** Change permissions on a mapped region. */
    VmOpResult mprotect(unsigned core, sim::Addr va, std::uint64_t len,
                        PagePerms perms);

    const PageTable &pageTable() const { return table_; }

    /** Number of live OS VMAs. */
    std::size_t numVmas() const { return vmas_.size(); }

  private:
    const sim::MachineConfig &cfg_;
    mem::CoherenceEngine &coherence_;
    PageTable table_;
    /** Base VA -> page-aligned length of each live VMA. */
    std::map<sim::Addr, std::uint64_t> vmas_;
    sim::Addr nextVa_;
    sim::Addr nextPa_;

    /**
     * Broadcast a shootdown of @p len bytes to every core except the
     * initiator; returns the latency (initiator waits for all acks) and
     * the IPI count.
     */
    sim::Cycles shootdown(unsigned initiator, std::uint64_t len,
                          unsigned &ipis);
};

} // namespace jord::vm

#endif // JORD_VM_POSIX_VM_HH
