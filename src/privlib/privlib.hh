/**
 * @file
 * PrivLib: the trusted user-level privileged library (§3.2, §4.4).
 *
 * PrivLib is the only software allowed to touch the VMA table and the
 * UAT CSRs. It exposes the Table 1 API: POSIX-compatible VMA operations
 * (mmap / munmap / mprotect) extended with permission transfer
 * (pmove / pcopy), and protection-domain management (cget / cput /
 * ccall / center / cexit). Every entry point sits behind a uatg call
 * gate and runs mandatory security-policy checks before acting.
 *
 * All operations are both *functional* (they mutate the real VMA table,
 * free lists and PD state, and enforce the policy rules the security
 * tests probe) and *timed* (they return the latency composed from the
 * gate entry, the scaled instruction-execution budget, and the actual
 * memory traffic charged to the coherence engine).
 */

#ifndef JORD_PRIVLIB_PRIVLIB_HH
#define JORD_PRIVLIB_PRIVLIB_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mem/coherence.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "uat/uat_system.hh"
#include "uat/vma_table.hh"

namespace jord::probe {
class Probe;
} // namespace jord::probe

namespace jord::privlib {

/** Result of a PrivLib call. */
struct PrivResult {
    bool ok = false;
    sim::Cycles latency = 0;
    /** mmap: new VMA base; cget: new PD id. */
    sim::Addr value = 0;
    /** Why the policy check or hardware refused. */
    uat::Fault fault = uat::Fault::None;
};

/** Operation ids for per-op statistics. */
enum class PrivOp : unsigned {
    Mmap,
    Munmap,
    Mprotect,
    Pmove,
    Pcopy,
    Cget,
    Cput,
    Ccall,
    Center,
    Cexit,
    NumOps,
};

/** Lower-case name of @p op ("mmap", "pmove", ...). */
const char *privOpName(PrivOp op);

/** Per-operation counters. */
struct OpStats {
    std::uint64_t count = 0;
    std::uint64_t cycles = 0;

    double
    meanCycles() const
    {
        return count ? static_cast<double>(cycles) /
                           static_cast<double>(count)
                     : 0.0;
    }
};

/**
 * The privileged library.
 */
class PrivLib
{
  public:
    /** The trusted runtime protection domain (orchestrator/executors). */
    static constexpr uat::PdId kRootPd = 0;

    /**
     * @param probe Optional probe; when attached, every operation and
     * every successful mutation is reported after the real table
     * update, including the bootstrap VMAs created by this
     * constructor (which is why the probe is a constructor argument).
     */
    PrivLib(const sim::MachineConfig &cfg,
            mem::CoherenceEngine &coherence, uat::UatSystem &uat,
            uat::VmaTableBase &table, os::Kernel &kernel,
            probe::Probe *probe = nullptr);

    PrivLib(const PrivLib &) = delete;
    PrivLib &operator=(const PrivLib &) = delete;

    // --- VMA management (Table 1) -------------------------------------

    /** Allocate a VMA of @p len bytes into the calling core's PD. */
    PrivResult mmap(unsigned core, std::uint64_t len, uat::Perm prot);

    /**
     * Runtime-internal variant: allocate into an explicit PD, optionally
     * privileged or global. Policy: only the root PD may use it.
     */
    PrivResult mmapFor(unsigned core, uat::PdId pd, std::uint64_t len,
                       uat::Perm prot, bool priv = false,
                       bool global = false);

    /** Deallocate a VMA owned by the calling PD. */
    PrivResult munmap(unsigned core, sim::Addr va, std::uint64_t len);

    /** Change the calling PD's permission on (or resize) a VMA. */
    PrivResult mprotect(unsigned core, sim::Addr va, std::uint64_t len,
                        uat::Perm prot);

    /** Move the calling PD's permission on a VMA to @p dst. */
    PrivResult pmove(unsigned core, sim::Addr va, uat::PdId dst,
                     uat::Perm prot);

    /**
     * Runtime-internal permission transfer between two foreign PDs
     * (the executor handing an ArgBuf from the producer's PD to a
     * fresh one, Fig. 4). Policy: only the root PD may call this.
     */
    PrivResult pmoveBetween(unsigned core, sim::Addr va, uat::PdId src,
                            uat::PdId dst, uat::Perm prot);

    /** Copy the calling PD's permission on a VMA to @p dst. */
    PrivResult pcopy(unsigned core, sim::Addr va, uat::PdId dst,
                     uat::Perm prot);

    // --- PD management (Table 1) ---------------------------------------

    /** Create a new PD; PrivResult::value is its id. */
    PrivResult cget(unsigned core);

    /** Destroy a PD created by the calling PD (or any PD, for root). */
    PrivResult cput(unsigned core, uat::PdId pd);

    /** Switch the core into @p pd (user-level context switch). */
    PrivResult ccall(unsigned core, uat::PdId pd);

    /** Resume a previously suspended PD. */
    PrivResult center(unsigned core, uat::PdId pd);

    /** Suspend the current PD and return to the caller domain. */
    PrivResult cexit(unsigned core);

    // --- Introspection --------------------------------------------------

    /** The PD the core currently executes in (the ucid CSR). */
    uat::PdId currentPd(unsigned core) const;

    bool pdValid(uat::PdId pd) const;
    unsigned numLivePds() const { return livePds_; }

    /** Depth of the core's domain call stack (0 = in root). */
    unsigned domainDepth(unsigned core) const
    {
        return static_cast<unsigned>(domainStack_[core].size());
    }

    // --- Jord_NI ---------------------------------------------------------

    /**
     * Bypass all isolation work (the Jord_NI upper bound, §5): VMAs are
     * created global-RWX, and permission/PD operations return
     * immediately at near-zero cost. Memory management itself (VA and
     * physical chunk allocation) still runs.
     */
    void setIsolationBypass(bool bypass) { bypass_ = bypass; }
    bool isolationBypass() const { return bypass_; }

    // --- Stats -----------------------------------------------------------

    const OpStats &stats(PrivOp op) const
    {
        return stats_[static_cast<unsigned>(op)];
    }
    void resetStats();

    /** Re-point (or detach, with nullptr) the probe given at
     * construction. */
    void setProbe(probe::Probe *probe) { probe_ = probe; }

    /** Cycles spent in VMA-management ops (Fig. 13 comparison). */
    std::uint64_t vmaManagementCycles() const;

    /** Cycles spent in PD-management ops. */
    std::uint64_t pdManagementCycles() const;

    uat::UatSystem &uat() { return uat_; }

    /** Base VA of PrivLib's privileged code VMA (gates live here). */
    sim::Addr privCodeBase() const { return privCodeBase_; }
    /** Base VA of PrivLib's privileged data VMA. */
    sim::Addr privDataBase() const { return privDataBase_; }

  private:
    struct PdInfo {
        bool valid = false;
        uat::PdId creator = 0;
        /** VMAs on which this PD currently holds a permission entry. */
        std::uint32_t refs = 0;
    };

    /**
     * A shared free list with per-core magazines. Pops and pushes hit a
     * core-local cache line; only magazine refills/flushes touch the
     * shared head, amortising cross-core contention (slab-style; the
     * paper's shared lists with per-core front-ends).
     */
    struct FreeList {
        std::vector<std::uint64_t> shared;
        std::uint64_t nextFresh = 0; ///< bump pointer (0 = disabled)
        std::uint64_t freshLimit = 0;
        sim::Addr headAddr = 0; ///< shared-head cache line
        std::vector<std::vector<std::uint64_t>> magazines;
        sim::Addr magazineBase = 0; ///< per-core line region
    };

    /** Items moved between a magazine and the shared list at once. */
    static constexpr unsigned kMagazineBatch = 16;

    const sim::MachineConfig &cfg_;
    mem::CoherenceEngine &coherence_;
    uat::UatSystem &uat_;
    uat::VmaTableBase &table_;
    os::Kernel &kernel_;
    probe::Probe *probe_ = nullptr; ///< null when not attached
    bool bypass_ = false;

    std::array<FreeList, uat::kNumSizeClasses> vaLists_;
    std::array<FreeList, uat::kNumSizeClasses> physLists_;
    FreeList pdList_;
    std::vector<PdInfo> pds_;
    unsigned livePds_ = 0;
    /** Per-core stack of suspended domains (ccall/cexit nesting). */
    std::vector<std::vector<uat::PdId>> domainStack_;
    std::array<OpStats, static_cast<unsigned>(PrivOp::NumOps)> stats_{};
    sim::Addr privCodeBase_ = 0;
    sim::Addr privDataBase_ = 0;

    /** Scaled instruction-execution latency. */
    sim::Cycles sw(sim::Cycles budget) const;

    /** Ordering fence: wait until a VTE write's shootdown completed. */
    sim::Cycles fence(unsigned core, sim::Addr vte_addr) const;

    /** PD-table cache line of a PD. */
    static sim::Addr pdLineAddr(uat::PdId pd);

    /** Timed pop/push through a free list's per-core magazine. */
    bool listPop(unsigned core, FreeList &list, std::uint64_t &item,
                 sim::Cycles &latency);
    void listPush(unsigned core, FreeList &list, std::uint64_t item,
                  sim::Cycles &latency);

    /** Pop a VA index for a size class; also charges list traffic. */
    bool popVaIndex(unsigned core, unsigned sc, std::uint64_t &index,
                    sim::Cycles &latency);
    void pushVaIndex(unsigned core, unsigned sc, std::uint64_t index,
                     sim::Cycles &latency);

    /** Pop a physical chunk, refilling from the kernel if needed. */
    bool popPhysChunk(unsigned core, unsigned sc, sim::Addr &pa,
                      sim::Cycles &latency);
    void pushPhysChunk(unsigned core, unsigned sc, sim::Addr pa,
                       sim::Cycles &latency);

    void account(PrivOp op, sim::Cycles latency);

    PrivResult mmapInternal(unsigned core, uat::PdId pd,
                            std::uint64_t len, uat::Perm prot, bool priv,
                            bool global, PrivOp op);

    /** Shared policy lookup: the calling PD's entry on a VMA. */
    uat::Vte *vteForPolicy(unsigned core, sim::Addr va, uat::PdId pd,
                           PrivResult &res);

    /**
     * Install or update @p pd's permission on a VMA, spilling to the
     * overflow list when the inline sub-array is full (§4.3).
     */
    void setPerm(unsigned core, uat::Vte &vte, uat::PdId pd,
                 uat::Perm perm, sim::Cycles &latency);

    /** Drop @p pd's permission entry (inline or overflow). */
    bool removePerm(uat::Vte &vte, uat::PdId pd);
};

} // namespace jord::privlib

#endif // JORD_PRIVLIB_PRIVLIB_HH
