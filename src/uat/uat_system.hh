/**
 * @file
 * UatSystem: the per-core UAT hardware frontend (Fig. 5).
 *
 * Owns the per-core I/D VLBs and CSR files, the VTW walk logic, the VTD,
 * and the protection checks (P bit, uatg call gates, CSR privilege). It
 * plugs into the coherence engine as the TranslationObserver so that
 * T-bit traffic drives hardware VLB shootdowns (Fig. 7).
 */

#ifndef JORD_UAT_UAT_SYSTEM_HH
#define JORD_UAT_UAT_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "mem/coherence.hh"
#include "stats/sampler.hh"
#include "uat/csr.hh"
#include "uat/fault.hh"
#include "uat/vlb.hh"
#include "uat/vma_table.hh"
#include "uat/vtd.hh"

namespace jord::probe {
class Probe;
} // namespace jord::probe

namespace jord::uat {

/** Extra VTW cycles beyond the table-block accesses (address
 * computation, permission check, VLB install). Calibrated so a VLB miss
 * whose traversal hits the L1D costs ~2 ns (Table 4, §6.2). */
inline constexpr sim::Cycles kVtwOverheadCycles = 6;

/** Outcome of a timed UAT access. */
struct UatAccess {
    sim::Cycles latency = 0;
    Fault fault = Fault::None;
    bool vlbHit = false;
    sim::Addr pa = 0;
    bool pbit = false; ///< the VMA covering the access is privileged

    bool ok() const { return fault == Fault::None; }
};

/**
 * The assembled UAT hardware.
 */
class UatSystem : public mem::TranslationObserver
{
  public:
    /**
     * @param cfg Machine configuration (VLB/VTD sizes).
     * @param coherence Engine to charge table accesses to; this object
     * registers itself as the engine's TranslationObserver.
     * @param table The VMA table organisation (plain list or B-tree).
     */
    UatSystem(const sim::MachineConfig &cfg,
              mem::CoherenceEngine &coherence, VmaTableBase &table);
    ~UatSystem() override;

    UatSystem(const UatSystem &) = delete;
    UatSystem &operator=(const UatSystem &) = delete;

    // --- Untrusted access path -------------------------------------

    /**
     * Timed load/store by @p core at @p va requiring @p need.
     * Permission is resolved against the core's current ucid. The
     * privileged-VMA rule (§4.3) uses the core's current P-bit state.
     */
    UatAccess dataAccess(unsigned core, sim::Addr va, Perm need);

    /**
     * Timed instruction fetch: resolves execute permission, then applies
     * the uatg call-gate rule on non-privileged -> privileged
     * transitions and updates the core's P-bit state.
     */
    UatAccess fetch(unsigned core, sim::Addr va);

    // --- Gates and privilege ----------------------------------------

    /** Register a uatg call-gate address (a PrivLib entry point). */
    void addGate(sim::Addr va);

    /** Current decoder P-bit state of a core. */
    bool privileged(unsigned core) const { return pbit_[core]; }

    /**
     * Trusted-software shortcut used by the OS model at bootstrap and by
     * tests: force the core's P-bit state without a fetch.
     */
    void forcePrivileged(unsigned core, bool priv) { pbit_[core] = priv; }

    // --- CSRs --------------------------------------------------------

    /** CSR write; requires the core to be executing privileged code. */
    Fault writeCsr(unsigned core, UatCsr which, std::uint64_t value);

    /** CSR read; same privilege requirement. */
    Fault readCsr(unsigned core, UatCsr which,
                  std::uint64_t &value) const;

    /** Backdoor for the OS context switch (§4.4) and PrivLib. */
    UatCsrFile &csrFile(unsigned core) { return csrs_[core]; }
    const UatCsrFile &csrFile(unsigned core) const { return csrs_[core]; }

    // --- Timed VTE accesses for PrivLib ------------------------------

    /** Timed VTE block read with the T bit set. */
    sim::Cycles vteRead(unsigned core, sim::Addr vte_addr);

    /** Timed VTE block write with the T bit set (may shoot down VLBs). */
    sim::Cycles vteWrite(unsigned core, sim::Addr vte_addr);

    // --- Components ----------------------------------------------------

    Vlb &ivlb(unsigned core) { return *ivlbs_[core]; }
    Vlb &dvlb(unsigned core) { return *dvlbs_[core]; }
    Vtd &vtd() { return vtd_; }
    VmaTableBase &table() { return table_; }
    mem::CoherenceEngine &coherence() { return coherence_; }

    /** Per-shootdown fan-out latency samples (Fig. 14 series). */
    stats::Sampler &shootdownLatency() { return shootdownLatency_; }

    // --- Observability -------------------------------------------------

    /** Attach (or detach, with nullptr) the probe; accesses, VLB
     * hits/misses/fills, walks, VTD lookups and shootdown fan-outs are
     * reported while attached. Reports never charge latency. */
    void setProbe(probe::Probe *probe) { probe_ = probe; }

    /**
     * Negative-test knob: skip the shootdown invalidation of one core
     * (-1 = off). Simulates a broken VTD fan-out so tests can prove
     * the VLB-coherence oracle catches it.
     */
    void debugSkipShootdownCore(int core)
    {
        debugSkipShootdownCore_ = core;
    }

    // --- TranslationObserver ------------------------------------------

    void translationRead(unsigned core, sim::Addr addr) override;
    sim::Cycles translationWrite(unsigned core, sim::Addr addr,
                                 const mem::CoreMask &dir) override;
    void translationWriteLocal(unsigned core, sim::Addr addr) override;
    void directoryEvict(sim::Addr addr,
                        const mem::CoreMask &dir) override;

  private:
    /** Flush a VTD eviction victim's sharers from their VLBs. */
    void backInvalidate(const Vtd::Evicted &evicted);

    /** Whether @p va is a registered uatg call gate. */
    bool isGate(sim::Addr va) const;

    const sim::MachineConfig &cfg_;
    mem::CoherenceEngine &coherence_;
    VmaTableBase &table_;
    Vtd vtd_;
    std::vector<std::unique_ptr<Vlb>> ivlbs_;
    std::vector<std::unique_ptr<Vlb>> dvlbs_;
    std::vector<UatCsrFile> csrs_;
    std::vector<bool> pbit_;
    std::unordered_set<sim::Addr> gates_;
    stats::Sampler shootdownLatency_;

    probe::Probe *probe_ = nullptr; ///< null when not attached
    int debugSkipShootdownCore_ = -1;

    struct WalkOutcome {
        sim::Cycles latency = 0;
        Fault fault = Fault::None;
        VlbEntry entry;
        unsigned depth = 0; ///< table blocks touched by the walk
    };

    /** VTW traversal on a VLB miss; installs into @p target on success. */
    WalkOutcome vtwWalk(unsigned core, sim::Addr va, PdId pd,
                        Vlb &target);

    UatAccess resolve(unsigned core, sim::Addr va, Perm need, Vlb &vlb);
};

} // namespace jord::uat

#endif // JORD_UAT_UAT_SYSTEM_HH
