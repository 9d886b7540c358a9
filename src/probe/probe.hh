/**
 * @file
 * The probe: the one instrumentation channel of the worker model.
 *
 * CoherenceEngine, UatSystem and PrivLib each hold one `Probe *` that
 * is null unless an observer is attached, and report every event a
 * checker, PMU, profiler or tracer may want through it. The
 * layers do not know which observers exist: the worker attaches
 * runtime::Instruments, which fans each event out to its observers,
 * and the test fixture attaches the JordSan checker directly.
 *
 * Every callback is informational. Implementations must not mutate the
 * observed system and no callback charges latency, so a probed run is
 * timing-identical to an unprobed one. The interface is header-only
 * with no-op defaults so that the model layers depend only on this
 * header, not on any observer's library.
 */

#ifndef JORD_PROBE_PROBE_HH
#define JORD_PROBE_PROBE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "uat/fault.hh"
#include "uat/vlb.hh"
#include "uat/vte.hh"

namespace jord::mem {
struct Access;
} // namespace jord::mem

namespace jord::probe {

/**
 * Observation points of the worker model's hardware and PrivLib.
 */
class Probe
{
  public:
    virtual ~Probe() = default;

    // --- Coherence ----------------------------------------------------

    /**
     * A timed read/write/atomic by @p core finished. @p home is the
     * block's home slice (the core itself for an L1 hit) and @p hops
     * the mesh distance between them.
     */
    virtual void
    onCoherenceAccess(unsigned core, const mem::Access &acc,
                      unsigned home, unsigned hops)
    {
        (void)core; (void)acc; (void)home; (void)hops;
    }

    // --- UAT access path (hardware side) ---------------------------

    /**
     * A timed load/store/fetch finished resolving.
     *
     * @param corePriv the core's P-bit state *before* the access.
     * @param uatEnabled the core's uatp enable bit at access time.
     * @param actual the fault the real hardware raised (None if the
     *        access was permitted).
     */
    virtual void
    onAccess(unsigned core, sim::Addr va, uat::Perm need, uat::PdId pd,
             bool corePriv, bool isFetch, bool uatEnabled,
             uat::Fault actual)
    {
        (void)core; (void)va; (void)need; (void)pd; (void)corePriv;
        (void)isFetch; (void)uatEnabled; (void)actual;
    }

    /** A VTW walk installed @p entry into core's I- or D-VLB. */
    virtual void
    onVlbFill(unsigned core, bool isInstr, const uat::VlbEntry &entry)
    {
        (void)core; (void)isInstr; (void)entry;
    }

    /** An access translated through a cached VLB entry (a hit). */
    virtual void
    onVlbUse(unsigned core, bool isInstr, sim::Addr vteAddr,
             uat::PdId pd)
    {
        (void)core; (void)isInstr; (void)vteAddr; (void)pd;
    }

    /** An access missed core's I- or D-VLB; a VTW walk starts now. */
    virtual void
    onVlbMiss(unsigned core, bool isInstr)
    {
        (void)core; (void)isInstr;
    }

    /**
     * The walk begun by the last onVlbMiss finished after @p latency
     * cycles, having read @p depth table blocks.
     */
    virtual void
    onVtwWalk(unsigned core, sim::Cycles latency, unsigned depth)
    {
        (void)core; (void)latency; (void)depth;
    }

    /** A T-bit read by @p core registered it with the VTD. */
    virtual void onVtdLookup(unsigned core) { (void)core; }

    /**
     * A T-bit write to @p vteAddr consulted the VTD and invalidated
     * the VLBs of @p targets (always including the writing core
     * itself; a local-only refresh reports targets == {writerCore}).
     *
     * @param fanout completion latency of the fan-out, 0 for a write
     *        that hit dirty in the writer's L1 (no latency charged).
     * @param remote the invalidation reached a core other than the
     *        writer.
     * @param pessimistic the VTD had no sharer set for the block, so
     *        the directory's L1 sharers stood in for it.
     */
    virtual void
    onShootdown(sim::Addr vteAddr, unsigned writerCore,
                const std::vector<unsigned> &targets, sim::Cycles fanout,
                bool remote, bool pessimistic)
    {
        (void)vteAddr; (void)writerCore; (void)targets; (void)fanout;
        (void)remote; (void)pessimistic;
    }

    /**
     * A VTD capacity eviction back-invalidated @p targets' VLB copies
     * of @p vteAddr. Unlike a shootdown this carries no semantic
     * change to the translation: untargeted holders stay coherent.
     */
    virtual void
    onBackInvalidate(sim::Addr vteAddr,
                     const std::vector<unsigned> &targets)
    {
        (void)vteAddr; (void)targets;
    }

    /** A uatg call gate was registered at @p va. */
    virtual void onGateAdded(sim::Addr va) { (void)va; }

    // --- PrivLib (software side) -----------------------------------
    //
    // The mutation callbacks fire only on *successful* operations,
    // after the real VMA table was updated; @p vte snapshots the final
    // VTE content so the differential table checker can replay it.

    virtual void
    onVmaMapped(unsigned core, uat::PdId pd, sim::Addr base,
                std::uint64_t len, uat::Perm prot, sim::Addr vteAddr,
                const uat::Vte &vte)
    {
        (void)core; (void)pd; (void)base; (void)len; (void)prot;
        (void)vteAddr; (void)vte;
    }

    virtual void
    onVmaUnmapped(unsigned core, sim::Addr base)
    {
        (void)core; (void)base;
    }

    /** mprotect: resize to @p newLen and set @p pd's perm to @p prot. */
    virtual void
    onVmaProtected(unsigned core, uat::PdId pd, sim::Addr base,
                   std::uint64_t newLen, uat::Perm prot,
                   const uat::Vte &vte)
    {
        (void)core; (void)pd; (void)base; (void)newLen; (void)prot;
        (void)vte;
    }

    /** pmove/pmoveBetween: @p src's permission moved to @p dst. */
    virtual void
    onPermMoved(unsigned core, sim::Addr base, uat::PdId src,
                uat::PdId dst, uat::Perm prot, const uat::Vte &vte)
    {
        (void)core; (void)base; (void)src; (void)dst; (void)prot;
        (void)vte;
    }

    /** pcopy: @p src's permission copied to @p dst. */
    virtual void
    onPermCopied(unsigned core, sim::Addr base, uat::PdId src,
                 uat::PdId dst, uat::Perm prot, const uat::Vte &vte)
    {
        (void)core; (void)base; (void)src; (void)dst; (void)prot;
        (void)vte;
    }

    virtual void
    onPdCreated(uat::PdId pd, uat::PdId creator)
    {
        (void)pd; (void)creator;
    }

    virtual void onPdDestroyed(uat::PdId pd) { (void)pd; }

    /** ccall/center switched @p core into @p pd. */
    virtual void
    onDomainEnter(unsigned core, uat::PdId pd)
    {
        (void)core; (void)pd;
    }

    /** cexit returned @p core to @p pd. */
    virtual void
    onDomainExit(unsigned core, uat::PdId pd)
    {
        (void)core; (void)pd;
    }

    /** @p core waited @p cycles for a shootdown to complete (fence). */
    virtual void
    onFenceWait(unsigned core, sim::Cycles cycles)
    {
        (void)core; (void)cycles;
    }
};

} // namespace jord::probe

#endif // JORD_PROBE_PROBE_HH
