/**
 * @file
 * JordSan: an isolation sanitizer for the simulated Jord stack.
 *
 * The Checker maintains an independent shadow model of the isolation
 * state — a shadow VMA table keyed by VA range, the PD ownership map,
 * ArgBuf lifecycle states, and per-core shadow VLB copies stamped with
 * the simulated-time instant each entry was filled — and cross-checks
 * the real system against it at every mutation and access. Three
 * checker families (CheckConfig):
 *
 *  - access: every load/store/fetch is validated against the shadow
 *    permissions for the current PD, catching cross-PD leaks,
 *    use-after-munmap/pmove, ArgBuf use-after-handoff, and P-bit
 *    touches outside uatg entry; PrivLib transfers are validated
 *    against the permissions the source actually holds.
 *  - vlb: a coherence oracle — on every permission downgrade/unmap it
 *    computes which cores hold stale shadow entries and asserts the
 *    VTD shootdown reached exactly that set before any subsequent
 *    access translates through a stale entry (happens-before over
 *    fill/shootdown/use epochs, per core).
 *  - difftable: replays every VMA op into both a plain-list and a
 *    B-tree mirror table and diffs lookup results, so Jord_BT cannot
 *    silently diverge from the paper's design.
 *
 * The checker is pure observer: it never mutates the observed system
 * and never charges latency, so a run with checking enabled is
 * timing-identical to one without.
 */

#ifndef JORD_CHECK_CHECK_HH
#define JORD_CHECK_CHECK_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/config.hh"
#include "probe/probe.hh"
#include "uat/size_class.hh"
#include "uat/vma_table.hh"

namespace jord::trace {
class Tracer;
} // namespace jord::trace

namespace jord::check {

/** What went wrong. */
enum class ViolationKind {
    // access/lifecycle family
    AccessAllowed,   ///< hardware allowed what the shadow model forbids
    AccessDenied,    ///< hardware denied what the shadow model allows
    WrongFault,      ///< denied, but with an implausible fault kind
    IllegalTransfer, ///< pmove/pcopy of a permission src never held
    DoubleMap,       ///< mmap produced an already-live base address
    UnknownVma,      ///< mutation of a base the shadow never saw
    DoublePdCreate,  ///< cget returned a PD id that is already live
    DoublePdDestroy, ///< cput destroyed an already-dead PD
    DeadPdUsed,      ///< ccall/center into a destroyed PD
    PdPermLeak,      ///< PD destroyed while shadow still sees perms
    ArgBufLeak,      ///< ArgBuf still mapped at end of run
    ShadowResidue,   ///< non-root shadow state survives the run
    // vlb family
    MissedShootdown,  ///< a core holding the entry was not targeted
    StaleTranslation, ///< an access translated through a stale entry
    ForgedTranslation,///< a VLB hit with no legitimate fill on record
    RetiredVteFill,   ///< a fill inserted an entry for a dead VMA
    FillPermMismatch, ///< fill's cached perm disagrees with the shadow
    // difftable family
    TableDivergence, ///< plain-list vs B-tree lookup disagreement
};

/** Which family a violation counts against. */
enum class CheckFamily { Access, Vlb, Difftable };

const char *violationKindName(ViolationKind kind);

/** One recorded violation with its diagnostic context. */
struct Violation {
    ViolationKind kind;
    std::string detail;    ///< rendered one-line description
    sim::Addr va = 0;      ///< faulting/affected VA (0 if n/a)
    int sizeClass = -1;    ///< size class of va (-1 if n/a)
    uat::PdId pd = 0;
    sim::Addr vteAddr = 0;
    unsigned core = 0;
    std::uint64_t reqId = 0; ///< owning request (0 if none)
    sim::Tick tick = 0;
    std::string spanStack; ///< trace span stack at detection time
};

/**
 * The JordSan checker. Implements the probe's isolation events and
 * adds the runtime-facing lifecycle calls (ArgBufs, per-core request
 * context, end-of-run quiescence).
 */
class Checker final : public probe::Probe
{
  public:
    explicit Checker(const CheckConfig &cfg,
                     const uat::VaEncoding &encoding = uat::VaEncoding());
    ~Checker() override;

    Checker(const Checker &) = delete;
    Checker &operator=(const Checker &) = delete;

    const CheckConfig &config() const { return cfg_; }

    // --- Wiring ----------------------------------------------------

    /** Bind the simulated clock for fill/violation timestamps. */
    void setClock(std::function<sim::Tick()> clock)
    {
        clock_ = std::move(clock);
    }

    /** Attach a tracer so violations capture the live span stack. */
    void setTracer(trace::Tracer *tracer) { tracer_ = tracer; }

    // --- Runtime lifecycle (called by the Worker / tests) ----------

    /** Current request/span executing on @p core (diagnostics). */
    void setCoreContext(unsigned core, std::uint64_t reqId,
                        std::uint32_t spanId);
    void clearCoreContext(unsigned core);

    /** An ArgBuf VMA entered / left the runtime's custody. */
    void argBufMapped(sim::Addr va, std::uint64_t bytes,
                      std::uint64_t reqId);
    void argBufFreed(sim::Addr va);

    /** End-of-run quiescence check: leaked ArgBufs, live non-root
     * PDs, and shadow VMAs still granting non-root permissions. */
    void onRunEnd();

    // --- Results ---------------------------------------------------

    std::uint64_t totalViolations() const;
    std::uint64_t violations(CheckFamily family) const
    {
        return famCount_[static_cast<unsigned>(family)];
    }

    /** The first violations in detection order (capped). */
    const std::vector<Violation> &log() const { return log_; }

    /** Human-readable report; detailed dump for the first violation. */
    void report(std::ostream &os) const;

    // --- Test support ----------------------------------------------

    /** Run a differential table probe at @p va right now. */
    void difftableProbe(sim::Addr va);

    /** The difftable mirrors (null unless the family is enabled). */
    uat::VmaTableBase *mirrorPlain() { return mirrorPlain_.get(); }
    uat::VmaTableBase *mirrorBtree() { return mirrorBtree_.get(); }

    // --- probe::Probe --------------------------------------------

    void onAccess(unsigned core, sim::Addr va, uat::Perm need,
                  uat::PdId pd, bool corePriv, bool isFetch,
                  bool uatEnabled, uat::Fault actual) override;
    void onVlbFill(unsigned core, bool isInstr,
                   const uat::VlbEntry &entry) override;
    void onVlbUse(unsigned core, bool isInstr, sim::Addr vteAddr,
                  uat::PdId pd) override;
    void onShootdown(sim::Addr vteAddr, unsigned writerCore,
                     const std::vector<unsigned> &targets,
                     sim::Cycles fanout, bool remote,
                     bool pessimistic) override;
    void onBackInvalidate(sim::Addr vteAddr,
                          const std::vector<unsigned> &targets) override;
    void onGateAdded(sim::Addr va) override;
    void onVmaMapped(unsigned core, uat::PdId pd, sim::Addr base,
                     std::uint64_t len, uat::Perm prot,
                     sim::Addr vteAddr, const uat::Vte &vte) override;
    void onVmaUnmapped(unsigned core, sim::Addr base) override;
    void onVmaProtected(unsigned core, uat::PdId pd, sim::Addr base,
                        std::uint64_t newLen, uat::Perm prot,
                        const uat::Vte &vte) override;
    void onPermMoved(unsigned core, sim::Addr base, uat::PdId src,
                     uat::PdId dst, uat::Perm prot,
                     const uat::Vte &vte) override;
    void onPermCopied(unsigned core, sim::Addr base, uat::PdId src,
                      uat::PdId dst, uat::Perm prot,
                      const uat::Vte &vte) override;
    void onPdCreated(uat::PdId pd, uat::PdId creator) override;
    void onPdDestroyed(uat::PdId pd) override;
    void onDomainEnter(unsigned core, uat::PdId pd) override;
    void onDomainExit(unsigned core, uat::PdId pd) override;

  private:
    /** Shadow image of one live VMA. */
    struct ShadowVma {
        std::uint64_t bound = 0;
        bool priv = false;
        bool global = false;
        uat::Perm globalPerm;
        std::map<uat::PdId, uat::Perm> perms;
        sim::Addr vteAddr = 0;
        std::uint64_t reqId = 0; ///< request mapping it (diagnostics)
    };

    /** Shadow copy of one filled VLB entry. */
    struct ShadowVlbEntry {
        uat::VlbEntry entry;
        std::uint64_t fillEpoch = 0;
        sim::Tick fillTick = 0;
        bool stale = false;
    };

    struct ShadowPd {
        bool valid = false;
        uat::PdId creator = 0;
    };

    struct CoreState {
        /** Per-VTE shadow VLB copies; [0] = data, [1] = instr. */
        std::unordered_map<sim::Addr, std::vector<ShadowVlbEntry>>
            vlb[2];
        /** Set by onVlbUse, consumed by the following onAccess. */
        bool pendingHit = false;
        bool pendingHitInstr = false;
        sim::Addr pendingHitVte = 0;
        /** Runtime context for diagnostics. */
        std::uint64_t reqId = 0;
        std::uint32_t spanId = 0;
    };

    const CheckConfig cfg_;
    uat::VaEncoding enc_;
    std::uint64_t epoch_ = 0;

    std::map<sim::Addr, ShadowVma> vmas_;
    std::unordered_map<sim::Addr, sim::Addr> vteToBase_;
    std::vector<ShadowPd> pds_;
    std::unordered_map<sim::Addr, std::uint64_t> gates_;
    std::vector<CoreState> cores_;

    struct ArgBufState {
        std::uint64_t bytes = 0;
        std::uint64_t reqId = 0;
    };
    std::map<sim::Addr, ArgBufState> argBufs_;

    /** Difftable mirrors (allocated only when the family is on). */
    std::unique_ptr<uat::VmaTableBase> mirrorPlain_;
    std::unique_ptr<uat::VmaTableBase> mirrorBtree_;

    std::function<sim::Tick()> clock_;
    trace::Tracer *tracer_ = nullptr;

    std::uint64_t famCount_[3] = {0, 0, 0};
    std::vector<Violation> log_;
    static constexpr std::size_t kMaxLogged = 32;

    CoreState &coreState(unsigned core);

    sim::Tick now() const { return clock_ ? clock_() : 0; }

    /** Effective shadow permission of @p pd on @p vma. */
    static std::optional<uat::Perm> shadowPermFor(const ShadowVma &vma,
                                                  uat::PdId pd);

    /** Find a shadow VLB entry usable for (va, pd); exact-PD entries
     * win over global ones, mirroring Vlb::lookup. */
    ShadowVlbEntry *findShadowVlb(unsigned core, bool isInstr,
                                  sim::Addr vteAddr, uat::PdId pd);

    void checkHitAccess(unsigned core, sim::Addr va, uat::Perm need,
                        uat::PdId pd, bool corePriv, bool isFetch,
                        sim::Addr vteAddr, uat::Fault actual);
    void checkWalkAccess(unsigned core, sim::Addr va, uat::Perm need,
                         uat::PdId pd, bool corePriv, bool isFetch,
                         bool uatEnabled, uat::Fault actual);

    /** Replay a VTE image into both mirrors and diff lookups. */
    void difftableApply(sim::Addr base, const uat::Vte &vte,
                        bool insert);
    void difftableRemove(sim::Addr base);
    void difftableDiff(sim::Addr va);

    void record(ViolationKind kind, unsigned core, sim::Addr va,
                uat::PdId pd, sim::Addr vteAddr, std::string detail);

    std::string renderSpanStack(unsigned core) const;
};

} // namespace jord::check

#endif // JORD_CHECK_CHECK_HH
