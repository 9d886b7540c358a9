#include "uat/uat_system.hh"

#include <algorithm>

#include "probe/probe.hh"
#include "sim/logging.hh"

namespace jord::uat {

using sim::Addr;
using sim::Cycles;

namespace {

/** Check @p acc, an access of @p va needing @p need, against its
 * translation @p entry, from a core whose privilege bit is
 * @p privileged; on success fill in the physical address. */
inline void
authorize(UatAccess &acc, const VlbEntry &entry, Addr va, Perm need,
          bool privileged)
{
    if (va - entry.base >= entry.bound) {
        // Inside the size-class chunk but past the VMA's bound.
        acc.fault = Fault::OutOfBound;
        return;
    }
    if (entry.pbit && !privileged && !need.covers(Perm(Perm::X))) {
        // Explicit load/store to a privileged VMA from unprivileged code.
        acc.fault = Fault::PrivilegedAccess;
        return;
    }
    if (!entry.perm.covers(need)) {
        acc.fault = Fault::NoPermission;
        return;
    }
    acc.pa = static_cast<Addr>(static_cast<std::int64_t>(va) +
                               entry.offs);
    acc.pbit = entry.pbit;
}

} // namespace

UatSystem::UatSystem(const sim::MachineConfig &cfg,
                     mem::CoherenceEngine &coherence, VmaTableBase &table)
    : cfg_(cfg),
      coherence_(coherence),
      table_(table),
      vtd_(cfg, coherence.mesh()),
      csrs_(cfg.numCores),
      pbit_(cfg.numCores, false)
{
    ivlbs_.reserve(cfg.numCores);
    dvlbs_.reserve(cfg.numCores);
    for (unsigned core = 0; core < cfg.numCores; ++core) {
        ivlbs_.push_back(std::make_unique<Vlb>(cfg.ivlbEntries));
        dvlbs_.push_back(std::make_unique<Vlb>(cfg.dvlbEntries));
        csrs_[core].setUatp(table.baseAddr(), true);
    }
    coherence.setTranslationObserver(this);
}

UatSystem::~UatSystem()
{
    coherence_.setTranslationObserver(nullptr);
}

UatSystem::WalkOutcome
UatSystem::vtwWalk(unsigned core, Addr va, PdId pd, Vlb &target)
{
    WalkOutcome out;
    out.latency = kVtwOverheadCycles;

    TableWalk walk = table_.walk(va);
    out.depth = static_cast<unsigned>(walk.readAddrs.size());
    for (Addr block : walk.readAddrs)
        out.latency += coherence_.read(core, block, true).latency;

    if (!walk.vte || !walk.vte->valid()) {
        out.fault = walk.vteAddr == 0 && walk.readAddrs.empty()
                        ? Fault::NotUatVa
                        : Fault::NotMapped;
        return out;
    }

    const Vte &vte = *walk.vte;
    auto perm = table_.permFor(vte, pd);
    if (!perm) {
        out.fault = Fault::NoPermission;
        return out;
    }

    out.entry.vteAddr = walk.vteAddr;
    out.entry.base = walk.vmaBase;
    out.entry.bound = vte.bound;
    out.entry.offs = vte.offs();
    out.entry.perm = *perm;
    out.entry.pbit = vte.privileged();
    out.entry.global = vte.global();
    out.entry.pd = pd;
    target.insert(out.entry);
    if (probe_)
        probe_->onVlbFill(core, &target == ivlbs_[core].get(),
                          out.entry);
    return out;
}

UatAccess
UatSystem::resolve(unsigned core, Addr va, Perm need, Vlb &vlb)
{
    UatAccess acc;
    const UatCsrFile &csr = csrs_[core];
    if (!csr.enabled() || !VaEncoding::inUatRegion(va)) {
        acc.fault = Fault::NotUatVa;
        return acc;
    }

    PdId pd = csr.ucid;
    bool is_ivlb = &vlb == ivlbs_[core].get();
    if (const VlbEntry *hit = vlb.lookup(va, pd)) {
        acc.vlbHit = true;
        // VLB probe overlaps the L1 access: no extra latency.
        if (probe_)
            probe_->onVlbUse(core, is_ivlb, hit->vteAddr, pd);
        authorize(acc, *hit, va, need, pbit_[core]);
        return acc;
    }
    if (probe_)
        probe_->onVlbMiss(core, is_ivlb);
    WalkOutcome walk = vtwWalk(core, va, pd, vlb);
    acc.latency += walk.latency;
    if (probe_)
        probe_->onVtwWalk(core, walk.latency, walk.depth);
    if (walk.fault != Fault::None) {
        acc.fault = walk.fault;
        return acc;
    }
    authorize(acc, walk.entry, va, need, pbit_[core]);
    return acc;
}

UatAccess
UatSystem::dataAccess(unsigned core, Addr va, Perm need)
{
    UatAccess acc = resolve(core, va, need, *dvlbs_[core]);
    if (probe_)
        probe_->onAccess(core, va, need, csrs_[core].ucid, pbit_[core],
                         false, csrs_[core].enabled(), acc.fault);
    return acc;
}

UatAccess
UatSystem::fetch(unsigned core, Addr va)
{
    bool was_priv = pbit_[core];
    UatAccess acc = resolve(core, va, Perm(Perm::X), *ivlbs_[core]);
    if (acc.ok()) {
        if (!was_priv && acc.pbit && !isGate(va)) {
            // 0 -> 1 transition of the P bit must land on a uatg gate.
            acc.fault = Fault::BadGate;
        } else {
            pbit_[core] = acc.pbit;
        }
    }
    if (probe_)
        probe_->onAccess(core, va, Perm(Perm::X), csrs_[core].ucid,
                         was_priv, true, csrs_[core].enabled(),
                         acc.fault);
    return acc;
}

void
UatSystem::addGate(Addr va)
{
    gates_.insert(va);
    if (probe_)
        probe_->onGateAdded(va);
}

bool
UatSystem::isGate(Addr va) const
{
    return gates_.count(va) != 0;
}

Fault
UatSystem::writeCsr(unsigned core, UatCsr which, std::uint64_t value)
{
    if (!pbit_[core])
        return Fault::IllegalCsr;
    switch (which) {
      case UatCsr::Uatp:
        csrs_[core].uatp = value;
        break;
      case UatCsr::Uatc:
        csrs_[core].uatc = value;
        break;
      case UatCsr::Ucid:
        if (value > kMaxPdId)
            return Fault::IllegalCsr;
        csrs_[core].ucid = static_cast<PdId>(value);
        break;
    }
    return Fault::None;
}

Fault
UatSystem::readCsr(unsigned core, UatCsr which, std::uint64_t &value) const
{
    if (!pbit_[core])
        return Fault::IllegalCsr;
    switch (which) {
      case UatCsr::Uatp:
        value = csrs_[core].uatp;
        break;
      case UatCsr::Uatc:
        value = csrs_[core].uatc;
        break;
      case UatCsr::Ucid:
        value = csrs_[core].ucid;
        break;
    }
    return Fault::None;
}

Cycles
UatSystem::vteRead(unsigned core, Addr vte_addr)
{
    return coherence_.read(core, vte_addr, true).latency;
}

Cycles
UatSystem::vteWrite(unsigned core, Addr vte_addr)
{
    return coherence_.write(core, vte_addr, true).latency;
}

// --- TranslationObserver ------------------------------------------------

void
UatSystem::translationRead(unsigned core, Addr addr)
{
    if (probe_)
        probe_->onVtdLookup(core);
    if (auto evicted = vtd_.addSharer(addr, core))
        backInvalidate(*evicted);
}

Cycles
UatSystem::translationWrite(unsigned core, Addr addr,
                            const mem::CoreMask &dir)
{
    vtd_.mutableStats().writes++;
    // Fan out to the union of both sharer trackers: the VTD covers
    // cores whose VTE block left their L1 after the fill, the
    // coherence directory covers cores whose fill hit in their own L1
    // and therefore never registered with the VTD. Either alone can
    // miss a live VLB holder.
    mem::CoreMask targets = dir;
    bool pessimistic = false;
    if (auto tracked = vtd_.remove(addr)) {
        targets |= *tracked;
    } else {
        vtd_.mutableStats().pessimistic++;
        pessimistic = true;
    }

    unsigned home = coherence_.mesh().homeSlice(addr, core);
    Cycles full_worst = 0; // total shootdown completion time
    std::vector<unsigned> notified;
    targets.forEach([&](unsigned sharer) {
        if (static_cast<int>(sharer) == debugSkipShootdownCore_)
            return; // negative-test knob: drop this fan-out leg
        ivlbs_[sharer]->invalidateVte(addr);
        dvlbs_[sharer]->invalidateVte(addr);
        if (probe_)
            notified.push_back(sharer);
        if (sharer == core)
            return;
        Cycles rt = coherence_.mesh().roundTrip(home, sharer,
                                                noc::MsgKind::Control);
        full_worst = std::max(full_worst, rt);
    });
    // The writer's own VLBs are refreshed locally as well.
    if (static_cast<int>(core) != debugSkipShootdownCore_) {
        ivlbs_[core]->invalidateVte(addr);
        dvlbs_[core]->invalidateVte(addr);
        if (probe_ && std::find(notified.begin(), notified.end(),
                                core) == notified.end())
            notified.push_back(core);
    }

    // The invalidation fan-out proceeds in hardware, parallel to the
    // writer (§4.2/§6.3: the shootdown completes when the furthest core
    // acks, but the writing core's store completes at the home). Code
    // that must observe completion (e.g. munmap before memory reuse)
    // issues an explicit fence; the fan-out latency itself is what
    // Fig. 14's "VLB shootdown" series reports. Writer-local refreshes
    // are not shootdowns and are not sampled.
    if (full_worst > 0)
        shootdownLatency_.record(
            sim::cyclesToNs(full_worst, cfg_.freqGhz));
    if (probe_)
        probe_->onShootdown(addr, core, notified, full_worst,
                            full_worst > 0, pessimistic);
    return 0;
}

void
UatSystem::translationWriteLocal(unsigned core, Addr addr)
{
    // Dirty hit in the writer's L1. Exclusive block ownership does NOT
    // imply no remote VLB holders: a non-T write to the same VTE (a
    // pcopy permission grant) acquires exclusivity without flushing
    // anyone's VLB. The VTD still tracks every fill, so consult it and
    // fan out to any remote sharers; only a genuinely private
    // translation takes the cheap local-only path.
    vtd_.mutableStats().writes++;
    bool remote_fanout = false;
    std::vector<unsigned> notified;
    if (auto tracked = vtd_.remove(addr)) {
        tracked->forEach([&](unsigned sharer) {
            if (static_cast<int>(sharer) == debugSkipShootdownCore_)
                return;
            ivlbs_[sharer]->invalidateVte(addr);
            dvlbs_[sharer]->invalidateVte(addr);
            if (sharer != core)
                remote_fanout = true;
            if (probe_)
                notified.push_back(sharer);
        });
    }
    if (static_cast<int>(core) != debugSkipShootdownCore_) {
        ivlbs_[core]->invalidateVte(addr);
        dvlbs_[core]->invalidateVte(addr);
        if (probe_ && std::find(notified.begin(), notified.end(),
                                core) == notified.end())
            notified.push_back(core);
    }
    if (probe_)
        probe_->onShootdown(addr, core, notified, 0, remote_fanout,
                            false);
}

void
UatSystem::directoryEvict(Addr addr, const mem::CoreMask &dir)
{
    if (auto evicted = vtd_.installPessimistic(addr, dir))
        backInvalidate(*evicted);
}

void
UatSystem::backInvalidate(const Vtd::Evicted &evicted)
{
    // A VTD capacity eviction loses the victim translation's sharer
    // list; flush those cores' VLB copies eagerly so no holder survives
    // untracked (inclusive-directory back-invalidation). The fan-out
    // runs in hardware off the critical path; no latency is charged.
    std::vector<unsigned> flushed;
    evicted.sharers.forEach([&](unsigned sharer) {
        ivlbs_[sharer]->invalidateVte(evicted.tag);
        dvlbs_[sharer]->invalidateVte(evicted.tag);
        if (probe_)
            flushed.push_back(sharer);
    });
    if (probe_)
        probe_->onBackInvalidate(evicted.tag, flushed);
}

} // namespace jord::uat
