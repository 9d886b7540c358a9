#include "check/check.hh"

#include <algorithm>
#include <sstream>

#include "trace/metrics.hh"
#include "trace/trace.hh"
#include "uat/btree_table.hh"

namespace jord::check {

using sim::Addr;
using uat::Fault;
using uat::PdId;
using uat::Perm;
using uat::Vte;

bool
CheckConfig::parse(const std::string &spec, CheckConfig &out)
{
    if (spec.empty()) {
        out = CheckConfig::all();
        return true;
    }
    out = CheckConfig{};
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        std::size_t comma = spec.find(',', pos);
        std::string family = spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (family == "access") {
            out.access = true;
        } else if (family == "vlb") {
            out.vlb = true;
        } else if (family == "difftable") {
            out.difftable = true;
        } else {
            return false;
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out.any();
}

const char *
violationKindName(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::AccessAllowed: return "access-allowed";
      case ViolationKind::AccessDenied: return "access-denied";
      case ViolationKind::WrongFault: return "wrong-fault";
      case ViolationKind::IllegalTransfer: return "illegal-transfer";
      case ViolationKind::DoubleMap: return "double-map";
      case ViolationKind::UnknownVma: return "unknown-vma";
      case ViolationKind::DoublePdCreate: return "double-pd-create";
      case ViolationKind::DoublePdDestroy: return "double-pd-destroy";
      case ViolationKind::DeadPdUsed: return "dead-pd-used";
      case ViolationKind::PdPermLeak: return "pd-perm-leak";
      case ViolationKind::ArgBufLeak: return "argbuf-leak";
      case ViolationKind::ShadowResidue: return "shadow-residue";
      case ViolationKind::MissedShootdown: return "missed-shootdown";
      case ViolationKind::StaleTranslation: return "stale-translation";
      case ViolationKind::ForgedTranslation:
        return "forged-translation";
      case ViolationKind::RetiredVteFill: return "retired-vte-fill";
      case ViolationKind::FillPermMismatch:
        return "fill-perm-mismatch";
      case ViolationKind::TableDivergence: return "table-divergence";
    }
    return "unknown";
}

namespace {

/** Which family a violation counts against. */
CheckFamily
violationFamily(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::MissedShootdown:
      case ViolationKind::StaleTranslation:
      case ViolationKind::ForgedTranslation:
      case ViolationKind::RetiredVteFill:
      case ViolationKind::FillPermMismatch:
        return CheckFamily::Vlb;
      case ViolationKind::TableDivergence:
        return CheckFamily::Difftable;
      default:
        return CheckFamily::Access;
    }
}

std::string
permName(Perm perm)
{
    std::string out;
    out += perm.covers(Perm::r()) ? 'r' : '-';
    out += perm.covers(Perm(Perm::W)) ? 'w' : '-';
    out += perm.covers(Perm(Perm::X)) ? 'x' : '-';
    return out;
}

} // namespace

Checker::Checker(const CheckConfig &cfg, const uat::VaEncoding &encoding)
    : cfg_(cfg), enc_(encoding), pds_(uat::kMaxPdId + 1)
{
    // The root PD exists before any hook fires (PrivLib bootstrap
    // observes it as already-live).
    pds_[0].valid = true;
    if (cfg_.difftable) {
        mirrorPlain_ = std::make_unique<uat::PlainListVmaTable>(enc_);
        mirrorBtree_ = std::make_unique<uat::BTreeVmaTable>(enc_);
    }
}

Checker::~Checker() = default;

void
Checker::attachMetrics(trace::MetricsRegistry &registry,
                       const std::string &prefix)
{
    famCounter_[0] =
        &registry.counter(prefix + "check.violations.access");
    famCounter_[1] = &registry.counter(prefix + "check.violations.vlb");
    famCounter_[2] =
        &registry.counter(prefix + "check.violations.difftable");
    // Surface any violations recorded before attachment.
    for (unsigned fam = 0; fam < 3; ++fam)
        famCounter_[fam]->add(famCount_[fam]);
}

Checker::CoreState &
Checker::coreState(unsigned core)
{
    if (core >= cores_.size())
        cores_.resize(core + 1);
    return cores_[core];
}

std::uint64_t
Checker::totalViolations() const
{
    return famCount_[0] + famCount_[1] + famCount_[2];
}

std::optional<Perm>
Checker::shadowPermFor(const ShadowVma &vma, PdId pd)
{
    if (vma.global)
        return vma.globalPerm;
    auto it = vma.perms.find(pd);
    if (it == vma.perms.end())
        return std::nullopt;
    return it->second;
}

std::string
Checker::renderSpanStack(unsigned core) const
{
    if (!tracer_ || core >= cores_.size())
        return "";
    std::uint32_t span = cores_[core].spanId;
    const auto &spans = tracer_->spans();
    std::vector<std::string> names;
    while (span != 0 && span <= spans.size() && names.size() < 16) {
        const trace::SpanRecord &rec = spans[span - 1];
        names.push_back(tracer_->spanName(rec));
        span = rec.parent;
    }
    std::string out;
    for (auto it = names.rbegin(); it != names.rend(); ++it) {
        if (!out.empty())
            out += " > ";
        out += *it;
    }
    return out;
}

void
Checker::record(ViolationKind kind, unsigned core, Addr va, PdId pd,
                Addr vteAddr, std::string detail)
{
    unsigned fam = static_cast<unsigned>(violationFamily(kind));
    ++famCount_[fam];
    if (famCounter_[fam])
        famCounter_[fam]->add();
    if (log_.size() >= kMaxLogged)
        return;
    Violation v;
    v.kind = kind;
    v.detail = std::move(detail);
    v.va = va;
    if (va != 0) {
        if (auto decoded = enc_.decode(va))
            v.sizeClass = static_cast<int>(decoded->sizeClass);
    }
    v.pd = pd;
    v.vteAddr = vteAddr;
    v.core = core;
    if (core < cores_.size())
        v.reqId = cores_[core].reqId;
    v.tick = now();
    v.spanStack = renderSpanStack(core);
    log_.push_back(std::move(v));
}

void
Checker::report(std::ostream &os) const
{
    os << "JordSan: " << totalViolations() << " violation(s)"
       << " (access " << famCount_[0] << ", vlb " << famCount_[1]
       << ", difftable " << famCount_[2] << ")\n";
    if (log_.empty())
        return;
    const Violation &first = log_.front();
    os << "first violation: " << violationKindName(first.kind) << "\n"
       << "  detail:     " << first.detail << "\n"
       << "  va:         0x" << std::hex << first.va << std::dec;
    if (first.sizeClass >= 0)
        os << " (size class " << first.sizeClass << ", "
           << uat::VaEncoding::classSize(
                  static_cast<unsigned>(first.sizeClass))
           << " B chunk)";
    os << "\n"
       << "  pd:         " << first.pd << "\n"
       << "  vte:        0x" << std::hex << first.vteAddr << std::dec
       << "\n"
       << "  core:       " << first.core << "\n"
       << "  request:    " << first.reqId << "\n"
       << "  tick:       " << first.tick << "\n";
    if (!first.spanStack.empty())
        os << "  span stack: " << first.spanStack << "\n";
    for (std::size_t i = 1; i < log_.size(); ++i) {
        const Violation &v = log_[i];
        os << "  [" << i << "] " << violationKindName(v.kind) << " "
           << v.detail << "\n";
    }
    if (totalViolations() > log_.size())
        os << "  ... " << (totalViolations() - log_.size())
           << " more suppressed\n";
}

// --- Runtime lifecycle ---------------------------------------------------

void
Checker::setCoreContext(unsigned core, std::uint64_t reqId,
                        std::uint32_t spanId)
{
    CoreState &cs = coreState(core);
    cs.reqId = reqId;
    cs.spanId = spanId;
}

void
Checker::clearCoreContext(unsigned core)
{
    CoreState &cs = coreState(core);
    cs.reqId = 0;
    cs.spanId = 0;
}

void
Checker::argBufMapped(Addr va, std::uint64_t bytes, std::uint64_t reqId)
{
    argBufs_[va] = ArgBufState{bytes, reqId};
    auto it = vmas_.find(va);
    if (it != vmas_.end())
        it->second.reqId = reqId;
}

void
Checker::argBufFreed(Addr va)
{
    argBufs_.erase(va);
}

void
Checker::onRunEnd()
{
    if (!cfg_.access)
        return;
    for (const auto &[va, buf] : argBufs_) {
        std::ostringstream ss;
        ss << "ArgBuf 0x" << std::hex << va << std::dec << " ("
           << buf.bytes << " B, request " << buf.reqId
           << ") still mapped at end of run";
        record(ViolationKind::ArgBufLeak, 0, va, 0, 0, ss.str());
        if (!log_.empty() && log_.back().kind ==
                ViolationKind::ArgBufLeak && log_.back().va == va)
            log_.back().reqId = buf.reqId;
    }
    for (PdId pd = 1; pd <= uat::kMaxPdId; ++pd) {
        if (pds_[pd].valid) {
            std::ostringstream ss;
            ss << "PD " << pd << " (creator " << pds_[pd].creator
               << ") still live at end of run";
            record(ViolationKind::ShadowResidue, 0, 0, pd, 0,
                   ss.str());
        }
    }
    for (const auto &[base, vma] : vmas_) {
        for (const auto &[pd, perm] : vma.perms) {
            if (pd == 0)
                continue;
            std::ostringstream ss;
            ss << "VMA 0x" << std::hex << base << std::dec
               << " still grants " << permName(perm) << " to PD " << pd
               << " at end of run";
            record(ViolationKind::ShadowResidue, 0, base, pd,
                   vma.vteAddr, ss.str());
        }
    }
}

// --- Access family -------------------------------------------------------

Checker::ShadowVlbEntry *
Checker::findShadowVlb(unsigned core, bool isInstr, Addr vteAddr,
                       PdId pd)
{
    CoreState &cs = coreState(core);
    auto it = cs.vlb[isInstr ? 1 : 0].find(vteAddr);
    if (it == cs.vlb[isInstr ? 1 : 0].end())
        return nullptr;
    ShadowVlbEntry *global = nullptr;
    for (ShadowVlbEntry &sv : it->second) {
        if (sv.entry.pd == pd)
            return &sv;
        if (sv.entry.global)
            global = &sv;
    }
    return global;
}

void
Checker::checkHitAccess(unsigned core, Addr va, Perm need, PdId pd,
                        bool corePriv, bool isFetch, Addr vteAddr,
                        Fault actual)
{
    // The access translated through a cached VLB entry; mirror the
    // post-hit checks of UatSystem::resolve against the shadow copy of
    // that entry (the cached image may legitimately lag the table,
    // e.g. after a shootdown-free pcopy).
    ShadowVlbEntry *sv = findShadowVlb(core, isFetch, vteAddr, pd);
    if (!sv) {
        // onVlbUse already reported the forged translation.
        return;
    }
    const uat::VlbEntry &entry = sv->entry;
    bool in_bound = va - entry.base < entry.bound;
    bool priv_ok = !(entry.pbit && !corePriv &&
                     !need.covers(Perm(Perm::X)));
    bool perm_ok = entry.perm.covers(need);
    bool gate_ok = !isFetch || !entry.pbit || corePriv ||
                   gates_.count(va) != 0;
    bool expect = in_bound && priv_ok && perm_ok && gate_ok;
    bool allowed = actual == Fault::None;
    if (allowed == expect) {
        if (allowed)
            return;
        bool plausible =
            (!in_bound && actual == Fault::OutOfBound) ||
            (!priv_ok && actual == Fault::PrivilegedAccess) ||
            (!perm_ok && actual == Fault::NoPermission) ||
            (!gate_ok && actual == Fault::BadGate);
        if (!plausible) {
            std::ostringstream ss;
            ss << "VLB-hit " << (isFetch ? "fetch" : "access")
               << " denied with " << faultName(actual)
               << " but the shadow entry implies a different fault";
            record(ViolationKind::WrongFault, core, va, pd, vteAddr,
                   ss.str());
        }
        return;
    }
    std::ostringstream ss;
    ss << (isFetch ? "fetch" : "access") << " of 0x" << std::hex << va
       << std::dec << " (" << permName(need) << ") by PD " << pd
       << " on core " << core << " via cached translation: hardware "
       << (allowed ? "allowed" : "denied") << " it, shadow VLB entry ["
       << "base 0x" << std::hex << entry.base << std::dec << ", bound "
       << entry.bound << ", perm " << permName(entry.perm)
       << (entry.global ? ", global" : "")
       << (entry.pbit ? ", priv" : "") << "] says "
       << (expect ? "allow" : "deny");
    record(allowed ? ViolationKind::AccessAllowed
                   : ViolationKind::AccessDenied,
           core, va, pd, vteAddr, ss.str());
}

void
Checker::checkWalkAccess(unsigned core, Addr va, Perm need, PdId pd,
                         bool corePriv, bool isFetch, bool uatEnabled,
                         Fault actual)
{
    bool allowed = actual == Fault::None;

    if (!uatEnabled || !uat::VaEncoding::inUatRegion(va)) {
        if (allowed || actual != Fault::NotUatVa) {
            std::ostringstream ss;
            ss << (isFetch ? "fetch" : "access") << " of non-UAT VA 0x"
               << std::hex << va << std::dec << " resolved to "
               << faultName(actual) << " instead of not-uat-va";
            record(allowed ? ViolationKind::AccessAllowed
                           : ViolationKind::WrongFault,
                   core, va, pd, 0, ss.str());
        }
        return;
    }

    auto base = enc_.vmaBase(va);
    auto it = base ? vmas_.find(*base) : vmas_.end();
    if (it == vmas_.end()) {
        if (allowed) {
            std::ostringstream ss;
            ss << (isFetch ? "fetch" : "access") << " of 0x" << std::hex
               << va << std::dec << " by PD " << pd << " on core "
               << core << " allowed, but no shadow VMA covers it"
               << " (use-after-munmap or cross-PD leak)";
            record(ViolationKind::AccessAllowed, core, va, pd, 0,
                   ss.str());
        } else if (actual != Fault::NotMapped &&
                   actual != Fault::NotUatVa &&
                   actual != Fault::NoPermission) {
            std::ostringstream ss;
            ss << "unmapped VA 0x" << std::hex << va << std::dec
               << " resolved to " << faultName(actual);
            record(ViolationKind::WrongFault, core, va, pd, 0,
                   ss.str());
        }
        return;
    }

    const ShadowVma &vma = it->second;
    auto perm = shadowPermFor(vma, pd);
    bool in_bound = va - it->first < vma.bound;
    bool priv_ok = !(vma.priv && !corePriv &&
                     !need.covers(Perm(Perm::X)));
    bool perm_ok = perm && perm->covers(need);
    bool gate_ok = !isFetch || !vma.priv || corePriv ||
                   gates_.count(va) != 0;
    bool expect = in_bound && priv_ok && perm_ok && gate_ok;

    if (allowed == expect) {
        if (allowed)
            return;
        bool plausible =
            (!in_bound && actual == Fault::OutOfBound) ||
            (!priv_ok && actual == Fault::PrivilegedAccess) ||
            (!perm_ok && actual == Fault::NoPermission) ||
            (!gate_ok && actual == Fault::BadGate);
        if (!plausible) {
            std::ostringstream ss;
            ss << (isFetch ? "fetch" : "access") << " of 0x" << std::hex
               << va << std::dec << " denied with " << faultName(actual)
               << " but the shadow model implies a different fault";
            record(ViolationKind::WrongFault, core, va, pd,
                   vma.vteAddr, ss.str());
        }
        return;
    }

    std::ostringstream ss;
    ss << (isFetch ? "fetch" : "access") << " of 0x" << std::hex << va
       << std::dec << " (" << permName(need) << ") by PD " << pd
       << " on core " << core << ": hardware "
       << (allowed ? "allowed" : "denied") << " it, shadow VMA [bound "
       << vma.bound << ", " << (vma.global ? "global " : "")
       << (vma.priv ? "priv " : "") << "perm "
       << (perm ? permName(*perm) : std::string("none")) << "] says "
       << (expect ? "allow" : "deny") << " (" << faultName(actual)
       << ")";
    record(allowed ? ViolationKind::AccessAllowed
                   : ViolationKind::AccessDenied,
           core, va, pd, vma.vteAddr, ss.str());
}

void
Checker::onAccess(unsigned core, Addr va, Perm need, PdId pd,
                  bool corePriv, bool isFetch, bool uatEnabled,
                  Fault actual)
{
    ++epoch_;
    CoreState &cs = coreState(core);
    bool hit = cs.pendingHit && cs.pendingHitInstr == isFetch;
    Addr hitVte = cs.pendingHitVte;
    cs.pendingHit = false;
    if (!cfg_.access)
        return;
    if (hit)
        checkHitAccess(core, va, need, pd, corePriv, isFetch, hitVte,
                       actual);
    else
        checkWalkAccess(core, va, need, pd, corePriv, isFetch,
                        uatEnabled, actual);
}

// --- VLB-coherence oracle ------------------------------------------------

void
Checker::onVlbFill(unsigned core, bool isInstr,
                   const uat::VlbEntry &entry)
{
    ++epoch_;
    CoreState &cs = coreState(core);
    cs.pendingHit = false;

    auto vb = vteToBase_.find(entry.vteAddr);
    const ShadowVma *vma = nullptr;
    if (vb != vteToBase_.end()) {
        auto it = vmas_.find(vb->second);
        if (it != vmas_.end())
            vma = &it->second;
    }
    if (cfg_.vlb && !vma) {
        std::ostringstream ss;
        ss << (isInstr ? "I" : "D") << "-VLB fill on core " << core
           << " installs VTE 0x" << std::hex << entry.vteAddr
           << std::dec << " (base 0x" << std::hex << entry.base
           << std::dec << ") whose VMA is retired in the shadow model";
        record(ViolationKind::RetiredVteFill, core, entry.base,
               entry.pd, entry.vteAddr, ss.str());
    }
    if (cfg_.vlb && vma) {
        auto perm = shadowPermFor(*vma, entry.pd);
        if (!perm || !(*perm == entry.perm)) {
            std::ostringstream ss;
            ss << (isInstr ? "I" : "D") << "-VLB fill on core " << core
               << " caches perm " << permName(entry.perm) << " for PD "
               << entry.pd << " on VMA 0x" << std::hex << entry.base
               << std::dec << " but the shadow table grants "
               << (perm ? permName(*perm) : std::string("none"));
            record(ViolationKind::FillPermMismatch, core, entry.base,
                   entry.pd, entry.vteAddr, ss.str());
        }
    }

    auto &vec = cs.vlb[isInstr ? 1 : 0][entry.vteAddr];
    ShadowVlbEntry sv;
    sv.entry = entry;
    sv.fillEpoch = epoch_;
    sv.fillTick = now();
    // Mirror the (fixed) in-place replace rule of Vlb::insert: a new
    // fill supersedes any cached entry for the same VTE that the same
    // lookup could return.
    auto same = std::find_if(
        vec.begin(), vec.end(), [&](const ShadowVlbEntry &old) {
            return old.entry.global || entry.global ||
                   old.entry.pd == entry.pd;
        });
    if (same != vec.end())
        *same = sv;
    else
        vec.push_back(sv);
}

void
Checker::onVlbUse(unsigned core, bool isInstr, Addr vteAddr, PdId pd)
{
    ++epoch_;
    CoreState &cs = coreState(core);
    cs.pendingHit = true;
    cs.pendingHitInstr = isInstr;
    cs.pendingHitVte = vteAddr;
    if (!cfg_.vlb)
        return;
    ShadowVlbEntry *sv = findShadowVlb(core, isInstr, vteAddr, pd);
    if (!sv) {
        std::ostringstream ss;
        ss << (isInstr ? "I" : "D") << "-VLB hit on core " << core
           << " for VTE 0x" << std::hex << vteAddr << std::dec
           << " under PD " << pd
           << " with no legitimate fill on record";
        record(ViolationKind::ForgedTranslation, core, 0, pd, vteAddr,
               ss.str());
        return;
    }
    if (sv->stale) {
        std::ostringstream ss;
        ss << (isInstr ? "I" : "D") << "-VLB hit on core " << core
           << " translates through a stale entry for VTE 0x"
           << std::hex << vteAddr << std::dec << " (base 0x"
           << std::hex << sv->entry.base << std::dec
           << ", filled at tick " << sv->fillTick
           << ") after its shootdown missed this core";
        record(ViolationKind::StaleTranslation, core, sv->entry.base,
               pd, vteAddr, ss.str());
    }
}

void
Checker::onShootdown(Addr vteAddr, unsigned writerCore,
                     const std::vector<unsigned> &targets,
                     sim::Cycles /* fanout */, bool /* remote */,
                     bool /* pessimistic */)
{
    ++epoch_;
    coreState(writerCore); // the writer is always known
    for (unsigned core = 0; core < cores_.size(); ++core) {
        CoreState &cs = cores_[core];
        bool targeted = std::find(targets.begin(), targets.end(),
                                  core) != targets.end();
        for (auto &map : cs.vlb) {
            auto it = map.find(vteAddr);
            if (it == map.end())
                continue;
            if (targeted) {
                map.erase(it);
                continue;
            }
            // Every T-bit VTE write — local refreshes included —
            // reports its true fan-out set (the VTD is consulted even
            // on dirty hits), so a fresh holder outside the target set
            // is always a missed shootdown and is reported eagerly.
            if (cfg_.vlb) {
                bool fresh = std::any_of(
                    it->second.begin(), it->second.end(),
                    [](const ShadowVlbEntry &sv) { return !sv.stale; });
                if (fresh) {
                    std::ostringstream ss;
                    ss << "shootdown of VTE 0x" << std::hex << vteAddr
                       << std::dec << " by core " << writerCore
                       << " reached " << targets.size()
                       << " core(s) but missed core " << core
                       << ", which holds a live shadow copy";
                    record(ViolationKind::MissedShootdown, core, 0, 0,
                           vteAddr, ss.str());
                }
            }
            for (ShadowVlbEntry &sv : it->second)
                sv.stale = true;
        }
    }
}

void
Checker::onBackInvalidate(Addr vteAddr,
                          const std::vector<unsigned> &targets)
{
    // Capacity housekeeping, not a semantic change: drop the targeted
    // cores' shadow copies and leave everyone else's coherent.
    ++epoch_;
    for (unsigned core : targets) {
        CoreState &cs = coreState(core);
        for (auto &map : cs.vlb)
            map.erase(vteAddr);
        if (cs.pendingHitVte == vteAddr)
            cs.pendingHit = false;
    }
}

void
Checker::onGateAdded(Addr va)
{
    ++epoch_;
    gates_[va] = epoch_;
}

// --- PrivLib mutations ---------------------------------------------------

void
Checker::onVmaMapped(unsigned core, PdId pd, Addr base,
                     std::uint64_t len, Perm prot, Addr vteAddr,
                     const Vte &vte)
{
    ++epoch_;
    if (cfg_.access && vmas_.count(base)) {
        std::ostringstream ss;
        ss << "mmap returned base 0x" << std::hex << base << std::dec
           << " which the shadow model already has live";
        record(ViolationKind::DoubleMap, core, base, pd, vteAddr,
               ss.str());
    }
    ShadowVma vma;
    vma.bound = len;
    vma.priv = vte.privileged();
    vma.global = vte.global();
    vma.globalPerm = vte.globalPerm();
    if (!vma.global)
        vma.perms[pd] = prot;
    vma.vteAddr = vteAddr;
    vma.reqId = core < cores_.size() ? cores_[core].reqId : 0;
    vmas_[base] = std::move(vma);
    vteToBase_[vteAddr] = base;
    if (cfg_.difftable)
        difftableApply(base, vte, true);
}

void
Checker::onVmaUnmapped(unsigned core, Addr base)
{
    ++epoch_;
    auto it = vmas_.find(base);
    if (it == vmas_.end()) {
        if (cfg_.access) {
            std::ostringstream ss;
            ss << "munmap of base 0x" << std::hex << base << std::dec
               << " which the shadow model does not have live";
            record(ViolationKind::UnknownVma, core, base, 0, 0,
                   ss.str());
        }
        return;
    }
    vteToBase_.erase(it->second.vteAddr);
    vmas_.erase(it);
    if (cfg_.difftable)
        difftableRemove(base);
}

void
Checker::onVmaProtected(unsigned core, PdId pd, Addr base,
                        std::uint64_t newLen, Perm prot,
                        const Vte &vte)
{
    ++epoch_;
    auto it = vmas_.find(base);
    if (it == vmas_.end()) {
        if (cfg_.access) {
            std::ostringstream ss;
            ss << "mprotect of base 0x" << std::hex << base << std::dec
               << " which the shadow model does not have live";
            record(ViolationKind::UnknownVma, core, base, pd, 0,
                   ss.str());
        }
        return;
    }
    ShadowVma &vma = it->second;
    vma.bound = newLen;
    if (vma.global)
        vma.globalPerm = prot;
    else if (vma.perms.count(pd))
        vma.perms[pd] = prot;
    if (cfg_.difftable)
        difftableApply(base, vte, false);
}

void
Checker::onPermMoved(unsigned core, Addr base, PdId src, PdId dst,
                     Perm prot, const Vte &vte)
{
    ++epoch_;
    auto it = vmas_.find(base);
    if (it == vmas_.end()) {
        if (cfg_.access) {
            std::ostringstream ss;
            ss << "pmove on base 0x" << std::hex << base << std::dec
               << " which the shadow model does not have live";
            record(ViolationKind::UnknownVma, core, base, src, 0,
                   ss.str());
        }
        return;
    }
    ShadowVma &vma = it->second;
    if (cfg_.access) {
        auto held = shadowPermFor(vma, src);
        if (!held || !held->covers(prot)) {
            std::ostringstream ss;
            ss << "pmove of " << permName(prot) << " on 0x" << std::hex
               << base << std::dec << " from PD " << src << " to PD "
               << dst << ", but the shadow model says PD " << src
               << " holds "
               << (held ? permName(*held) : std::string("none"));
            record(ViolationKind::IllegalTransfer, core, base, src,
                   vma.vteAddr, ss.str());
        }
    }
    if (!vma.global) {
        vma.perms.erase(src);
        vma.perms[dst] = prot;
    }
    if (cfg_.difftable)
        difftableApply(base, vte, false);
}

void
Checker::onPermCopied(unsigned core, Addr base, PdId src, PdId dst,
                      Perm prot, const Vte &vte)
{
    ++epoch_;
    auto it = vmas_.find(base);
    if (it == vmas_.end()) {
        if (cfg_.access) {
            std::ostringstream ss;
            ss << "pcopy on base 0x" << std::hex << base << std::dec
               << " which the shadow model does not have live";
            record(ViolationKind::UnknownVma, core, base, src, 0,
                   ss.str());
        }
        return;
    }
    ShadowVma &vma = it->second;
    if (cfg_.access) {
        auto held = shadowPermFor(vma, src);
        if (!held || !held->covers(prot)) {
            std::ostringstream ss;
            ss << "pcopy of " << permName(prot) << " on 0x" << std::hex
               << base << std::dec << " from PD " << src << " to PD "
               << dst << ", but the shadow model says PD " << src
               << " holds "
               << (held ? permName(*held) : std::string("none"));
            record(ViolationKind::IllegalTransfer, core, base, src,
                   vma.vteAddr, ss.str());
        }
    }
    if (!vma.global)
        vma.perms[dst] = prot;
    if (cfg_.difftable)
        difftableApply(base, vte, false);
}

void
Checker::onPdCreated(PdId pd, PdId creator)
{
    ++epoch_;
    if (cfg_.access && pds_[pd].valid) {
        std::ostringstream ss;
        ss << "cget returned PD " << pd
           << " which the shadow model already has live";
        record(ViolationKind::DoublePdCreate, 0, 0, pd, 0, ss.str());
    }
    pds_[pd].valid = true;
    pds_[pd].creator = creator;
}

void
Checker::onPdDestroyed(PdId pd)
{
    ++epoch_;
    if (cfg_.access && !pds_[pd].valid) {
        std::ostringstream ss;
        ss << "cput destroyed PD " << pd
           << " which the shadow model already has dead (double cput)";
        record(ViolationKind::DoublePdDestroy, 0, 0, pd, 0, ss.str());
        return;
    }
    if (cfg_.access) {
        for (const auto &[base, vma] : vmas_) {
            auto held = vma.perms.find(pd);
            if (held == vma.perms.end())
                continue;
            std::ostringstream ss;
            ss << "cput destroyed PD " << pd
               << " while the shadow model still sees its "
               << permName(held->second) << " permission on VMA 0x"
               << std::hex << base << std::dec;
            record(ViolationKind::PdPermLeak, 0, base, pd, vma.vteAddr,
                   ss.str());
        }
    }
    pds_[pd].valid = false;
}

void
Checker::onDomainEnter(unsigned core, PdId pd)
{
    ++epoch_;
    if (cfg_.access && !pds_[pd].valid) {
        std::ostringstream ss;
        ss << "core " << core << " switched into PD " << pd
           << " which the shadow model has dead (use-after-cput)";
        record(ViolationKind::DeadPdUsed, core, 0, pd, 0, ss.str());
    }
}

void
Checker::onDomainExit(unsigned core, PdId pd)
{
    ++epoch_;
    (void)core;
    (void)pd;
}

// --- Differential table checker ------------------------------------------

void
Checker::difftableApply(Addr base, const Vte &vte, bool insert)
{
    if (insert) {
        mirrorPlain_->noteInsert(base);
        mirrorBtree_->noteInsert(base);
    }
    Vte *plain = mirrorPlain_->vteFor(base);
    Vte *btree = mirrorBtree_->vteFor(base);
    if (plain)
        *plain = vte;
    if (btree)
        *btree = vte;
    difftableDiff(base);
    if (vte.bound > 1)
        difftableDiff(base + vte.bound - 1);
}

void
Checker::difftableRemove(Addr base)
{
    if (Vte *plain = mirrorPlain_->vteFor(base))
        *plain = Vte{};
    if (Vte *btree = mirrorBtree_->vteFor(base))
        *btree = Vte{};
    mirrorPlain_->noteRemove(base);
    mirrorBtree_->noteRemove(base);
    difftableDiff(base);
}

void
Checker::difftableProbe(Addr va)
{
    if (cfg_.difftable)
        difftableDiff(va);
}

void
Checker::difftableDiff(Addr va)
{
    uat::TableWalk plain = mirrorPlain_->walk(va);
    uat::TableWalk btree = mirrorBtree_->walk(va);
    bool plain_live = plain.vte && plain.vte->valid();
    bool btree_live = btree.vte && btree.vte->valid();
    std::string why;
    if (plain_live != btree_live) {
        why = plain_live ? "B-tree lost the mapping"
                         : "B-tree retains a removed mapping";
    } else if (plain_live) {
        if (plain.vmaBase != btree.vmaBase)
            why = "walks disagree on the VMA base";
        else if (plain.vte->bound != btree.vte->bound)
            why = "walks disagree on the bound";
        else if (plain.vte->offsAttr != btree.vte->offsAttr)
            why = "walks disagree on offs/attr";
        else if (!std::equal(plain.vte->sub.begin(),
                             plain.vte->sub.end(),
                             btree.vte->sub.begin(),
                             [](uat::SubEntry a, uat::SubEntry b) {
                                 return a.raw == b.raw;
                             }))
            why = "walks disagree on the sharer sub-array";
    }
    if (why.empty())
        return;
    std::ostringstream ss;
    ss << "plain-list and B-tree mirrors diverge at 0x" << std::hex
       << va << std::dec << ": " << why;
    record(ViolationKind::TableDivergence, 0, va, 0, plain.vteAddr,
           ss.str());
}

} // namespace jord::check
