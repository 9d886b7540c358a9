#include "privlib/privlib.hh"

#include <algorithm>
#include <iterator>

#include "probe/probe.hh"
#include "sim/logging.hh"

namespace jord::privlib {

/**
 * Software cycle budgets for PrivLib operations.
 *
 * Each PrivLib call is modelled as: uatg gate entry + mandatory policy
 * checks (instruction execution, scaled by the machine profile's IPC
 * factor) plus the real memory accesses the operation performs (free
 * list atomics, VTE reads/writes, completion fences), which are charged
 * through the coherence engine. The constants below are calibrated so
 * the Table 4 simulator column emerges in the warm single-core case and
 * the FPGA column follows from the IPC penalty alone (§6.2). The
 * budgets are cycles at the simulator's IPC.
 */
namespace cost {

/** uatg gate entry + CFI policy-check prologue, on every call. */
constexpr sim::Cycles kGateEntry = 8;

constexpr sim::Cycles kMmapSw = 48;     ///< size-class calc, list bookkeeping
constexpr sim::Cycles kMunmapSw = 45;   ///< teardown bookkeeping
constexpr sim::Cycles kMprotectSw = 54; ///< permission recompute
constexpr sim::Cycles kPmoveSw = 28;    ///< transfer bookkeeping
constexpr sim::Cycles kPcopySw = 26;    ///< duplicate bookkeeping

constexpr sim::Cycles kCgetSw = 30;   ///< PD metadata init
constexpr sim::Cycles kCputSw = 40;   ///< PD teardown checks
constexpr sim::Cycles kCcallSw = 30;  ///< register save + load
constexpr sim::Cycles kCenterSw = 28; ///< register reload
constexpr sim::Cycles kCexitSw = 26;  ///< register save

/** Pipeline refill after the control transfer of a PD switch. */
constexpr sim::Cycles kSwitchPipeline = 6;

/** Near-free cost charged when isolation is bypassed (Jord_NI). */
constexpr sim::Cycles kBypass = 2;

} // namespace cost

using sim::Addr;
using sim::Cycles;
using uat::Fault;
using uat::PdId;
using uat::Perm;
using uat::Vte;

namespace {

/** Synthetic cache lines holding the free-list heads. */
constexpr Addr kFreeListBase = 0x3000'0000'0000ull;
/** Synthetic cache lines holding PD metadata (the PD-config VMA). */
constexpr Addr kPdTableBase = 0x3001'0000'0000ull;

/** How many physical chunks one kernel refill provides per class. */
std::uint64_t
refillChunks(unsigned sc)
{
    std::uint64_t chunk = uat::VaEncoding::classSize(sc);
    std::uint64_t batch = (1ull << 20) / chunk; // ~1 MB batches
    return std::clamp<std::uint64_t>(batch, 1, 64);
}

} // namespace

const char *
privOpName(PrivOp op)
{
    static constexpr const char *kOpNames[] = {
        "mmap", "munmap", "mprotect", "pmove", "pcopy",
        "cget", "cput",   "ccall",    "center", "cexit",
    };
    static_assert(std::size(kOpNames) ==
                  static_cast<unsigned>(PrivOp::NumOps));
    return kOpNames[static_cast<unsigned>(op)];
}

PrivLib::PrivLib(const sim::MachineConfig &cfg,
                 mem::CoherenceEngine &coherence, uat::UatSystem &uat,
                 uat::VmaTableBase &table, os::Kernel &kernel,
                 probe::Probe *probe)
    : cfg_(cfg),
      coherence_(coherence),
      uat_(uat),
      table_(table),
      kernel_(kernel),
      probe_(probe),
      pds_(uat::kMaxPdId + 1),
      domainStack_(cfg.numCores)
{
    uat::VaEncoding encoding;
    const unsigned cores = cfg.numCores;
    constexpr Addr kMagRegion =
        static_cast<Addr>(mem::kMaxCores) * sim::kCacheBlockBytes;
    for (unsigned sc = 0; sc < uat::kNumSizeClasses; ++sc) {
        FreeList &va = vaLists_[sc];
        va.headAddr = kFreeListBase + sc * sim::kCacheBlockBytes;
        va.magazines.resize(cores);
        va.magazineBase = kFreeListBase + 0x10'0000 + sc * kMagRegion;
        va.freshLimit = encoding.indicesPerClass(sc);

        FreeList &phys = physLists_[sc];
        phys.headAddr =
            kFreeListBase + 0x1000 + sc * sim::kCacheBlockBytes;
        phys.magazines.resize(cores);
        phys.magazineBase =
            kFreeListBase + 0x90'0000 + sc * kMagRegion;
    }
    // PD ids hand out 1..kMaxPdId; the root PD (0) is never recycled.
    pdList_.headAddr = kFreeListBase + 0x2000;
    pdList_.magazines.resize(cores);
    pdList_.magazineBase = kFreeListBase + 0x110'0000;
    pdList_.nextFresh = 1;
    pdList_.freshLimit = uat::kMaxPdId + 1;

    pds_[kRootPd].valid = true;
    pds_[kRootPd].creator = kRootPd;
    livePds_ = 1;

    // Bootstrap (the OS does this before handing control to user code,
    // §4.4): create PrivLib's privileged code and data VMAs and register
    // the uatg call gates at its entry points.
    PrivResult code = mmapInternal(0, kRootPd, 64 << 10, Perm::rx(),
                                   true, true, PrivOp::Mmap);
    PrivResult data = mmapInternal(0, kRootPd, 256 << 10, Perm::rw(),
                                   true, true, PrivOp::Mmap);
    if (!code.ok || !data.ok)
        sim::panic("PrivLib bootstrap failed");
    privCodeBase_ = code.value;
    privDataBase_ = data.value;
    for (unsigned entry = 0; entry < 16; ++entry)
        uat_.addGate(privCodeBase_ + entry * 16);
    resetStats();
}

Cycles
PrivLib::sw(Cycles budget) const
{
    return static_cast<Cycles>(static_cast<double>(budget) *
                               cfg_.swLatencyScale());
}

Cycles
PrivLib::fence(unsigned core, Addr vte_addr) const
{
    // The mutating core must observe shootdown completion before the
    // operation may return (e.g., before recycling freed memory).
    unsigned home = coherence_.mesh().homeSlice(
        sim::blockAlign(vte_addr), core);
    Cycles lat = coherence_.mesh().roundTrip(core, home,
                                             noc::MsgKind::Control) +
                 cfg_.llcHitCycles;
    // Pure mesh math (no coherence access): report the wait.
    if (probe_)
        probe_->onFenceWait(core, lat);
    return lat;
}

Addr
PrivLib::pdLineAddr(PdId pd)
{
    return kPdTableBase + static_cast<Addr>(pd) * sim::kCacheBlockBytes;
}

void
PrivLib::account(PrivOp op, Cycles latency)
{
    OpStats &entry = stats_[static_cast<unsigned>(op)];
    ++entry.count;
    entry.cycles += latency;
}

void
PrivLib::resetStats()
{
    for (auto &entry : stats_)
        entry = OpStats{};
}

std::uint64_t
PrivLib::vmaManagementCycles() const
{
    return stats(PrivOp::Mmap).cycles + stats(PrivOp::Munmap).cycles +
           stats(PrivOp::Mprotect).cycles + stats(PrivOp::Pmove).cycles +
           stats(PrivOp::Pcopy).cycles;
}

std::uint64_t
PrivLib::pdManagementCycles() const
{
    return stats(PrivOp::Cget).cycles + stats(PrivOp::Cput).cycles +
           stats(PrivOp::Ccall).cycles + stats(PrivOp::Center).cycles +
           stats(PrivOp::Cexit).cycles;
}

PdId
PrivLib::currentPd(unsigned core) const
{
    return uat_.csrFile(core).ucid;
}

bool
PrivLib::pdValid(PdId pd) const
{
    return pd <= uat::kMaxPdId && pds_[pd].valid;
}

// --- Free lists ---------------------------------------------------------

bool
PrivLib::listPop(unsigned core, FreeList &list, std::uint64_t &item,
                 Cycles &latency)
{
    auto &mag = list.magazines[core];
    latency += coherence_
                   .atomic(core, list.magazineBase +
                                     core * sim::kCacheBlockBytes)
                   .latency;
    if (mag.empty()) {
        // Magazine refill: the only access to the shared head.
        latency += coherence_.atomic(core, list.headAddr).latency;
        while (mag.size() < kMagazineBatch && !list.shared.empty()) {
            mag.push_back(list.shared.back());
            list.shared.pop_back();
        }
        while (mag.size() < kMagazineBatch &&
               list.nextFresh < list.freshLimit) {
            mag.push_back(list.nextFresh++);
        }
        if (mag.empty())
            return false;
    }
    item = mag.back();
    mag.pop_back();
    return true;
}

void
PrivLib::listPush(unsigned core, FreeList &list, std::uint64_t item,
                  Cycles &latency)
{
    auto &mag = list.magazines[core];
    latency += coherence_
                   .atomic(core, list.magazineBase +
                                     core * sim::kCacheBlockBytes)
                   .latency;
    mag.push_back(item);
    if (mag.size() > 2 * kMagazineBatch) {
        // Flush half the magazine back to the shared list.
        latency += coherence_.atomic(core, list.headAddr).latency;
        for (unsigned i = 0; i < kMagazineBatch; ++i) {
            list.shared.push_back(mag.back());
            mag.pop_back();
        }
    }
}

bool
PrivLib::popVaIndex(unsigned core, unsigned sc, std::uint64_t &index,
                    Cycles &latency)
{
    return listPop(core, vaLists_[sc], index, latency);
}

void
PrivLib::pushVaIndex(unsigned core, unsigned sc, std::uint64_t index,
                     Cycles &latency)
{
    listPush(core, vaLists_[sc], index, latency);
}

bool
PrivLib::popPhysChunk(unsigned core, unsigned sc, Addr &pa,
                      Cycles &latency)
{
    FreeList &list = physLists_[sc];
    std::uint64_t item = 0;
    if (listPop(core, list, item, latency)) {
        pa = item;
        return true;
    }
    // Refill from the OS reservation via uat_config (§4.4).
    std::uint64_t chunk = uat::VaEncoding::classSize(sc);
    std::uint64_t batch = refillChunks(sc);
    os::SyscallResult sys = kernel_.uatConfigReserve(chunk * batch);
    latency += sys.latency;
    if (!sys.ok)
        return false;
    for (std::uint64_t i = 0; i < batch; ++i)
        list.shared.push_back(sys.addr + i * chunk);
    if (!listPop(core, list, item, latency))
        return false;
    pa = item;
    return true;
}

void
PrivLib::pushPhysChunk(unsigned core, unsigned sc, Addr pa,
                       Cycles &latency)
{
    listPush(core, physLists_[sc], pa, latency);
}

// --- VMA management -------------------------------------------------------

PrivResult
PrivLib::mmap(unsigned core, std::uint64_t len, Perm prot)
{
    return mmapInternal(core, currentPd(core), len, prot, false, false,
                        PrivOp::Mmap);
}

PrivResult
PrivLib::mmapFor(unsigned core, PdId pd, std::uint64_t len, Perm prot,
                 bool priv, bool global)
{
    PrivResult res;
    if (currentPd(core) != kRootPd) {
        // Only the trusted runtime may place VMAs into foreign PDs.
        res.fault = Fault::NoPermission;
        res.latency = cost::kGateEntry;
        account(PrivOp::Mmap, res.latency);
        return res;
    }
    return mmapInternal(core, pd, len, prot, priv, global, PrivOp::Mmap);
}

PrivResult
PrivLib::mmapInternal(unsigned core, PdId pd, std::uint64_t len,
                      Perm prot, bool priv, bool global, PrivOp op)
{
    PrivResult res;
    res.latency = cost::kGateEntry + sw(cost::kMmapSw);

    auto sc = uat::VaEncoding::classForSize(len);
    if (len == 0 || !sc || !pdValid(pd)) {
        res.fault = Fault::NoPermission;
        account(op, res.latency);
        return res;
    }

    std::uint64_t index = 0;
    Addr pa = 0;
    if (!popVaIndex(core, *sc, index, res.latency) ||
        !popPhysChunk(core, *sc, pa, res.latency)) {
        res.fault = Fault::NotMapped; // resources exhausted
        account(op, res.latency);
        return res;
    }

    uat::VaEncoding encoding;
    Addr vma_base = encoding.encode(*sc, index);

    uat::TableUpdate upd = table_.noteInsert(vma_base);
    if (!upd.ok) {
        pushVaIndex(core, *sc, index, res.latency);
        pushPhysChunk(core, *sc, pa, res.latency);
        res.fault = Fault::NotMapped;
        account(op, res.latency);
        return res;
    }
    for (Addr block : upd.readAddrs)
        res.latency += coherence_.read(core, block).latency;
    for (Addr block : upd.writeAddrs)
        res.latency += coherence_.write(core, block).latency;

    Vte *vte = table_.vteFor(vma_base);
    if (!vte)
        sim::panic("VTE slot missing after insert");
    *vte = Vte{};
    vte->bound = len;
    vte->setOffs(static_cast<std::int64_t>(pa) -
                 static_cast<std::int64_t>(vma_base));
    bool make_global = global || bypass_;
    Perm global_perm = bypass_ ? Perm::rwx() : prot;
    vte->setAttr(true, make_global, priv, make_global ? global_perm
                                                      : Perm::none());
    if (!make_global) {
        *vte->freeSub() = uat::SubEntry::make(pd, prot);
        ++pds_[pd].refs;
    }

    res.latency += uat_.vteWrite(core, table_.vteAddrOf(vma_base));
    res.ok = true;
    res.value = vma_base;
    account(op, res.latency);
    if (probe_)
        probe_->onVmaMapped(core, pd, vma_base, len, prot,
                            table_.vteAddrOf(vma_base), *vte);
    return res;
}

void
PrivLib::setPerm(unsigned core, Vte &vte, PdId pd, Perm perm,
                 Cycles &latency)
{
    if (uat::SubEntry *inline_sub = vte.findSub(pd)) {
        *inline_sub = uat::SubEntry::make(pd, perm);
        return;
    }
    if (auto *extra = const_cast<std::vector<uat::SubEntry> *>(
            table_.overflowListIfAny(vte))) {
        for (auto &entry : *extra) {
            if (entry.valid() && entry.pd() == pd) {
                entry = uat::SubEntry::make(pd, perm);
                return;
            }
        }
    }
    if (uat::SubEntry *slot = vte.freeSub()) {
        *slot = uat::SubEntry::make(pd, perm);
        ++pds_[pd].refs;
        return;
    }
    // Rare case: more than kSubArrayEntries sharers spill into the
    // complete list behind the ptr field (§4.3).
    table_.overflowList(vte).push_back(uat::SubEntry::make(pd, perm));
    ++pds_[pd].refs;
    latency += coherence_
                   .write(core, 0x3800'0000'0000ull +
                                    vte.ptr * sim::kCacheBlockBytes)
                   .latency;
}

bool
PrivLib::removePerm(Vte &vte, PdId pd)
{
    if (uat::SubEntry *inline_sub = vte.findSub(pd)) {
        inline_sub->clear();
        --pds_[pd].refs;
        return true;
    }
    if (auto *extra = const_cast<std::vector<uat::SubEntry> *>(
            table_.overflowListIfAny(vte))) {
        for (auto &entry : *extra) {
            if (entry.valid() && entry.pd() == pd) {
                entry.clear();
                --pds_[pd].refs;
                return true;
            }
        }
    }
    return false;
}

uat::Vte *
PrivLib::vteForPolicy(unsigned /* core */, Addr va, PdId pd,
                      PrivResult &res)
{
    uat::VaEncoding encoding;
    auto base = encoding.vmaBase(va);
    if (!base || *base != va) {
        // Operations name the VMA by its base address.
        res.fault = Fault::NotMapped;
        return nullptr;
    }
    Vte *vte = table_.vteFor(va);
    if (!vte || !vte->valid()) {
        res.fault = Fault::NotMapped;
        return nullptr;
    }
    if (vte->privileged() && pd != kRootPd) {
        res.fault = Fault::PrivilegedAccess;
        return nullptr;
    }
    if (pd != kRootPd && !vte->global() && !table_.permFor(*vte, pd)) {
        res.fault = Fault::NoPermission;
        return nullptr;
    }
    return vte;
}

PrivResult
PrivLib::munmap(unsigned core, Addr va, std::uint64_t len)
{
    PrivResult res;
    res.latency = cost::kGateEntry + sw(cost::kMunmapSw);
    PdId pd = currentPd(core);

    Vte *vte = vteForPolicy(core, va, pd, res);
    if (!vte) {
        account(PrivOp::Munmap, res.latency);
        return res;
    }
    if (len != vte->bound) {
        res.fault = Fault::OutOfBound;
        account(PrivOp::Munmap, res.latency);
        return res;
    }

    uat::VaEncoding encoding;
    auto decoded = encoding.decode(va);
    unsigned sc = decoded->sizeClass;
    Addr pa = static_cast<Addr>(static_cast<std::int64_t>(va) +
                                vte->offs());
    Addr vte_addr = table_.vteAddrOf(va);

    // Drop the sharer refcounts before clearing the entry.
    for (const auto &sub : vte->sub)
        if (sub.valid())
            --pds_[sub.pd()].refs;
    if (const auto *extra = table_.overflowListIfAny(*vte))
        for (const auto &sub : *extra)
            if (sub.valid())
                --pds_[sub.pd()].refs;
    table_.clearOverflow(*vte);
    *vte = Vte{}; // invalidate

    res.latency += uat_.vteWrite(core, vte_addr); // shoots down VLBs
    res.latency += fence(core, vte_addr);

    uat::TableUpdate upd = table_.noteRemove(va);
    for (Addr block : upd.readAddrs)
        res.latency += coherence_.read(core, block).latency;
    for (Addr block : upd.writeAddrs)
        res.latency += coherence_.write(core, block).latency;

    pushVaIndex(core, sc, decoded->index, res.latency);
    pushPhysChunk(core, sc, pa, res.latency);

    res.ok = true;
    account(PrivOp::Munmap, res.latency);
    if (probe_)
        probe_->onVmaUnmapped(core, va);
    return res;
}

PrivResult
PrivLib::mprotect(unsigned core, Addr va, std::uint64_t len, Perm prot)
{
    PrivResult res;
    if (bypass_) {
        res.ok = true;
        res.latency = cost::kBypass;
        account(PrivOp::Mprotect, res.latency);
        return res;
    }
    res.latency = cost::kGateEntry + sw(cost::kMprotectSw);
    PdId pd = currentPd(core);

    Vte *vte = vteForPolicy(core, va, pd, res);
    if (!vte) {
        account(PrivOp::Mprotect, res.latency);
        return res;
    }

    uat::VaEncoding encoding;
    auto decoded = encoding.decode(va);
    std::uint64_t chunk = uat::VaEncoding::classSize(decoded->sizeClass);
    if (len == 0 || len > chunk) {
        res.fault = Fault::OutOfBound;
        account(PrivOp::Mprotect, res.latency);
        return res;
    }

    // Resize within the chunk (the trailing part of the chunk is
    // reserved exactly for this, §4.1) and update the permission.
    vte->bound = len;
    if (vte->global()) {
        vte->setAttr(true, true, vte->privileged(), prot);
    } else if (uat::SubEntry *sub = vte->findSub(pd)) {
        *sub = uat::SubEntry::make(pd, prot);
    } else if (pd == kRootPd) {
        // Root adjusting a VMA it does not share: update the first
        // sharer (runtime-internal resize path).
        res.fault = Fault::NoPermission;
        account(PrivOp::Mprotect, res.latency);
        return res;
    }

    Addr vte_addr = table_.vteAddrOf(va);
    res.latency += uat_.vteWrite(core, vte_addr);
    res.ok = true;
    account(PrivOp::Mprotect, res.latency);
    if (probe_)
        probe_->onVmaProtected(core, pd, va, len, prot, *vte);
    return res;
}

PrivResult
PrivLib::pmove(unsigned core, Addr va, PdId dst, Perm prot)
{
    PrivResult res;
    if (bypass_) {
        res.ok = true;
        res.latency = cost::kBypass;
        account(PrivOp::Pmove, res.latency);
        return res;
    }
    res.latency = cost::kGateEntry + sw(cost::kPmoveSw);
    PdId src = currentPd(core);

    if (!pdValid(dst)) {
        res.fault = Fault::NoPermission;
        account(PrivOp::Pmove, res.latency);
        return res;
    }
    Vte *vte = vteForPolicy(core, va, src, res);
    if (!vte) {
        account(PrivOp::Pmove, res.latency);
        return res;
    }

    auto held = table_.permFor(*vte, src);
    if (!held || !held->covers(prot)) {
        // Delegation may only hand over permissions the caller holds.
        res.fault = Fault::NoPermission;
        account(PrivOp::Pmove, res.latency);
        return res;
    }

    if (!vte->global())
        removePerm(*vte, src);
    setPerm(core, *vte, dst, prot, res.latency);

    Addr vte_addr = table_.vteAddrOf(va);
    res.latency += uat_.vteWrite(core, vte_addr);
    res.ok = true;
    account(PrivOp::Pmove, res.latency);
    if (probe_)
        probe_->onPermMoved(core, va, src, dst, prot, *vte);
    return res;
}

PrivResult
PrivLib::pmoveBetween(unsigned core, Addr va, PdId src, PdId dst,
                      Perm prot)
{
    PrivResult res;
    if (bypass_) {
        res.ok = true;
        res.latency = cost::kBypass;
        account(PrivOp::Pmove, res.latency);
        return res;
    }
    res.latency = cost::kGateEntry + sw(cost::kPmoveSw);

    if (currentPd(core) != kRootPd || !pdValid(src) || !pdValid(dst)) {
        res.fault = Fault::NoPermission;
        account(PrivOp::Pmove, res.latency);
        return res;
    }
    Vte *vte = vteForPolicy(core, va, kRootPd, res);
    if (!vte) {
        account(PrivOp::Pmove, res.latency);
        return res;
    }
    auto held = table_.permFor(*vte, src);
    if (!held || !held->covers(prot)) {
        res.fault = Fault::NoPermission;
        account(PrivOp::Pmove, res.latency);
        return res;
    }
    if (!vte->global())
        removePerm(*vte, src);
    setPerm(core, *vte, dst, prot, res.latency);
    res.latency += uat_.vteWrite(core, table_.vteAddrOf(va));
    res.ok = true;
    account(PrivOp::Pmove, res.latency);
    if (probe_)
        probe_->onPermMoved(core, va, src, dst, prot, *vte);
    return res;
}

PrivResult
PrivLib::pcopy(unsigned core, Addr va, PdId dst, Perm prot)
{
    PrivResult res;
    if (bypass_) {
        res.ok = true;
        res.latency = cost::kBypass;
        account(PrivOp::Pcopy, res.latency);
        return res;
    }
    res.latency = cost::kGateEntry + sw(cost::kPcopySw);
    PdId src = currentPd(core);

    if (!pdValid(dst)) {
        res.fault = Fault::NoPermission;
        account(PrivOp::Pcopy, res.latency);
        return res;
    }
    Vte *vte = vteForPolicy(core, va, src, res);
    if (!vte) {
        account(PrivOp::Pcopy, res.latency);
        return res;
    }

    auto held = table_.permFor(*vte, src);
    if (!held || !held->covers(prot)) {
        res.fault = Fault::NoPermission;
        account(PrivOp::Pcopy, res.latency);
        return res;
    }

    setPerm(core, *vte, dst, prot, res.latency);

    // A pcopy only *adds* a permission: no cached translation becomes
    // stale, so the VTE write does not carry the T bit and triggers no
    // VLB shootdown.
    Addr vte_addr = table_.vteAddrOf(va);
    res.latency += coherence_.write(core, vte_addr).latency;
    res.ok = true;
    account(PrivOp::Pcopy, res.latency);
    if (probe_)
        probe_->onPermCopied(core, va, src, dst, prot, *vte);
    return res;
}

// --- PD management ---------------------------------------------------------

PrivResult
PrivLib::cget(unsigned core)
{
    PrivResult res;
    res.latency = cost::kGateEntry + sw(cost::kCgetSw);
    std::uint64_t raw = 0;
    if (!listPop(core, pdList_, raw, res.latency)) {
        res.fault = Fault::NoPermission; // PD ids exhausted
        account(PrivOp::Cget, res.latency);
        return res;
    }
    PdId id = static_cast<PdId>(raw);
    pds_[id].valid = true;
    pds_[id].creator = currentPd(core);
    pds_[id].refs = 0;
    ++livePds_;
    res.latency += coherence_.write(core, pdLineAddr(id)).latency;
    res.ok = true;
    res.value = id;
    account(PrivOp::Cget, res.latency);
    if (probe_)
        probe_->onPdCreated(id, pds_[id].creator);
    return res;
}

PrivResult
PrivLib::cput(unsigned core, PdId pd)
{
    PrivResult res;
    res.latency = cost::kGateEntry + sw(cost::kCputSw);
    PdId caller = currentPd(core);

    if (!pdValid(pd) || pd == kRootPd || pd == caller ||
        (caller != kRootPd && pds_[pd].creator != caller)) {
        res.fault = Fault::NoPermission;
        account(PrivOp::Cput, res.latency);
        return res;
    }
    if (pds_[pd].refs != 0) {
        // The PD still holds VMA permissions; destroying it would leak
        // them to the next owner of the recycled id.
        res.fault = Fault::NoPermission;
        account(PrivOp::Cput, res.latency);
        return res;
    }

    pds_[pd].valid = false;
    --livePds_;
    res.latency += coherence_.write(core, pdLineAddr(pd)).latency;
    listPush(core, pdList_, pd, res.latency);
    res.ok = true;
    account(PrivOp::Cput, res.latency);
    if (probe_)
        probe_->onPdDestroyed(pd);
    return res;
}

PrivResult
PrivLib::ccall(unsigned core, PdId pd)
{
    PrivResult res;
    res.latency = cost::kGateEntry + sw(cost::kCcallSw) +
                  cost::kSwitchPipeline;
    PdId caller = currentPd(core);

    if (!pdValid(pd) ||
        (caller != kRootPd && pds_[pd].creator != caller)) {
        res.fault = Fault::NoPermission;
        account(PrivOp::Ccall, res.latency);
        return res;
    }

    res.latency += coherence_.read(core, pdLineAddr(pd)).latency;
    domainStack_[core].push_back(caller);
    uat_.csrFile(core).ucid = pd; // privileged CSR write inside PrivLib
    res.latency += 1;
    res.ok = true;
    account(PrivOp::Ccall, res.latency);
    if (probe_)
        probe_->onDomainEnter(core, pd);
    return res;
}

PrivResult
PrivLib::center(unsigned core, PdId pd)
{
    PrivResult res;
    res.latency = cost::kGateEntry + sw(cost::kCenterSw) +
                  cost::kSwitchPipeline;
    PdId caller = currentPd(core);

    if (!pdValid(pd) ||
        (caller != kRootPd && pds_[pd].creator != caller)) {
        res.fault = Fault::NoPermission;
        account(PrivOp::Center, res.latency);
        return res;
    }

    res.latency += coherence_.read(core, pdLineAddr(pd)).latency;
    domainStack_[core].push_back(caller);
    uat_.csrFile(core).ucid = pd;
    res.latency += 1;
    res.ok = true;
    account(PrivOp::Center, res.latency);
    if (probe_)
        probe_->onDomainEnter(core, pd);
    return res;
}

PrivResult
PrivLib::cexit(unsigned core)
{
    PrivResult res;
    res.latency = cost::kGateEntry + sw(cost::kCexitSw) +
                  cost::kSwitchPipeline;
    if (domainStack_[core].empty()) {
        res.fault = Fault::NoPermission;
        account(PrivOp::Cexit, res.latency);
        return res;
    }
    uat_.csrFile(core).ucid = domainStack_[core].back();
    domainStack_[core].pop_back();
    res.latency += 1;
    res.ok = true;
    account(PrivOp::Cexit, res.latency);
    if (probe_)
        probe_->onDomainExit(core, uat_.csrFile(core).ucid);
    return res;
}

} // namespace jord::privlib
