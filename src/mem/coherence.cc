#include "mem/coherence.hh"

#include <algorithm>

#include "prof/pmu.hh"
#include "sim/logging.hh"

namespace jord::mem {

using sim::Addr;
using sim::Cycles;

CoherenceEngine::CoherenceEngine(const sim::MachineConfig &cfg,
                                 const noc::Mesh &mesh)
    : cfg_(cfg), mesh_(mesh), l1s_(cfg.numCores)
{
}

bool
CoherenceEngine::CoreL1::touch(Addr addr)
{
    const std::uint32_t *node = index_.find(addr);
    if (!node)
        return false;
    if (*node != head_) {
        unlink(*node);
        link(*node);
    }
    return true;
}

void
CoherenceEngine::CoreL1::pushFront(Addr addr)
{
    std::uint32_t node = free_;
    if (node != kNil) {
        free_ = nodes_[node].next;
    } else {
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    nodes_[node].addr = addr;
    link(node);
    index_[addr] = node;
}

Addr
CoherenceEngine::CoreL1::popBack()
{
    Addr addr = nodes_[tail_].addr;
    erase(addr);
    return addr;
}

void
CoherenceEngine::CoreL1::erase(Addr addr)
{
    if (std::optional<std::uint32_t> node = index_.erase(addr)) {
        unlink(*node);
        release(*node);
    }
}

void
CoherenceEngine::CoreL1::clear()
{
    nodes_.clear();
    index_.clear();
    head_ = tail_ = free_ = kNil;
}

void
CoherenceEngine::CoreL1::link(std::uint32_t node)
{
    nodes_[node].prev = kNil;
    nodes_[node].next = head_;
    if (head_ != kNil)
        nodes_[head_].prev = node;
    else
        tail_ = node;
    head_ = node;
}

void
CoherenceEngine::CoreL1::unlink(std::uint32_t node)
{
    const Node &n = nodes_[node];
    if (n.prev != kNil)
        nodes_[n.prev].next = n.next;
    else
        head_ = n.next;
    if (n.next != kNil)
        nodes_[n.next].prev = n.prev;
    else
        tail_ = n.prev;
}

void
CoherenceEngine::CoreL1::release(std::uint32_t node)
{
    nodes_[node].next = free_;
    free_ = node;
}

void
CoherenceEngine::touchL1(unsigned core, Addr addr)
{
    CoreL1 &l1 = l1s_[core];
    if (l1.touch(addr))
        return;
    l1.pushFront(addr);
    while (l1.size() > cfg_.l1Lines)
        evictL1(core, l1.popBack());
}

void
CoherenceEngine::dropFromL1(unsigned core, Addr addr)
{
    l1s_[core].erase(addr);
}

CoherenceEngine::Line &
CoherenceEngine::lineFor(Addr addr)
{
    return lines_[sim::blockAlign(addr)];
}

CacheState
CoherenceEngine::stateOf(Addr addr) const
{
    const Line *line = lines_.find(sim::blockAlign(addr));
    return line ? line->state : CacheState::Invalid;
}

bool
CoherenceEngine::cachedIn(unsigned core, Addr addr) const
{
    const Line *line = lines_.find(sim::blockAlign(addr));
    return line && line->sharers.test(core);
}

CoreMask
CoherenceEngine::sharersOf(Addr addr) const
{
    const Line *line = lines_.find(sim::blockAlign(addr));
    return line ? line->sharers : CoreMask{};
}

Cycles
CoherenceEngine::invalidateSharers(unsigned home, Line &line,
                                   Addr addr_of_line, unsigned except,
                                   unsigned &messages)
{
    Cycles worst = 0;
    line.sharers.forEach([&](unsigned sharer) {
        if (sharer == except)
            return;
        // Invalidate request out + ack back, overlapped across sharers:
        // the shootdown completes when the furthest core acks (§6.3).
        Cycles rt = mesh_.roundTrip(home, sharer, noc::MsgKind::Control);
        worst = std::max(worst, rt);
        messages += 2;
        ++stats_.invalidations;
        dropFromL1(sharer, addr_of_line);
    });
    CoreMask keep;
    if (line.sharers.test(except))
        keep.set(except);
    line.sharers = keep;
    return worst;
}

void
CoherenceEngine::notePmu(unsigned core, const Access &acc, unsigned home)
{
    if (!pmu_)
        return;
    pmu_->add(core, prof::PmuCounter::RetiredOps);
    if (acc.l1Hit) {
        pmu_->add(core, prof::PmuCounter::L1Hits);
        return;
    }
    if (acc.llcHit)
        pmu_->add(core, prof::PmuCounter::LlcHits);
    else
        pmu_->add(core, prof::PmuCounter::DramFills);
    pmu_->add(core, prof::PmuCounter::NocMsgs, acc.messages);
    pmu_->add(core, prof::PmuCounter::NocHops,
              static_cast<std::uint64_t>(mesh_.hops(core, home)) *
                  acc.messages);
    // The cycles beyond the L1 probe stalled on cross-core traffic.
    pmu_->charge(core, prof::PmuBucket::Noc,
                 acc.latency - cfg_.l1HitCycles);
}

Access
CoherenceEngine::read(unsigned core, Addr addr, bool tbit)
{
    addr = sim::blockAlign(addr);
    ++stats_.reads;
    if (tbit)
        ++stats_.tbitReads;
    Line &line = lineFor(addr);
    Access acc;

    if (line.state != CacheState::Invalid && line.sharers.test(core)) {
        // L1 hit in any valid state. Translation reads still register
        // with the VTD: a VLB fill served from the local L1 is a
        // sharer that later shootdowns must reach even after this
        // block leaves the L1 (and with it the directory's list).
        acc.l1Hit = true;
        acc.latency = cfg_.l1HitCycles;
        ++stats_.l1Hits;
        touchL1(core, addr);
        if (tbit && observer_)
            observer_->translationRead(core, addr);
        notePmu(core, acc, core);
        return acc;
    }

    unsigned home = mesh_.homeSlice(addr, core);
    Cycles lat = cfg_.l1HitCycles; // detect the miss
    lat += mesh_.latency(core, home, noc::MsgKind::Control);
    lat += cfg_.llcHitCycles;
    acc.messages = 1;

    if (line.state == CacheState::Modified ||
        line.state == CacheState::Exclusive) {
        // Fetch from the owner; the owner forwards data to the requester
        // and downgrades to Shared (writeback folded into the forward).
        unsigned owner = line.owner;
        lat += mesh_.latency(home, owner, noc::MsgKind::Control);
        lat += mesh_.latency(owner, core, noc::MsgKind::Data);
        acc.messages += 2;
        line.inLlc = true;
        line.state = CacheState::Shared;
        line.sharers.set(core);
        acc.llcHit = true;
        ++stats_.llcHits;
    } else if (line.inLlc || line.state == CacheState::Shared) {
        lat += mesh_.latency(home, core, noc::MsgKind::Data);
        acc.messages += 1;
        acc.llcHit = true;
        ++stats_.llcHits;
        if (line.state == CacheState::Invalid || line.sharers.none()) {
            line.state = CacheState::Exclusive;
            line.owner = core;
        } else {
            line.state = CacheState::Shared;
        }
        line.sharers.set(core);
    } else {
        // Cold: fill from DRAM through the home slice.
        lat += cfg_.dramCycles;
        lat += mesh_.latency(home, core, noc::MsgKind::Data);
        acc.messages += 1;
        ++stats_.dramFills;
        line.inLlc = true;
        line.state = CacheState::Exclusive;
        line.owner = core;
        line.sharers.set(core);
    }

    touchL1(core, addr);

    if (tbit && observer_)
        observer_->translationRead(core, addr);

    acc.latency = lat;
    stats_.messages += acc.messages;
    notePmu(core, acc, home);
    return acc;
}

Access
CoherenceEngine::write(unsigned core, Addr addr, bool tbit)
{
    addr = sim::blockAlign(addr);
    ++stats_.writes;
    if (tbit)
        ++stats_.tbitWrites;
    Line &line = lineFor(addr);
    Access acc;

    bool own_exclusive =
        (line.state == CacheState::Modified ||
         line.state == CacheState::Exclusive) &&
        line.owner == core && line.sharers.test(core);

    if (own_exclusive) {
        // Silent E->M upgrade or plain M hit: no coherence traffic.
        line.state = CacheState::Modified;
        acc.l1Hit = true;
        acc.latency = cfg_.l1HitCycles;
        ++stats_.l1Hits;
        touchL1(core, addr);
        if (tbit && observer_)
            observer_->translationWriteLocal(core, addr);
        notePmu(core, acc, core);
        return acc;
    }

    unsigned home = mesh_.homeSlice(addr, core);
    Cycles lat = cfg_.l1HitCycles;
    lat += mesh_.latency(core, home, noc::MsgKind::Control);
    lat += cfg_.llcHitCycles;
    acc.messages = 1;

    CoreMask prev_sharers = line.sharers;

    if (line.state == CacheState::Modified ||
        line.state == CacheState::Exclusive) {
        // Another core owns it: invalidate-and-forward.
        unsigned owner = line.owner;
        lat += mesh_.latency(home, owner, noc::MsgKind::Control);
        lat += mesh_.latency(owner, core, noc::MsgKind::Data);
        acc.messages += 2;
        ++stats_.invalidations;
        line.sharers.forEach(
            [&](unsigned sharer) { dropFromL1(sharer, addr); });
        line.sharers.reset();
        line.inLlc = true;
        acc.llcHit = true;
        ++stats_.llcHits;
    } else if (line.state == CacheState::Shared) {
        // Upgrade: parallel invalidations to all other sharers; data comes
        // from the LLC if this core was not already a sharer.
        Cycles inval =
            invalidateSharers(home, line, addr, core, acc.messages);
        Cycles data = line.sharers.test(core)
                          ? 0
                          : mesh_.latency(home, core, noc::MsgKind::Data);
        if (data > 0)
            acc.messages += 1;
        lat += std::max(inval, data);
        acc.llcHit = true;
        ++stats_.llcHits;
    } else if (line.inLlc) {
        lat += mesh_.latency(home, core, noc::MsgKind::Data);
        acc.messages += 1;
        acc.llcHit = true;
        ++stats_.llcHits;
    } else {
        lat += cfg_.dramCycles;
        lat += mesh_.latency(home, core, noc::MsgKind::Data);
        acc.messages += 1;
        ++stats_.dramFills;
        line.inLlc = true;
    }

    line.state = CacheState::Modified;
    line.owner = core;
    line.sharers.reset();
    line.sharers.set(core);
    touchL1(core, addr);

    if (tbit && observer_) {
        lat += observer_->translationWrite(core, addr, prev_sharers);
    }

    acc.latency = lat;
    stats_.messages += acc.messages;
    notePmu(core, acc, home);
    return acc;
}

Access
CoherenceEngine::atomic(unsigned core, Addr addr)
{
    ++stats_.atomics;
    Access acc = write(core, addr, false);
    acc.latency += 1; // ALU forwarding for the read-modify-write
    return acc;
}

void
CoherenceEngine::evictL1(unsigned core, Addr addr)
{
    Line *found = lines_.find(sim::blockAlign(addr));
    if (!found)
        return;
    Line &line = *found;
    if (!line.sharers.test(core))
        return;
    line.sharers.clear(core);
    if ((line.state == CacheState::Modified ||
         line.state == CacheState::Exclusive) &&
        line.owner == core) {
        // Writeback (or clean replacement): LLC now holds the only copy.
        line.state = line.sharers.none() ? CacheState::Invalid
                                         : CacheState::Shared;
        line.inLlc = true;
    } else if (line.sharers.none()) {
        line.state = CacheState::Invalid;
    }
}

void
CoherenceEngine::evictDirectory(Addr addr)
{
    addr = sim::blockAlign(addr);
    const Line *line = lines_.find(addr);
    if (!line)
        return;
    if (observer_)
        observer_->directoryEvict(addr, line->sharers);
    lines_.erase(addr);
}

void
CoherenceEngine::flushAll()
{
    lines_.clear();
    for (auto &l1 : l1s_)
        l1.clear();
}

} // namespace jord::mem
