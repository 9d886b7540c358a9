#include "mem/coherence.hh"

#include <algorithm>
#include <optional>

#include "probe/probe.hh"
#include "sim/logging.hh"

namespace jord::mem {

using sim::Addr;
using sim::Cycles;

CoherenceEngine::CoherenceEngine(const sim::MachineConfig &cfg,
                                 const noc::Mesh &mesh)
    : cfg_(cfg), mesh_(mesh), l1s_(cfg.numCores)
{
}

void
CoherenceEngine::linkLru(std::uint32_t node)
{
    Listing &n = listings_[node];
    CoreL1 &l1 = l1s_[n.core];
    n.prev = kNil;
    n.next = l1.head;
    if (l1.head != kNil)
        listings_[l1.head].prev = node;
    else
        l1.tail = node;
    l1.head = node;
    ++l1.size;
}

void
CoherenceEngine::unlinkLru(std::uint32_t node)
{
    const Listing &n = listings_[node];
    CoreL1 &l1 = l1s_[n.core];
    if (n.prev != kNil)
        listings_[n.prev].next = n.next;
    else
        l1.head = n.next;
    if (n.next != kNil)
        listings_[n.next].prev = n.prev;
    else
        l1.tail = n.prev;
    --l1.size;
}

void
CoherenceEngine::touchL1(unsigned core, Line &line, Addr addr)
{
    // The chain is short: one listing per core whose L1 lists the block.
    for (std::uint32_t node = line.listings; node != kNil;
         node = listings_[node].chain) {
        if (listings_[node].core == core) {
            if (l1s_[core].head != node) {
                unlinkLru(node);
                linkLru(node);
            }
            return;
        }
    }
    std::uint32_t node = freeListings_;
    if (node != kNil) {
        freeListings_ = listings_[node].next;
    } else {
        node = static_cast<std::uint32_t>(listings_.size());
        listings_.emplace_back();
    }
    listings_[node].addr = addr;
    listings_[node].chain = line.listings;
    listings_[node].core = core;
    line.listings = node;
    linkLru(node);
    while (l1s_[core].size > cfg_.l1Lines)
        evictLru(core);
}

void
CoherenceEngine::evictLru(unsigned core)
{
    std::uint32_t victim = l1s_[core].tail;
    Addr addr = listings_[victim].addr;
    unlinkLru(victim);
    Line *line = lines_.find(addr);
    std::uint32_t *head = line ? &line->listings : erasedChains_.find(addr);
    std::uint32_t *link = head;
    while (*link != victim)
        link = &listings_[*link].chain;
    *link = listings_[victim].chain;
    listings_[victim].next = freeListings_;
    freeListings_ = victim;
    if (line)
        clearSharer(core, *line);
    else if (*head == kNil)
        erasedChains_.erase(addr);
}

void
CoherenceEngine::dropListings(Line &line, unsigned except)
{
    std::uint32_t *link = &line.listings;
    while (*link != kNil) {
        std::uint32_t node = *link;
        Listing &n = listings_[node];
        if (n.core == except || !line.sharers.test(n.core)) {
            link = &n.chain;
            continue;
        }
        *link = n.chain;
        unlinkLru(node);
        n.next = freeListings_;
        freeListings_ = node;
    }
}

CoherenceEngine::Line &
CoherenceEngine::lineFor(Addr addr)
{
    addr = sim::blockAlign(addr);
    Line &line = lines_[addr];
    if (line.listings == kNil && erasedChains_.size() != 0) {
        if (std::optional<std::uint32_t> chain = erasedChains_.erase(addr))
            line.listings = *chain;
    }
    return line;
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
                                   unsigned except, unsigned &messages)
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
    });
    dropListings(line, except);
    CoreMask keep;
    if (line.sharers.test(except))
        keep.set(except);
    line.sharers = keep;
    return worst;
}

void
CoherenceEngine::noteAccess(unsigned core, const Access &acc,
                            unsigned home)
{
    if (probe_)
        probe_->onCoherenceAccess(core, acc, home, mesh_.hops(core, home));
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
        touchL1(core, line, addr);
        if (tbit && observer_)
            observer_->translationRead(core, addr);
        noteAccess(core, acc, core);
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
            line.owner = static_cast<std::uint16_t>(core);
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
        line.owner = static_cast<std::uint16_t>(core);
        line.sharers.set(core);
    }

    touchL1(core, line, addr);

    if (tbit && observer_)
        observer_->translationRead(core, addr);

    acc.latency = lat;
    stats_.messages += acc.messages;
    noteAccess(core, acc, home);
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
        touchL1(core, line, addr);
        if (tbit && observer_)
            observer_->translationWriteLocal(core, addr);
        noteAccess(core, acc, core);
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
        // The writer's own listing, if any, is re-touched below.
        dropListings(line, core);
        line.sharers.reset();
        line.inLlc = true;
        acc.llcHit = true;
        ++stats_.llcHits;
    } else if (line.state == CacheState::Shared) {
        // Upgrade: parallel invalidations to all other sharers; data comes
        // from the LLC if this core was not already a sharer.
        Cycles inval = invalidateSharers(home, line, core, acc.messages);
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
    line.owner = static_cast<std::uint16_t>(core);
    line.sharers.reset();
    line.sharers.set(core);
    touchL1(core, line, addr);

    if (tbit && observer_) {
        lat += observer_->translationWrite(core, addr, prev_sharers);
    }

    acc.latency = lat;
    stats_.messages += acc.messages;
    noteAccess(core, acc, home);
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
CoherenceEngine::clearSharer(unsigned core, Line &line)
{
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
CoherenceEngine::evictL1(unsigned core, Addr addr)
{
    if (Line *line = lines_.find(sim::blockAlign(addr)))
        clearSharer(core, *line);
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
    if (line->listings != kNil)
        erasedChains_[addr] = line->listings;
    lines_.erase(addr);
}

void
CoherenceEngine::flushAll()
{
    lines_.clear();
    listings_.clear();
    freeListings_ = kNil;
    for (auto &l1 : l1s_)
        l1 = CoreL1{};
    erasedChains_.clear();
}

} // namespace jord::mem
