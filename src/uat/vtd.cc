#include "uat/vtd.hh"

#include "sim/logging.hh"
#include "sim/types.hh"

namespace jord::uat {

using sim::Addr;

Vtd::Vtd(const sim::MachineConfig &cfg, const noc::Mesh &mesh)
    : cfg_(cfg), mesh_(mesh),
      entries_(static_cast<std::uint64_t>(cfg.vtdSets) * cfg.vtdWays *
               cfg.numCores)
{
}

std::size_t
Vtd::setBase(Addr vte_addr) const
{
    Addr block = sim::blockAlign(vte_addr);
    unsigned slice = mesh_.homeSlice(block, 0) % cfg_.numCores;
    std::uint64_t set = (block / sim::kCacheBlockBytes) % cfg_.vtdSets;
    return (static_cast<std::size_t>(slice) * cfg_.vtdSets + set) *
           cfg_.vtdWays;
}

Vtd::Entry *
Vtd::find(Addr vte_addr)
{
    Addr tag = sim::blockAlign(vte_addr);
    std::size_t base = setBase(vte_addr);
    for (unsigned way = 0; way < cfg_.vtdWays; ++way) {
        Entry &entry = entries_[base + way];
        if (entry.valid && entry.tag == tag)
            return &entry;
    }
    return nullptr;
}

const Vtd::Entry *
Vtd::find(Addr vte_addr) const
{
    return const_cast<Vtd *>(this)->find(vte_addr);
}

Vtd::Entry &
Vtd::victimIn(Addr vte_addr, std::optional<Evicted> &out)
{
    std::size_t base = setBase(vte_addr);
    Entry *victim = nullptr;
    for (unsigned way = 0; way < cfg_.vtdWays; ++way) {
        Entry &entry = entries_[base + way];
        if (!entry.valid)
            return entry;
        if (!victim || entry.lastUse < victim->lastUse)
            victim = &entry;
    }
    ++stats_.evictions;
    if (victim->sharers.any())
        out = Evicted{victim->tag, victim->sharers};
    victim->valid = false;
    victim->sharers.reset();
    return *victim;
}

std::optional<Vtd::Evicted>
Vtd::addSharer(Addr vte_addr, unsigned core)
{
    ++stats_.reads;
    if (Entry *entry = find(vte_addr)) {
        entry->sharers.set(core);
        entry->lastUse = ++useClock_;
        return std::nullopt;
    }
    std::optional<Evicted> evicted;
    Entry &entry = victimIn(vte_addr, evicted);
    entry.valid = true;
    entry.tag = sim::blockAlign(vte_addr);
    entry.sharers.reset();
    entry.sharers.set(core);
    entry.lastUse = ++useClock_;
    return evicted;
}

std::optional<mem::CoreMask>
Vtd::sharers(Addr vte_addr) const
{
    const Entry *entry = find(vte_addr);
    if (!entry)
        return std::nullopt;
    return entry->sharers;
}

std::optional<mem::CoreMask>
Vtd::remove(Addr vte_addr)
{
    Entry *entry = find(vte_addr);
    if (!entry)
        return std::nullopt;
    std::optional<mem::CoreMask> sharers = entry->sharers;
    entry->valid = false;
    entry->sharers.reset();
    return sharers;
}

std::optional<Vtd::Evicted>
Vtd::installPessimistic(Addr vte_addr, const mem::CoreMask &sharers)
{
    if (find(vte_addr) != nullptr)
        return std::nullopt; // already tracked precisely
    if (sharers.none())
        return std::nullopt;
    ++stats_.victims;
    std::optional<Evicted> evicted;
    Entry &entry = victimIn(vte_addr, evicted);
    entry.valid = true;
    entry.tag = sim::blockAlign(vte_addr);
    entry.sharers = sharers;
    entry.lastUse = ++useClock_;
    return evicted;
}

} // namespace jord::uat
