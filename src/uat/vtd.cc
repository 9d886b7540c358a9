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
Vtd::setBase(Addr tag) const
{
    // From tile 0 the home slice is below the tiles per socket, which
    // the Mesh constructor requires to divide numCores, so it always
    // names one of the VTD's numCores slices.
    unsigned slice = mesh_.homeSlice(tag, 0);
    std::uint64_t set = (tag / sim::kCacheBlockBytes) % cfg_.vtdSets;
    return (static_cast<std::size_t>(slice) * cfg_.vtdSets + set) *
           cfg_.vtdWays;
}

Vtd::Entry *
Vtd::find(Addr tag, std::size_t base)
{
    for (unsigned way = 0; way < cfg_.vtdWays; ++way) {
        Entry &entry = entries_[base + way];
        if (entry.valid && entry.tag == tag)
            return &entry;
    }
    return nullptr;
}

const Vtd::Entry *
Vtd::find(Addr tag, std::size_t base) const
{
    return const_cast<Vtd *>(this)->find(tag, base);
}

Vtd::Entry &
Vtd::victimIn(std::size_t base, std::optional<Evicted> &out)
{
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
    Addr tag = sim::blockAlign(vte_addr);
    std::size_t base = setBase(tag);
    if (Entry *entry = find(tag, base)) {
        entry->sharers.set(core);
        entry->lastUse = ++useClock_;
        return std::nullopt;
    }
    std::optional<Evicted> evicted;
    Entry &entry = victimIn(base, evicted);
    entry.valid = true;
    entry.tag = tag;
    entry.sharers.reset();
    entry.sharers.set(core);
    entry.lastUse = ++useClock_;
    return evicted;
}

std::optional<mem::CoreMask>
Vtd::sharers(Addr vte_addr) const
{
    Addr tag = sim::blockAlign(vte_addr);
    const Entry *entry = find(tag, setBase(tag));
    if (!entry)
        return std::nullopt;
    return entry->sharers;
}

std::optional<mem::CoreMask>
Vtd::remove(Addr vte_addr)
{
    Addr tag = sim::blockAlign(vte_addr);
    Entry *entry = find(tag, setBase(tag));
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
    Addr tag = sim::blockAlign(vte_addr);
    std::size_t base = setBase(tag);
    if (find(tag, base) != nullptr)
        return std::nullopt; // already tracked precisely
    if (sharers.none())
        return std::nullopt;
    ++stats_.victims;
    std::optional<Evicted> evicted;
    Entry &entry = victimIn(base, evicted);
    entry.valid = true;
    entry.tag = tag;
    entry.sharers = sharers;
    entry.lastUse = ++useClock_;
    return evicted;
}

} // namespace jord::uat
