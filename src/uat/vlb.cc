#include "uat/vlb.hh"

#include <bit>

#include "sim/logging.hh"

namespace jord::uat {

using sim::Addr;

Vlb::Vlb(unsigned entries)
{
    if (entries == 0)
        sim::fatal("VLB must have at least one entry");
    if (entries > 64)
        sim::fatal("VLB of %u entries: at most 64 are supported", entries);
    entries_.assign(entries, VlbEntry{});
}

const VlbEntry *
Vlb::lookup(Addr va, PdId pd)
{
    for (std::uint64_t live = valid_; live; live &= live - 1) {
        VlbEntry &entry = entries_[std::countr_zero(live)];
        if (va < entry.base || va - entry.base >= entry.bound)
            continue;
        if (!entry.global && entry.pd != pd)
            continue;
        entry.lastUse = ++useClock_;
        ++stats_.hits;
        return &entry;
    }
    ++stats_.misses;
    return nullptr;
}

unsigned
Vlb::victimFor(const VlbEntry &entry)
{
    // Replace in place any existing entry the new fill supersedes:
    // same VTE with overlapping lookup visibility (same PD, or either
    // entry global). Requiring identical {PD, G} here left a stale
    // duplicate behind when a permission change flipped the G bit
    // between two fills of the same VTE.
    for (std::uint64_t live = valid_; live; live &= live - 1) {
        auto i = static_cast<unsigned>(std::countr_zero(live));
        const VlbEntry &slot = entries_[i];
        if (slot.vteAddr == entry.vteAddr &&
            (slot.global || entry.global || slot.pd == entry.pd))
            return i;
    }
    std::uint64_t invalid = ~valid_;
    if (entries_.size() < 64)
        invalid &= (1ull << entries_.size()) - 1;
    if (invalid)
        return static_cast<unsigned>(std::countr_zero(invalid));
    unsigned lru = 0;
    for (unsigned i = 1; i < entries_.size(); ++i)
        if (entries_[i].lastUse < entries_[lru].lastUse)
            lru = i;
    if (entries_[lru].vteAddr != entry.vteAddr)
        ++stats_.evictions;
    return lru;
}

void
Vlb::insert(const VlbEntry &entry)
{
    unsigned victim = victimFor(entry);
    entries_[victim] = entry;
    entries_[victim].lastUse = ++useClock_;
    valid_ |= 1ull << victim;
}

unsigned
Vlb::invalidateVte(Addr vte_addr)
{
    unsigned n = 0;
    for (std::uint64_t live = valid_; live; live &= live - 1) {
        auto i = static_cast<unsigned>(std::countr_zero(live));
        if (entries_[i].vteAddr == vte_addr) {
            valid_ &= ~(1ull << i);
            ++n;
        }
    }
    stats_.shootdowns += n;
    return n;
}

void
Vlb::invalidateAll()
{
    valid_ = 0;
}

bool
Vlb::holdsVte(Addr vte_addr) const
{
    for (std::uint64_t live = valid_; live; live &= live - 1)
        if (entries_[std::countr_zero(live)].vteAddr == vte_addr)
            return true;
    return false;
}

unsigned
Vlb::occupancy() const
{
    return static_cast<unsigned>(std::popcount(valid_));
}

} // namespace jord::uat
