#include "uat/vma_table.hh"

#include "sim/logging.hh"

namespace jord::uat {

using sim::Addr;

// --- VmaTableBase: overflow sharer lists -----------------------------

std::vector<SubEntry> &
VmaTableBase::overflowList(const Vte &vte)
{
    auto *mutable_vte = const_cast<Vte *>(&vte);
    if (mutable_vte->ptr == 0)
        mutable_vte->ptr = nextOverflowId_++;
    return overflow_[mutable_vte->ptr];
}

const std::vector<SubEntry> *
VmaTableBase::overflowListIfAny(const Vte &vte) const
{
    if (vte.ptr == 0)
        return nullptr;
    auto it = overflow_.find(vte.ptr);
    return it == overflow_.end() ? nullptr : &it->second;
}

void
VmaTableBase::clearOverflow(Vte &vte)
{
    if (vte.ptr != 0) {
        overflow_.erase(vte.ptr);
        vte.ptr = 0;
    }
}

std::optional<Perm>
VmaTableBase::permFor(const Vte &vte, PdId pd) const
{
    if (!vte.valid())
        return std::nullopt;
    if (vte.global())
        return vte.globalPerm();
    if (const SubEntry *entry = vte.findSub(pd))
        return entry->perm();
    if (const auto *extra = overflowListIfAny(vte)) {
        for (const auto &entry : *extra)
            if (entry.valid() && entry.pd() == pd)
                return entry.perm();
    }
    return std::nullopt;
}

// --- PlainListVmaTable ------------------------------------------------

PlainListVmaTable::PlainListVmaTable(const VaEncoding &encoding)
    : encoding_(encoding), slots_(encoding.tableCapacity())
{
}

bool
PlainListVmaTable::contains(Addr addr) const
{
    return addr >= kVmaTableBase &&
           addr < kVmaTableBase +
                      slots_.size() * sim::kCacheBlockBytes;
}

std::optional<std::uint64_t>
PlainListVmaTable::slotFor(Addr va) const
{
    auto decoded = encoding_.decode(va);
    if (!decoded)
        return std::nullopt;
    std::uint64_t slot = encoding_.slotOf(decoded->sizeClass,
                                          decoded->index);
    if (slot >= slots_.size())
        return std::nullopt;
    return slot;
}

TableWalk
PlainListVmaTable::walk(Addr va) const
{
    TableWalk out;
    auto slot = slotFor(va);
    if (!slot)
        return out;
    out.vteAddr = kVmaTableBase + *slot * sim::kCacheBlockBytes;
    out.readAddrs.push_back(out.vteAddr);
    out.vte = &slots_[*slot];
    auto decoded = encoding_.decode(va);
    out.vmaBase = encoding_.encode(decoded->sizeClass, decoded->index);
    return out;
}

Vte *
PlainListVmaTable::vteFor(Addr vma_base)
{
    auto slot = slotFor(vma_base);
    if (!slot)
        return nullptr;
    return &slots_[*slot];
}

Addr
PlainListVmaTable::vteAddrOf(Addr vma_base) const
{
    auto slot = slotFor(vma_base);
    return slot ? kVmaTableBase + *slot * sim::kCacheBlockBytes : 0;
}

TableUpdate
PlainListVmaTable::noteInsert(Addr vma_base)
{
    // Plain list: the slot preexists; the VTE write itself (charged by
    // the caller) is the whole update.
    TableUpdate upd;
    upd.ok = slotFor(vma_base).has_value();
    if (upd.ok)
        ++numValid_;
    return upd;
}

TableUpdate
PlainListVmaTable::noteRemove(Addr vma_base)
{
    TableUpdate upd;
    upd.ok = slotFor(vma_base).has_value();
    if (upd.ok && numValid_ > 0)
        --numValid_;
    return upd;
}

} // namespace jord::uat
