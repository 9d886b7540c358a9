/**
 * @file
 * Open-addressed hash map keyed by cache-block address.
 *
 * The coherence engine looks a block up in its line table on every
 * access. This map keeps that lookup to one multiplicative hash and a
 * short linear probe over one flat array: power-of-two capacity, load
 * factor at most 1/2, backward-shift deletion (no tombstones). Keys must
 * be block-aligned; an unaligned sentinel marks empty slots.
 *
 * Growth and deletion move entries: a pointer or reference into the map
 * is valid only until the next insert or erase.
 */

#ifndef JORD_MEM_BLOCK_MAP_HH
#define JORD_MEM_BLOCK_MAP_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace jord::mem {

template <typename V>
class BlockMap
{
  public:
    BlockMap() : slots_(kMinCapacity), shift_(shiftFor(kMinCapacity)) {}

    std::size_t size() const { return size_; }

    /** The value stored for @p key, or null. */
    V *
    find(sim::Addr key)
    {
        for (std::size_t i = home(key);; i = next(i)) {
            Slot &slot = slots_[i];
            if (slot.key == key)
                return &slot.value;
            if (slot.key == kEmpty)
                return nullptr;
        }
    }

    const V *
    find(sim::Addr key) const
    {
        return const_cast<BlockMap *>(this)->find(key);
    }

    /** The value stored for @p key, value-initialised if new. */
    V &
    operator[](sim::Addr key)
    {
        std::size_t i = home(key);
        for (; slots_[i].key != kEmpty; i = next(i))
            if (slots_[i].key == key)
                return slots_[i].value;
        if (2 * (size_ + 1) > slots_.size()) {
            grow();
            i = freeSlot(key);
        }
        ++size_;
        slots_[i] = Slot{key, V{}};
        return slots_[i].value;
    }

    /** Remove @p key and return its value; nullopt if it was absent. */
    std::optional<V>
    erase(sim::Addr key)
    {
        std::size_t hole = home(key);
        for (; slots_[hole].key != key; hole = next(hole))
            if (slots_[hole].key == kEmpty)
                return std::nullopt;
        std::optional<V> removed = slots_[hole].value;
        // Backward shift: pull each later entry of the probe run into
        // the hole unless that would move it before its home slot.
        for (std::size_t i = next(hole); slots_[i].key != kEmpty;
             i = next(i)) {
            if (dist(home(slots_[i].key), i) >= dist(hole, i)) {
                slots_[hole] = slots_[i];
                hole = i;
            }
        }
        slots_[hole].key = kEmpty;
        --size_;
        return removed;
    }

    /** Drop every entry (keeps the capacity). */
    void
    clear()
    {
        for (Slot &slot : slots_)
            slot.key = kEmpty;
        size_ = 0;
    }

  private:
    struct Slot {
        sim::Addr key = kEmpty;
        V value{};
    };

    /** Never a block address, so it marks an empty slot. */
    static constexpr sim::Addr kEmpty = 1;
    static constexpr std::size_t kMinCapacity = 8;

    std::vector<Slot> slots_;
    /** 64 - log2(capacity): keeps the hash's top bits. */
    unsigned shift_;
    std::size_t size_ = 0;

    static unsigned
    shiftFor(std::size_t capacity)
    {
        return 64 - static_cast<unsigned>(std::countr_zero(capacity));
    }

    std::size_t
    home(sim::Addr key) const
    {
        return static_cast<std::size_t>(
            ((key / sim::kCacheBlockBytes) * 0x9e3779b97f4a7c15ull) >>
            shift_);
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    /** Probe distance from slot @p from forward to slot @p to. */
    std::size_t
    dist(std::size_t from, std::size_t to) const
    {
        return (to - from) & (slots_.size() - 1);
    }

    /** The first empty slot on @p key's probe path. */
    std::size_t
    freeSlot(sim::Addr key) const
    {
        std::size_t i = home(key);
        while (slots_[i].key != kEmpty)
            i = next(i);
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> old =
            std::exchange(slots_, std::vector<Slot>(2 * slots_.size()));
        shift_ = shiftFor(slots_.size());
        for (const Slot &slot : old)
            if (slot.key != kEmpty)
                slots_[freeSlot(slot.key)] = slot;
    }
};

} // namespace jord::mem

#endif // JORD_MEM_BLOCK_MAP_HH
