#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace jord::sim {

namespace {

/** Min-heap order on (when, seq) (std heaps are max-heaps). */
struct Later {
    template <typename F>
    bool
    operator()(const F &a, const F &b) const
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
};

} // namespace

std::uint64_t
EventQueue::push(Tick when, EventFn &fn, bool daemon)
{
    if (when < curTick_)
        panic("scheduling event in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    std::uint32_t n = free_;
    if (n != 0) {
        free_ = nodes_[n].next;
    } else {
        n = static_cast<std::uint32_t>(nodes_.size());
        nodes_.emplace_back();
    }
    Node &node = nodes_[n];
    node.fn = std::move(fn);
    node.cancelled = false;
    node.daemon = daemon;
    std::uint64_t handle = (std::uint64_t{++node.gen} << 32) | n;
    ++pending_;
    // curTick_ >= cursor_, so the difference cannot wrap.
    if (when - cursor_ < kRingSize) {
        link(n, when);
    } else {
        far_.push_back(Far{when, farSeq_++, n});
        std::push_heap(far_.begin(), far_.end(), Later{});
    }
    return handle;
}

std::uint64_t
EventQueue::schedule(Tick when, EventFn fn)
{
    return push(when, fn, false);
}

std::uint64_t
EventQueue::scheduleDaemon(Tick when, EventFn fn)
{
    return push(when, fn, true);
}

void
EventQueue::link(std::uint32_t n, Tick when)
{
    std::size_t s = when & (kRingSize - 1);
    Slot &slot = ring_[s];
    nodes_[n].next = 0;
    if (slot.tail != 0) {
        nodes_[slot.tail].next = n;
    } else {
        slot.head = n;
        occupied_[s / 64] |= std::uint64_t{1} << (s % 64);
        occupiedWords_[s / 4096] |= std::uint64_t{1} << (s / 64 % 64);
    }
    slot.tail = n;
}

std::uint32_t
EventQueue::unlinkHead(std::size_t s)
{
    Slot &slot = ring_[s];
    std::uint32_t n = slot.head;
    slot.head = nodes_[n].next;
    if (slot.head == 0) {
        slot.tail = 0;
        std::uint64_t &word = occupied_[s / 64];
        word &= ~(std::uint64_t{1} << (s % 64));
        if (word == 0)
            occupiedWords_[s / 4096] &=
                ~(std::uint64_t{1} << (s / 64 % 64));
    }
    return n;
}

std::size_t
EventQueue::firstOccupied(std::size_t from) const
{
    std::size_t w = from / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (from % 64));
    if (bits != 0)
        return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    for (std::size_t q = w + 1; q < kRingWords; q = (q | 63) + 1) {
        std::uint64_t words =
            occupiedWords_[q / 64] & (~std::uint64_t{0} << (q % 64));
        if (words != 0) {
            std::size_t at = (q & ~std::size_t{63}) +
                             static_cast<std::size_t>(
                                 std::countr_zero(words));
            return at * 64 + static_cast<std::size_t>(
                                 std::countr_zero(occupied_[at]));
        }
    }
    return kRingSize;
}

void
EventQueue::advance(Tick when)
{
    cursor_ = when;
    // Every far event lies at or after `when`, the earliest pending
    // tick. Moving them in heap order keeps each slot in seq order.
    while (!far_.empty() && far_.front().when - when < kRingSize) {
        std::pop_heap(far_.begin(), far_.end(), Later{});
        link(far_.back().node, far_.back().when);
        far_.pop_back();
    }
}

void
EventQueue::release(std::uint32_t n)
{
    Node &node = nodes_[n];
    node.fn.reset();
    // A node whose generation wraps is retired rather than reused, so
    // no handle is issued twice.
    if (++node.gen != 0) {
        node.next = free_;
        free_ = n;
    }
}

bool
EventQueue::cancel(std::uint64_t handle)
{
    // Issued handles carry an odd (pending) generation.
    auto n = static_cast<std::uint32_t>(handle);
    if (n >= nodes_.size() || (handle >> 32) % 2 == 0)
        return false;
    Node &node = nodes_[n];
    if (node.gen != handle >> 32 || node.cancelled)
        return false; // fired, dropped, or already cancelled
    // The node stays queued (lazy deletion); dispatch drops it and
    // destroys its callback when its tick comes up.
    node.cancelled = true;
    ++numCancelled_;
    return true;
}

bool
EventQueue::dispatchNext(Tick limit)
{
    while (pending_ != 0) {
        // Ring events all precede far ones; find the earliest without
        // moving the cursor, so a peek past the limit changes nothing.
        Tick when;
        std::uint32_t n;
        if (pending_ != far_.size()) {
            std::size_t s = firstOccupied(cursor_ & (kRingSize - 1));
            if (s == kRingSize)
                s = firstOccupied(0);
            when = cursor_ + ((s - cursor_) & (kRingSize - 1));
            n = ring_[s].head;
            // Cancelled heads are dropped before the limit check, so a
            // tombstone inside the limit cannot let a later event fire.
            if (!nodes_[n].cancelled && when > limit)
                return false;
            unlinkHead(s);
        } else {
            when = far_.front().when;
            n = far_.front().node;
            if (!nodes_[n].cancelled && when > limit)
                return false;
            std::pop_heap(far_.begin(), far_.end(), Later{});
            far_.pop_back();
        }
        --pending_;
        Node &node = nodes_[n];
        if (node.cancelled) {
            --numCancelled_;
            release(n);
            continue;
        }
        if (when != cursor_)
            advance(when);
        curTick_ = when;
        if (!node.daemon)
            lastWorkTick_ = when;
        ++numDispatched_;
        // Moving leaves the node empty, and the callback dies with `fn`
        // once it returns. The node is free before the call, so events
        // the callback schedules can reuse it.
        EventFn fn = std::move(node.fn);
        release(n);
        fn();
        return true;
    }
    return false;
}

bool
EventQueue::step()
{
    return dispatchNext(kTickMax);
}

Tick
EventQueue::run()
{
    while (dispatchNext(kTickMax)) {
    }
    return curTick_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (dispatchNext(limit)) {
    }
    if (curTick_ < limit)
        curTick_ = limit;
    return curTick_;
}

void
EventQueue::reset()
{
    for (std::size_t s; (s = firstOccupied(0)) != kRingSize;)
        release(unlinkHead(s));
    for (const Far &f : far_)
        release(f.node);
    far_.clear();
    farSeq_ = 0;
    cursor_ = 0;
    curTick_ = 0;
    lastWorkTick_ = 0;
    pending_ = 0;
    numCancelled_ = 0;
    numDispatched_ = 0;
}

} // namespace jord::sim
