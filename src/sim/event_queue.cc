#include "sim/event_queue.hh"

#include "sim/logging.hh"

namespace jord::sim {

std::uint64_t
EventQueue::push(Tick when, EventFn fn, bool daemon)
{
    if (when < curTick_)
        panic("scheduling event in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(fn));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(fn);
    }
    std::uint64_t seq = nextSeq_++;
    alive_.push_back(kPending);
    queue_.push(EventRecord{when, seq, slot, daemon});
    return handleBase_ + seq;
}

std::uint64_t
EventQueue::schedule(Tick when, EventFn fn)
{
    return push(when, std::move(fn), false);
}

std::uint64_t
EventQueue::scheduleDaemon(Tick when, EventFn fn)
{
    return push(when, std::move(fn), true);
}

bool
EventQueue::isCancelled(std::uint64_t handle) const
{
    return !cancelled_.empty() && cancelled_.count(handle) != 0;
}

void
EventQueue::forgetCancelled(std::uint64_t handle)
{
    cancelled_.erase(handle);
}

void
EventQueue::release(std::uint32_t slot)
{
    slots_[slot] = nullptr;
    freeSlots_.push_back(slot);
}

void
EventQueue::retire(std::uint64_t handle)
{
    if (handle < aliveBase_)
        return; // window already slid past (reset() re-bases)
    alive_[handle - aliveBase_] = kDone;
    while (!alive_.empty() && alive_.front() == kDone) {
        alive_.pop_front();
        ++aliveBase_;
    }
}

bool
EventQueue::cancel(std::uint64_t handle)
{
    if (handle == 0 || handle >= handleBase_ + nextSeq_ ||
        handle < aliveBase_)
        return false;
    if (alive_[handle - aliveBase_] != kPending)
        return false; // already fired or already cancelled
    retire(handle);
    // The entry itself stays queued (lazy deletion); dispatch drops it,
    // destroys its callback and purges this tombstone when its tick
    // passes.
    cancelled_.insert(handle);
    return true;
}

bool
EventQueue::step()
{
    while (!queue_.empty()) {
        EventRecord entry = queue_.pop();
        std::uint64_t handle = handleOf(entry);
        if (isCancelled(handle)) {
            forgetCancelled(handle);
            release(entry.slot);
            continue;
        }
        retire(handle);
        curTick_ = entry.when;
        if (!entry.daemon)
            lastWorkTick_ = entry.when;
        ++numDispatched_;
        // Swap rather than move: the slot is then empty by contract,
        // and the callback dies with `fn` once it returns. The slot is
        // free before the call, so events the callback schedules can
        // reuse it.
        EventFn fn;
        fn.swap(slots_[entry.slot]);
        freeSlots_.push_back(entry.slot);
        fn();
        return true;
    }
    return false;
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return curTick_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    while (const EventRecord *next = queue_.peek()) {
        std::uint64_t handle = handleOf(*next);
        if (isCancelled(handle)) {
            // Drop tombstones before the limit check: step() would
            // skip a cancelled head inside the limit and dispatch
            // whatever live event follows it.
            forgetCancelled(handle);
            release(queue_.pop().slot);
            continue;
        }
        if (next->when > limit)
            break;
        step();
    }
    if (curTick_ < limit)
        curTick_ = limit;
    return curTick_;
}

void
EventQueue::reset()
{
    queue_.clear();
    slots_.clear();
    freeSlots_.clear();
    curTick_ = 0;
    lastWorkTick_ = 0;
    handleBase_ += nextSeq_;
    nextSeq_ = 0;
    numDispatched_ = 0;
    cancelled_.clear();
    alive_.clear();
    aliveBase_ = handleBase_;
}

} // namespace jord::sim
