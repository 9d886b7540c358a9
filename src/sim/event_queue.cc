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
    std::uint64_t handle = nextHandle_++;
    alive_.push_back(kPending);
    queue_.push(EventRecord{when, nextSeq_++, handle, std::move(fn), daemon});
    return handle;
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
    return cancelled_.count(handle) != 0;
}

void
EventQueue::forgetCancelled(std::uint64_t handle)
{
    cancelled_.erase(handle);
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
    if (handle == 0 || handle >= nextHandle_ || handle < aliveBase_)
        return false;
    if (alive_[handle - aliveBase_] != kPending)
        return false; // already fired or already cancelled
    retire(handle);
    // The entry itself stays queued (lazy deletion); dispatch drops it
    // and purges this tombstone when its tick passes.
    cancelled_.insert(handle);
    return true;
}

bool
EventQueue::step()
{
    while (!queue_.empty()) {
        EventRecord entry = queue_.pop();
        if (isCancelled(entry.handle)) {
            forgetCancelled(entry.handle);
            continue;
        }
        retire(entry.handle);
        curTick_ = entry.when;
        if (!entry.daemon)
            lastWorkTick_ = entry.when;
        ++numDispatched_;
        entry.fn();
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
    while (!queue_.empty() && queue_.peek()->when <= limit)
        step();
    if (curTick_ < limit)
        curTick_ = limit;
    return curTick_;
}

void
EventQueue::reset()
{
    queue_.clear();
    curTick_ = 0;
    lastWorkTick_ = 0;
    nextSeq_ = 0;
    numDispatched_ = 0;
    cancelled_.clear();
    alive_.clear();
    aliveBase_ = nextHandle_;
}

} // namespace jord::sim
