/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events scheduled at the same tick fire in insertion order (FIFO), which
 * together with the seeded RNG makes every simulation run bit-reproducible.
 * Pending events live in one calendar queue keyed by (when, seq).
 *
 * Callbacks do not travel with their keys. Each one moves once into a
 * slot of the queue's slot table when it is scheduled and once out when
 * it fires; the calendar queue sorts and heaps only 24-byte records that
 * name the slot. Freed slots are recycled through a free list, and a
 * fired or cancelled callback is destroyed when its record pops.
 */

#ifndef JORD_SIM_EVENT_QUEUE_HH
#define JORD_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_set>
#include <vector>

#include "sim/calendar_queue.hh"
#include "sim/types.hh"

namespace jord::sim {

/** Callback type invoked when an event fires. */
using EventFn = std::function<void()>;

/**
 * A time-ordered queue of callbacks with deterministic tie-breaking.
 *
 * The queue owns the notion of "now": curTick() advances only as events are
 * dispatched. Clients schedule callbacks at absolute ticks or relative
 * delays and drive the simulation with run() / runUntil() / step().
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick curTick() const { return curTick_; }

    /** Number of pending events. */
    std::size_t size() const { return queue_.size(); }

    /** True when no events are pending. */
    bool empty() const { return queue_.empty(); }

    /** Total number of events dispatched so far. */
    std::uint64_t numDispatched() const { return numDispatched_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must not be in the past.
     * @param fn Callback to invoke.
     * @return A handle that can be passed to cancel().
     */
    std::uint64_t schedule(Tick when, EventFn fn);

    /** Schedule a callback @p delay ticks after the current time. */
    std::uint64_t
    scheduleAfter(Cycles delay, EventFn fn)
    {
        return schedule(curTick_ + delay, std::move(fn));
    }

    /**
     * Schedule a *daemon* callback: observer events (the sampling
     * profiler) that must not count as simulated work. Daemon events
     * fire like regular events but do not advance lastWorkTick(), so
     * a trailing daemon event cannot stretch a run's measured window.
     */
    std::uint64_t scheduleDaemon(Tick when, EventFn fn);

    std::uint64_t
    scheduleDaemonAfter(Cycles delay, EventFn fn)
    {
        return scheduleDaemon(curTick_ + delay, std::move(fn));
    }

    /** Tick of the most recently dispatched non-daemon event. */
    Tick lastWorkTick() const { return lastWorkTick_; }

    /**
     * Cancel a previously scheduled event.
     *
     * @retval true if the event was pending and is now cancelled.
     * @retval false if it already fired, was already cancelled, or
     *     never existed. Stale handles are detected exactly (a dense
     *     liveness window tracks every in-flight handle), so a stale
     *     cancel can no longer plant a permanent tombstone.
     */
    bool cancel(std::uint64_t handle);

    /**
     * Cancelled-but-not-yet-popped entries (lazy-deletion tombstones).
     * Bounded by the pending-event count: each tombstone is purged
     * when its entry's tick passes. Exposed for the regression test.
     */
    std::size_t numTombstones() const { return cancelled_.size(); }

    /**
     * Dispatch the single next event.
     *
     * @retval true an event was dispatched.
     * @retval false the queue was empty.
     */
    bool step();

    /** Run until the queue drains. @return final tick. */
    Tick run();

    /**
     * Run until the queue drains or simulated time would exceed @p limit.
     * Events scheduled exactly at @p limit still fire.
     */
    Tick runUntil(Tick limit);

    /** Drop all pending events and reset time to zero. */
    void reset();

  private:
    /** Liveness-window entry states (indexed by handle - aliveBase_). */
    static constexpr unsigned char kPending = 1;
    static constexpr unsigned char kDone = 0;

    std::uint64_t push(Tick when, EventFn fn, bool daemon);
    /** Mark a handle fired/cancelled and trim the liveness window. */
    void retire(std::uint64_t handle);

    /**
     * Handles count up with seq, so a record's handle is derived, not
     * stored: handleBase_ is the handle of seq 0 in the current reset
     * epoch, and it only grows, so no handle is ever issued twice.
     */
    std::uint64_t
    handleOf(const EventRecord &rec) const
    {
        return handleBase_ + rec.seq;
    }

    /** Destroy a cancelled callback and recycle its slot. */
    void release(std::uint32_t slot);

    CalendarQueue queue_;
    /** Callbacks of the queued records, indexed by EventRecord::slot. */
    std::vector<EventFn> slots_;
    /** Slots whose record has popped, reused before slots_ grows. */
    std::vector<std::uint32_t> freeSlots_;
    Tick curTick_ = 0;
    Tick lastWorkTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t handleBase_ = 1;
    std::uint64_t numDispatched_ = 0;
    /**
     * Handles cancelled while still queued (lazy deletion). The
     * dense liveness window below guarantees only *pending* handles
     * enter this set, and dispatch purges each tombstone when its
     * entry pops at its tick — so the set is bounded by the in-flight
     * cancelled count instead of growing for the whole run.
     */
    std::unordered_set<std::uint64_t> cancelled_;
    /**
     * Sliding liveness window: entry (h - aliveBase_) says whether
     * handle h is still queued. Handles are issued sequentially, so a
     * deque indexed by handle is O(1) and compacts itself as the
     * oldest handles retire.
     */
    std::deque<unsigned char> alive_;
    std::uint64_t aliveBase_ = 1;

    bool isCancelled(std::uint64_t handle) const;
    void forgetCancelled(std::uint64_t handle);
};

} // namespace jord::sim

#endif // JORD_SIM_EVENT_QUEUE_HH
