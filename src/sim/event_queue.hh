/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events scheduled at the same tick fire in insertion order (FIFO), which
 * together with the seeded RNG makes every simulation run bit-reproducible.
 *
 * Pending events live in a one-tick timing wheel (Varghese & Lauck, SOSP
 * 1987). A ring of kRingSize slots holds, for each tick t in [cursor,
 * cursor + kRingSize), a FIFO list of the events at t; the cursor is the
 * tick of the last dispatched event. Events beyond that horizon wait in a
 * (when, seq) min-heap and move onto the ring, in heap order, as soon as
 * the cursor brings their tick inside it. A far event thus joins its slot
 * before any event can be scheduled into that slot directly, so each
 * slot's FIFO order is insertion order and dispatch is exactly (when,
 * insertion) order, with no sort and no tuning.
 *
 * Each pending event is a node of one table that also holds its callback.
 * A handle names a node and the node's generation, which grows whenever
 * the node is taken or freed: cancel() is one compare, a cancelled node
 * is dropped when it pops, and no handle is ever issued twice.
 */

#ifndef JORD_SIM_EVENT_QUEUE_HH
#define JORD_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "sim/zeroed_array.hh"

namespace jord::sim {

/**
 * Callback invoked when an event fires: a move-only callable stored
 * inline, so scheduling an event never allocates.
 *
 * A callable's captures must fit kCapacity bytes, which construction
 * checks at compile time. That is `this` plus two words: event
 * closures carry an owner and slot numbers into the owner's tables,
 * never the records themselves. Callables that are trivially copyable
 * move as plain bytes and need no destructor call.
 */
class EventFn
{
  public:
    /** Inline capture budget in bytes. */
    static constexpr std::size_t kCapacity = 24;

    EventFn() noexcept = default;

    template <typename F,
              typename Fn = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<Fn, EventFn> &&
                                          std::is_invocable_r_v<void, Fn &>>>
    EventFn(F &&f) // implicit, so a lambda converts at schedule()
    {
        static_assert(sizeof(Fn) <= kCapacity,
                      "event callback captures exceed EventFn's inline "
                      "budget: capture slot numbers, not records");
        static_assert(alignof(Fn) <= alignof(std::uint64_t),
                      "event callback is over-aligned");
        static_assert(std::is_nothrow_move_constructible_v<Fn>,
                      "event callback must move without throwing");
        ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
        ops_ = &kOps<Fn>;
    }

    EventFn(EventFn &&other) noexcept { take(other); }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Call the callable; it must be set. */
    void operator()() { ops_->call(buf_); }

    /** Destroy the callable, leaving the EventFn empty. */
    void
    reset() noexcept
    {
        if (ops_ && ops_->destroy)
            ops_->destroy(buf_);
        ops_ = nullptr;
    }

  private:
    /** Per-type operations. Null relocate and destroy mean the type is
     * trivially copyable: its bytes move with memcpy and need no
     * destructor. */
    struct Ops {
        void (*call)(void *self);
        /** Move-construct at @p to from @p from, then destroy @p from. */
        void (*relocate)(void *to, void *from);
        void (*destroy)(void *self);
    };

    template <typename Fn>
    static constexpr bool kTrivial = std::is_trivially_copyable_v<Fn>;

    template <typename Fn>
    static Fn *
    as(void *buf)
    {
        return std::launder(static_cast<Fn *>(buf));
    }

    template <typename Fn>
    static constexpr Ops kOps = {
        [](void *self) { (*as<Fn>(self))(); },
        kTrivial<Fn> ? nullptr
                     : +[](void *to, void *from) {
                           Fn *src = as<Fn>(from);
                           ::new (to) Fn(std::move(*src));
                           src->~Fn();
                       },
        kTrivial<Fn> ? nullptr : +[](void *self) { as<Fn>(self)->~Fn(); },
    };

    /** Move @p other's callable here; this EventFn must be empty. */
    void
    take(EventFn &other) noexcept
    {
        ops_ = other.ops_;
        if (!ops_)
            return;
        if (ops_->relocate)
            ops_->relocate(buf_, other.buf_);
        else
            std::memcpy(buf_, other.buf_, kCapacity);
        other.ops_ = nullptr;
    }

    alignas(std::uint64_t) unsigned char buf_[kCapacity];
    const Ops *ops_ = nullptr;
};

static_assert(sizeof(EventFn) == 32, "an event node must stay 48 bytes");

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
    EventQueue() : nodes_(1) {}

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick curTick() const { return curTick_; }

    /** Number of pending events, cancelled ones included until they pop. */
    std::size_t size() const { return pending_; }

    /** True when no events are pending (cancelled ones count until popped). */
    bool empty() const { return pending_ == 0; }

    /** Total number of events dispatched so far. */
    std::uint64_t numDispatched() const { return numDispatched_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must not be in the past.
     * @param fn Callback to invoke.
     * @return A handle that can be passed to cancel(); never 0.
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
     * @retval false if it already fired, was already cancelled, was
     *     dropped by reset(), or never existed. The handle's generation
     *     must match its node's, so a stale handle never reaches the
     *     event that reuses its node.
     */
    bool cancel(std::uint64_t handle);

    /**
     * Cancelled events not yet popped. Each is dropped, and its callback
     * destroyed, when its tick comes up. Exposed for the regression test.
     */
    std::size_t numTombstones() const { return numCancelled_; }

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
    static constexpr std::size_t kRingSize = std::size_t{1} << 14;
    static constexpr std::size_t kRingWords = kRingSize / 64;
    static_assert(kRingWords % 64 == 0, "whole words of occupiedWords_");

    /**
     * A pending event, or a free node. The generation is odd while the
     * node is pending and even while it is free; a handle carries the
     * odd value it was issued with.
     */
    struct Node {
        EventFn fn;
        /** Next node in the same ring slot or on the free list; 0 ends. */
        std::uint32_t next = 0;
        std::uint32_t gen = 0;
        bool cancelled = false;
        bool daemon = false;
    };

    /** A ring slot's FIFO list. Node 0 is never used, so 0 is "empty". */
    struct Slot {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** An event beyond the ring's horizon. */
    struct Far {
        Tick when;
        std::uint64_t seq;
        std::uint32_t node;
    };

    /** Move @p fn into a free node and queue it at @p when. */
    std::uint64_t push(Tick when, EventFn &fn, bool daemon);
    /** Pop and dispatch the next live event if it is due by @p limit. */
    bool dispatchNext(Tick limit);
    /** Make @p when the cursor and pull far events inside the horizon. */
    void advance(Tick when);
    void link(std::uint32_t node, Tick when);
    std::uint32_t unlinkHead(std::size_t slot);
    /** The first occupied slot at or after @p from, or kRingSize. */
    std::size_t firstOccupied(std::size_t from) const;
    /** Destroy a node's callback and free the node. */
    void release(std::uint32_t node);

    /** Node table; node 0 is a sentinel. */
    std::vector<Node> nodes_;
    /** Head of the free-node list. */
    std::uint32_t free_ = 0;
    /** Zero pages, so construction touches none of the ring. */
    ZeroedArray<Slot> ring_{kRingSize};
    /** Bit s set when ring slot s is non-empty. */
    std::array<std::uint64_t, kRingWords> occupied_{};
    /** Bit w set when occupied_[w] is non-zero. */
    std::array<std::uint64_t, kRingWords / 64> occupiedWords_{};
    /** Min-heap on (when, seq) of the events beyond the ring. */
    std::vector<Far> far_;
    std::uint64_t farSeq_ = 0;
    /** Tick of the last dispatched event; the ring covers the next
     * kRingSize ticks from here. runUntil() never moves it. */
    Tick cursor_ = 0;
    Tick curTick_ = 0;
    Tick lastWorkTick_ = 0;
    /** Ring plus far events, cancelled ones included. */
    std::size_t pending_ = 0;
    std::size_t numCancelled_ = 0;
    std::uint64_t numDispatched_ = 0;
};

} // namespace jord::sim

#endif // JORD_SIM_EVENT_QUEUE_HH
