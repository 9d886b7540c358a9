/**
 * @file
 * Unit tests for the deterministic event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using jord::sim::EventQueue;
using jord::sim::Tick;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, SameTickEventsFireInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&] {
        q.scheduleAfter(50, [&] { seen = q.curTick(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    // Each link schedules the next one; the callback captures only a
    // pointer to the chain's state.
    struct Chain {
        EventQueue &q;
        int count = 0;

        void
        link()
        {
            if (++count < 100)
                q.scheduleAfter(1, [this] { link(); });
        }
    };
    EventQueue q;
    Chain chain{q};
    q.schedule(0, [&chain] { chain.link(); });
    q.run();
    EXPECT_EQ(chain.count, 100);
    EXPECT_EQ(q.curTick(), 99u);
}

TEST(EventQueue, CancelPreventsDispatch)
{
    EventQueue q;
    bool fired = false;
    auto handle = q.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(handle));
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndRejectsBogusHandles)
{
    EventQueue q;
    auto handle = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(handle));
    EXPECT_FALSE(q.cancel(handle));
    EXPECT_FALSE(q.cancel(0));
    EXPECT_FALSE(q.cancel(9999));
    q.run();
}

TEST(EventQueue, CancelOneOfManyAtSameTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(0); });
    auto mid = q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.cancel(mid);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(10, [&] { fired.push_back(10); });
    q.schedule(20, [&] { fired.push_back(20); });
    q.schedule(30, [&] { fired.push_back(30); });
    q.runUntil(20);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(q.curTick(), 20u);
    EXPECT_EQ(q.size(), 1u);
    q.run();
    EXPECT_EQ(fired.back(), 30u);
}

TEST(EventQueue, RunUntilSkipsCancelledHead)
{
    // A cancelled event inside the limit heads the queue; the live
    // event behind it lies past the limit and must not fire.
    EventQueue q;
    std::vector<Tick> fired;
    auto early = q.schedule(10, [&] { fired.push_back(10); });
    q.schedule(100, [&] { fired.push_back(100); });
    EXPECT_TRUE(q.cancel(early));
    q.runUntil(50);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(q.curTick(), 50u);
    EXPECT_EQ(q.numTombstones(), 0u);
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{100}));
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.curTick(), 500u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.step();
    q.reset();
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ResetInvalidatesOldHandles)
{
    EventQueue q;
    auto stale = q.schedule(10, [] {});
    q.reset();
    EXPECT_TRUE(q.empty());
    // Handles from before the reset are stale, not cancellable.
    EXPECT_FALSE(q.cancel(stale));
    bool fired = false;
    q.schedule(5, [&] { fired = true; });
    q.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, CountsDispatchedEvents)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.numDispatched(), 7u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.step();
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
}

TEST(EventQueue, CancelOfFiredHandleIsRejected)
{
    // Regression (issue 10): cancelling an already-fired handle used to
    // return true and plant a tombstone that was never purged.
    EventQueue q;
    auto handle = q.schedule(10, [] {});
    q.run();
    EXPECT_FALSE(q.cancel(handle));
    EXPECT_EQ(q.numTombstones(), 0u);
}

TEST(EventQueue, TombstonesArePurgedWhenTheirTickPasses)
{
    EventQueue q;
    std::vector<std::uint64_t> handles;
    for (int i = 0; i < 100; ++i)
        handles.push_back(q.schedule(static_cast<Tick>(10 + i), [] {}));
    for (std::uint64_t h : handles)
        EXPECT_TRUE(q.cancel(h));
    EXPECT_EQ(q.numTombstones(), 100u);
    q.run();
    EXPECT_EQ(q.numTombstones(), 0u);
    EXPECT_EQ(q.numDispatched(), 0u);
}

TEST(EventQueue, TombstoneSetStaysBoundedUnderChurn)
{
    // Hedged cluster runs schedule-then-cancel constantly; the set must
    // track only in-flight cancellations, not the whole run's history.
    EventQueue q;
    for (int round = 0; round < 1000; ++round) {
        auto keep = q.schedule(q.curTick() + 1, [] {});
        auto drop = q.schedule(q.curTick() + 2, [] {});
        EXPECT_TRUE(q.cancel(drop));
        // Stale re-cancel of a long-gone handle must stay rejected.
        if (keep > 10) {
            EXPECT_FALSE(q.cancel(keep - 10));
        }
        while (!q.empty())
            q.step();
        EXPECT_LE(q.numTombstones(), 1u);
    }
    EXPECT_EQ(q.numTombstones(), 0u);
}

TEST(EventQueue, FiredCallbackIsReleasedWhenItFires)
{
    // The slot table destroys a callback when its record pops, not
    // when the slot is next reused: nothing is scheduled after this
    // event, and its capture must still be gone once it has fired.
    EventQueue q;
    auto owned = std::make_shared<int>(7);
    std::weak_ptr<int> watch = owned;
    int seen = 0;
    q.schedule(10, [&seen, owned] { seen = *owned; });
    owned.reset();
    EXPECT_FALSE(watch.expired());
    EXPECT_TRUE(q.step());
    EXPECT_EQ(seen, 7);
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, CancelledCallbackIsReleasedWhenItsRecordDrains)
{
    EventQueue q;
    auto owned = std::make_shared<int>(7);
    std::weak_ptr<int> watch = owned;
    bool fired = false;
    auto handle = q.schedule(10, [&fired, owned] { fired = true; });
    owned.reset();
    EXPECT_TRUE(q.cancel(handle));
    q.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(q.numTombstones(), 0u);
    EXPECT_TRUE(watch.expired());
}

TEST(EventQueue, StaleHandleCannotCancelItsSlotsNextEvent)
{
    // The cancelled event's slot is recycled for the next schedule;
    // its old handle must not reach the new occupant.
    EventQueue q;
    auto stale = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(stale));
    q.run();
    bool fired = false;
    auto fresh = q.schedule(20, [&] { fired = true; });
    EXPECT_NE(fresh, stale);
    EXPECT_FALSE(q.cancel(stale));
    q.run();
    EXPECT_TRUE(fired);
    EXPECT_EQ(q.numDispatched(), 1u);
}

/**
 * A callable that counts how often a live (not moved-from) copy of it
 * is destroyed. Moving transfers liveness, so relocations inside the
 * queue count nothing and a leak or a double destroy shows.
 */
struct CountedCall {
    int *destroyed;
    int *called;
    bool live = true;

    CountedCall(int *d, int *c) : destroyed(d), called(c) {}
    CountedCall(CountedCall &&other) noexcept
        : destroyed(other.destroyed), called(other.called),
          live(other.live)
    {
        other.live = false;
    }
    CountedCall(const CountedCall &) = delete;
    CountedCall &operator=(const CountedCall &) = delete;
    CountedCall &operator=(CountedCall &&) = delete;
    ~CountedCall()
    {
        if (live)
            ++*destroyed;
    }

    void operator()() { ++*called; }
};

static_assert(sizeof(CountedCall) <= jord::sim::EventFn::kCapacity);

TEST(EventFn, FiredCaptureIsDestroyedExactlyOnce)
{
    EventQueue q;
    int destroyed = 0;
    int called = 0;
    q.schedule(10, CountedCall(&destroyed, &called));
    // Force node-table growth while the capture is pending.
    for (int i = 0; i < 64; ++i)
        q.schedule(static_cast<Tick>(20 + i), [] {});
    EXPECT_EQ(destroyed, 0);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(called, 1);
    EXPECT_EQ(destroyed, 1);
    q.run();
    EXPECT_EQ(destroyed, 1);
}

TEST(EventFn, CancelledCaptureIsDestroyedOnceWhenItPops)
{
    EventQueue q;
    int destroyed = 0;
    int called = 0;
    auto handle = q.schedule(10, CountedCall(&destroyed, &called));
    q.schedule(20, [] {});
    EXPECT_TRUE(q.cancel(handle));
    EXPECT_EQ(destroyed, 0);
    EXPECT_TRUE(q.step()); // drops the cancelled node, fires tick 20
    EXPECT_EQ(destroyed, 1);
    q.run();
    EXPECT_EQ(called, 0);
    EXPECT_EQ(destroyed, 1);
}

TEST(EventFn, CaptureDroppedByResetIsDestroyedOnce)
{
    EventQueue q;
    int destroyed = 0;
    int called = 0;
    q.schedule(10, CountedCall(&destroyed, &called));
    q.schedule(std::uint64_t{1} << 40, CountedCall(&destroyed, &called));
    q.reset();
    EXPECT_EQ(destroyed, 2);
    q.schedule(5, [] {});
    q.run();
    EXPECT_EQ(called, 0);
    EXPECT_EQ(destroyed, 2);
}

TEST(EventFn, MoveOnlyCaptureRunsAndIsFreed)
{
    EventQueue q;
    int freed = 0;
    auto deleter = [&freed](int *p) {
        ++freed;
        delete p;
    };
    std::unique_ptr<int, decltype(deleter)> owned(new int(7), deleter);
    int seen = 0;
    q.schedule(10, [&seen, p = std::move(owned)] { seen = *p; });
    EXPECT_EQ(freed, 0);
    q.run();
    EXPECT_EQ(seen, 7);
    EXPECT_EQ(freed, 1);
}

TEST(EventFn, MovesLeaveTheSourceEmpty)
{
    int destroyed = 0;
    int called = 0;
    jord::sim::EventFn a = CountedCall(&destroyed, &called);
    jord::sim::EventFn b = std::move(a);
    EXPECT_FALSE(a);
    ASSERT_TRUE(b);
    b();
    a = std::move(b);
    EXPECT_FALSE(b);
    a();
    EXPECT_EQ(called, 2);
    EXPECT_EQ(destroyed, 0);
    a.reset();
    EXPECT_FALSE(a);
    EXPECT_EQ(destroyed, 1);
}

TEST(EventQueue, CalendarStorageMatchesReferenceOrder)
{
    // Deterministic pseudo-random schedule with wide tick spans (on
    // the ring and beyond its horizon) and dense same-tick ties: the
    // storage must reproduce exact (when, insertion) dispatch order.
    EventQueue q;
    struct Log {
        EventQueue &q;
        std::vector<std::pair<Tick, int>> fired;
    } log{q, {}};
    std::uint64_t lcg = 12345;
    auto next = [&lcg](std::uint64_t mod) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg >> 33) % mod;
    };
    std::vector<std::pair<Tick, int>> expected;
    int id = 0;
    for (int i = 0; i < 500; ++i) {
        // Mix near ticks, far ticks, and exact ties.
        Tick when = (i % 3 == 0) ? next(50)
                    : (i % 3 == 1) ? next(100000)
                                   : 42;
        int tag = id++;
        expected.emplace_back(when, tag);
        q.schedule(when, [&log, when, tag] {
            log.fired.emplace_back(when, tag);
            EXPECT_EQ(log.q.curTick(), when);
        });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    q.run();
    EXPECT_EQ(log.fired, expected);
}

TEST(EventQueue, ScheduleBehindARolledOverCalendarYear)
{
    // runUntil() peeks past its limit at the only (far-future) event.
    // The peek must not move the ring's cursor, so a schedule that
    // then lands between the limit and that event is stored on the
    // ring it still covers and fires first.
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(1000000, [&] { fired.push_back(q.curTick()); });
    q.runUntil(10);
    EXPECT_EQ(q.curTick(), 10u);
    q.schedule(100, [&] { fired.push_back(q.curTick()); });
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{100, 1000000}));
}

/**
 * Drives an EventQueue and a reference ordered by (when, insertion) in
 * lockstep. Every callback checks that it is the reference's earliest
 * live event, then may schedule and cancel more.
 */
class Differential
{
  public:
    /** Ring size of the queue under test: schedules this far ahead
     * wait beyond its horizon. */
    static constexpr Tick kHorizon = Tick{1} << 14;

    enum class State { Pending, Fired, Cancelled, Reset };

    EventQueue q;
    jord::sim::Rng rng{20261018};
    /** Live pending events: (when, insertion) -> tag. */
    std::map<std::pair<Tick, std::uint64_t>, std::size_t> ref;
    std::vector<std::pair<Tick, std::uint64_t>> keyOf;
    std::vector<std::uint64_t> handleOf;
    std::vector<State> stateOf;
    std::uint64_t inserted = 0;
    /** Tick of the last dispatch: the queue's ring covers the next
     * kHorizon ticks from here. */
    Tick lastFired = 0;
    /** Pending beyond-the-horizon schedules by tick, for later ties. */
    std::map<Tick, unsigned> farTicks;

    std::size_t fired = 0;
    std::size_t directTiesWithFar = 0;
    std::size_t schedulesBehindFar = 0;
    std::size_t cancelsByState[4] = {0, 0, 0, 0};

    void
    schedule(Tick when)
    {
        std::size_t tag = handleOf.size();
        auto key = std::make_pair(when, inserted++);
        bool far = when - lastFired >= kHorizon;
        if (far)
            ++farTicks[when];
        else if (farTicks.count(when))
            ++directTiesWithFar;
        ref.emplace(key, tag);
        keyOf.push_back(key);
        stateOf.push_back(State::Pending);
        handleOf.push_back(q.schedule(when, [this, tag] { fire(tag); }));
    }

    /** A delay mixing ties, near, mid-ring, far and exact far ticks. */
    Tick
    pickWhen()
    {
        Tick now = q.curTick();
        switch (rng.uniformInt(6)) {
        case 0:
            return now;
        case 1:
            return now + rng.uniformInt(64);
        case 2:
            return now + rng.uniformInt(kHorizon);
        case 3:
            return now + kHorizon + rng.uniformInt(4 * kHorizon);
        case 4: {
            // Tie with a pending far schedule once the ring covers it.
            auto it = farTicks.lower_bound(now);
            if (it != farTicks.end())
                return it->first;
            return now + 1;
        }
        default:
            return now + rng.uniformInt(3 * kHorizon);
        }
    }

    void
    cancelAny()
    {
        if (handleOf.empty())
            return;
        std::size_t tag = rng.uniformInt(handleOf.size());
        bool pending = stateOf[tag] == State::Pending;
        ++cancelsByState[static_cast<int>(stateOf[tag])];
        EXPECT_EQ(q.cancel(handleOf[tag]), pending) << "tag " << tag;
        if (pending) {
            ref.erase(keyOf[tag]);
            dropFar(keyOf[tag].first);
            stateOf[tag] = State::Cancelled;
        }
    }

    void
    dropFar(Tick when)
    {
        auto it = farTicks.find(when);
        if (it != farTicks.end() && --it->second == 0)
            farTicks.erase(it);
    }

    void
    fire(std::size_t tag)
    {
        ASSERT_FALSE(ref.empty()) << "tag " << tag << " fired past the end";
        auto next = ref.begin();
        ASSERT_EQ(next->second, tag);
        ASSERT_EQ(next->first.first, q.curTick());
        ref.erase(next);
        dropFar(q.curTick());
        stateOf[tag] = State::Fired;
        lastFired = q.curTick();
        ++fired;
        if (handleOf.size() < 60000 && rng.chance(0.6)) {
            for (std::uint64_t i = rng.uniformInt(3); i-- > 0;)
                schedule(pickWhen());
        }
        if (rng.chance(0.1))
            cancelAny();
    }

    void
    checkCounts() const
    {
        EXPECT_EQ(q.size(), ref.size() + q.numTombstones());
        EXPECT_EQ(q.empty(), q.size() == 0);
    }
};

TEST(EventQueue, MatchesAReferenceUnderRandomOperations)
{
    Differential d;
    for (int op = 0; op < 20000; ++op) {
        std::uint64_t kind = d.rng.uniformInt(100);
        if (kind < 40) {
            for (std::uint64_t i = 1 + d.rng.uniformInt(4); i-- > 0;)
                d.schedule(d.pickWhen());
        } else if (kind < 55) {
            d.cancelAny();
        } else if (kind < 57) {
            EXPECT_FALSE(d.q.cancel(0));
            EXPECT_FALSE(d.q.cancel(~std::uint64_t{0}));
        } else if (kind < 80) {
            for (std::uint64_t i = 1 + d.rng.uniformInt(8); i-- > 0;) {
                bool live = !d.ref.empty();
                EXPECT_EQ(d.q.step(), live);
            }
        } else if (kind < 99) {
            Tick before = d.q.curTick();
            Tick limit = before + d.rng.uniformInt(3 * Differential::kHorizon);
            d.q.runUntil(limit);
            EXPECT_EQ(d.q.curTick(), std::max(before, limit));
            if (!d.ref.empty()) {
                Tick next = d.ref.begin()->first.first;
                ASSERT_GT(next, limit);
                // Stopped in front of an event: schedule behind it, or
                // on its tick, while the cursor still trails the limit.
                if (next - d.lastFired >= Differential::kHorizon)
                    ++d.schedulesBehindFar;
                d.schedule(limit + 1 + d.rng.uniformInt(next - limit));
            }
        } else {
            for (std::size_t tag = 0; tag < d.stateOf.size(); ++tag)
                if (d.stateOf[tag] == Differential::State::Pending)
                    d.stateOf[tag] = Differential::State::Reset;
            d.ref.clear();
            d.farTicks.clear();
            d.lastFired = 0;
            d.q.reset();
            EXPECT_EQ(d.q.curTick(), 0u);
            EXPECT_EQ(d.q.numDispatched(), 0u);
        }
        d.checkCounts();
    }
    d.q.run();
    EXPECT_TRUE(d.ref.empty());
    EXPECT_TRUE(d.q.empty());
    EXPECT_EQ(d.q.numTombstones(), 0u);
    // Every mix the test is meant to cover did occur.
    EXPECT_GT(d.fired, 10000u);
    EXPECT_GT(d.directTiesWithFar, 0u);
    EXPECT_GT(d.schedulesBehindFar, 0u);
    for (std::size_t n : d.cancelsByState)
        EXPECT_GT(n, 0u);
}

} // namespace
