/**
 * @file
 * Unit tests for the deterministic event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

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
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100)
            q.scheduleAfter(1, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(count, 100);
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

TEST(EventQueue, CalendarStorageMatchesReferenceOrder)
{
    // Deterministic pseudo-random schedule with wide tick spans, dense
    // same-tick ties, and in-callback reschedules: the calendar-queue
    // storage must reproduce exact (when, insertion) dispatch order.
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired;
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
        q.schedule(when, [&fired, &q, when, tag] {
            fired.emplace_back(when, tag);
            EXPECT_EQ(q.curTick(), when);
        });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    q.run();
    EXPECT_EQ(fired, expected);
}

TEST(EventQueue, ScheduleBehindARolledOverCalendarYear)
{
    // runUntil() peeks past its limit, and that peek rolls the
    // calendar year forward to the only (far-future) event. A schedule
    // that then lands between the limit and the new year start must
    // still be stored (near heap) and fire in order: the bucket index
    // computation must not underflow.
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(1000000, [&] { fired.push_back(q.curTick()); });
    q.runUntil(10);
    EXPECT_EQ(q.curTick(), 10u);
    q.schedule(100, [&] { fired.push_back(q.curTick()); });
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{100, 1000000}));
}

} // namespace
