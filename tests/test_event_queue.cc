/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"

using namespace nocstar;

namespace
{

class CountingEvent : public Event
{
  public:
    explicit CountingEvent(std::vector<int> *log, int id,
                           Priority prio = defaultPriority)
        : Event(prio), log_(log), id_(id)
    {}

    void process() override { log_->push_back(id_); }

  private:
    std::vector<int> *log_;
    int id_;
};

} // namespace

TEST(EventQueue, StartsEmptyAtCycleZero)
{
    EventQueue queue;
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.curCycle(), 0u);
    EXPECT_EQ(queue.run(), 0u);
}

TEST(EventQueue, ProcessesInTimeOrder)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2), c(&log, 3);
    queue.schedule(&b, 20);
    queue.schedule(&a, 10);
    queue.schedule(&c, 30);
    EXPECT_EQ(queue.run(), 3u);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.curCycle(), 30u);
}

TEST(EventQueue, FifoAmongSameCycleSamePriority)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2), c(&log, 3);
    queue.schedule(&a, 5);
    queue.schedule(&b, 5);
    queue.schedule(&c, 5);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityOrdersWithinCycle)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent late(&log, 9, Event::lastPriority);
    CountingEvent arb(&log, 5, Event::arbitrationPriority);
    CountingEvent normal(&log, 1);
    queue.schedule(&late, 7);
    queue.schedule(&arb, 7);
    queue.schedule(&normal, 7);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1, 5, 9}));
}

TEST(EventQueue, DescheduleRemovesEvent)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2);
    queue.schedule(&a, 10);
    queue.schedule(&b, 11);
    queue.deschedule(&a);
    EXPECT_FALSE(a.scheduled());
    EXPECT_EQ(queue.run(), 1u);
    EXPECT_EQ(log, (std::vector<int>{2}));
}

TEST(EventQueue, RescheduleMovesEvent)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2);
    queue.schedule(&a, 10);
    queue.schedule(&b, 20);
    queue.reschedule(&a, 30);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
    EXPECT_EQ(queue.curCycle(), 30u);
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2);
    queue.schedule(&a, 10);
    queue.schedule(&b, 100);
    EXPECT_EQ(queue.run(50), 1u);
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_FALSE(queue.empty());
    EXPECT_EQ(queue.run(), 1u);
    EXPECT_EQ(log.size(), 2u);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue queue;
    std::vector<Cycle> fired;
    queue.scheduleLambda(1, [&] {
        fired.push_back(queue.curCycle());
        queue.scheduleLambda(queue.curCycle() + 5, [&] {
            fired.push_back(queue.curCycle());
        });
    });
    queue.run();
    EXPECT_EQ(fired, (std::vector<Cycle>{1, 6}));
}

TEST(EventQueue, DoubleSchedulePanics)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1);
    queue.schedule(&a, 10);
    EXPECT_THROW(queue.schedule(&a, 12), PanicError);
    queue.deschedule(&a);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue queue;
    queue.scheduleLambda(10, [] {});
    queue.run();
    std::vector<int> log;
    CountingEvent a(&log, 1);
    EXPECT_THROW(queue.schedule(&a, 5), PanicError);
}

TEST(EventQueue, DescheduleUnscheduledPanics)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1);
    EXPECT_THROW(queue.deschedule(&a), PanicError);
}

TEST(EventQueue, RunOneCycleProcessesHeadCycleOnly)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2), c(&log, 3);
    queue.schedule(&a, 4);
    queue.schedule(&b, 4);
    queue.schedule(&c, 9);
    queue.runOneCycle();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(queue.size(), 1u);
    queue.run();
}

TEST(EventQueue, ManyLambdaEventsAreReaped)
{
    EventQueue queue;
    std::uint64_t count = 0;
    for (int i = 0; i < 10000; ++i)
        queue.scheduleLambda(static_cast<Cycle>(i), [&] { ++count; });
    queue.run();
    EXPECT_EQ(count, 10000u);
    // Everything scheduled before running, so the pool grew to the
    // in-flight peak; after the run every event is back on the free
    // list awaiting reuse.
    EXPECT_EQ(queue.allocatedLambdaEvents(), 10000u);
    EXPECT_EQ(queue.freeLambdaEvents(), 10000u);
}

TEST(EventQueue, PooledLambdaEventsAreReused)
{
    // A steady-state message chain (each delivery schedules the next)
    // must recycle a single pooled event instead of allocating one
    // per scheduleLambda call.
    EventQueue queue;
    std::uint64_t count = 0;
    std::function<void()> chain = [&] {
        if (++count < 1000)
            queue.scheduleLambda(queue.curCycle() + 1, chain);
    };
    queue.scheduleLambda(0, chain);
    queue.run();
    EXPECT_EQ(count, 1000u);
    EXPECT_EQ(queue.allocatedLambdaEvents(), 1u);
    EXPECT_EQ(queue.freeLambdaEvents(), 1u);
}

TEST(EventQueue, ScheduleLambdaMovesAnRvalueIntoThePoolOnce)
{
    // The callable is built straight into the pooled event's buffer:
    // one move, not a hop through a by-value parameter first.
    struct Counted
    {
        int *moves;
        int *calls;
        Counted(int *m, int *c) : moves(m), calls(c) {}
        Counted(Counted &&other) noexcept
            : moves(other.moves), calls(other.calls)
        {
            ++*moves;
        }
        void operator()() { ++*calls; }
    };
    EventQueue queue;
    int moves = 0;
    int calls = 0;
    queue.scheduleLambda(3, Counted{&moves, &calls});
    EXPECT_EQ(moves, 1);
    queue.run();
    EXPECT_EQ(calls, 1);
}

TEST(EventQueue, FarFutureEventSurvivesLimitedRun)
{
    // Regression: run(limit) used to fold overflow records into the
    // wheel relative to the head cycle before the clock reached it;
    // breaking on the limit then left the clock behind, and the next
    // scan misread the folded bucket as `when - wheelSize` (an event
    // at 10000 fired at 1808 after run(50)).
    EventQueue queue;
    std::vector<Cycle> fired;
    queue.scheduleLambda(10000, [&] { fired.push_back(queue.curCycle()); });
    EXPECT_EQ(queue.run(50), 0u);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(queue.run(), 1u);
    EXPECT_EQ(fired, (std::vector<Cycle>{10000}));
    EXPECT_EQ(queue.curCycle(), 10000u);
}

TEST(EventQueue, StaleHeadDoesNotAliasOverflowEvent)
{
    // Regression: a descheduled (stale) record at the head bucket let
    // nextEventCycle() report a cycle the clock never advanced to, and
    // overflow records folded relative to that phantom head aliased to
    // earlier buckets (an event at 8000 fired at 3904).
    EventQueue queue;
    std::vector<int> log;
    CountingEvent stale(&log, 1);
    queue.schedule(&stale, 4000);
    std::vector<Cycle> fired;
    queue.scheduleLambda(8000, [&] { fired.push_back(queue.curCycle()); });
    queue.deschedule(&stale);
    EXPECT_EQ(queue.run(), 1u);
    EXPECT_TRUE(log.empty());
    EXPECT_EQ(fired, (std::vector<Cycle>{8000}));
    EXPECT_EQ(queue.curCycle(), 8000u);
}

TEST(EventQueue, FarFutureOrderingAcrossRepeatedLimitedRuns)
{
    // Stepping the queue in small limit increments (the way System
    // interleaves with context-switch/storm events that live in the
    // overflow heap) must preserve exact (cycle, priority, seq) order.
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2), c(&log, 3), d(&log, 4);
    queue.schedule(&a, 100);
    queue.schedule(&b, 5000);
    queue.schedule(&c, 9000);
    queue.schedule(&d, 20000);
    for (Cycle limit = 0; limit <= 25000; limit += 64)
        queue.run(limit);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1), b(&log, 2);
    queue.schedule(&a, 1);
    queue.schedule(&b, 2);
    EXPECT_EQ(queue.size(), 2u);
    queue.deschedule(&b);
    EXPECT_EQ(queue.size(), 1u);
    queue.run();
    EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueue, NextEventCycleEmptyQueueIsInvalid)
{
    EventQueue queue;
    EXPECT_EQ(queue.nextEventCycle(), invalidCycle);
    // Still invalid after the clock has moved.
    queue.scheduleLambda(100, [] {});
    queue.run();
    EXPECT_EQ(queue.nextEventCycle(), invalidCycle);
}

TEST(EventQueue, NextEventCycleSeesOverflowHeapHead)
{
    // An event beyond the wheel horizon lives only in the overflow
    // heap; nextEventCycle() must still report it.
    EventQueue queue;
    queue.scheduleLambda(100000, [] {});
    EXPECT_EQ(queue.nextEventCycle(), 100000u);
    std::vector<int> log;
    CountingEvent a(&log, 1);
    queue.schedule(&a, 12);
    EXPECT_EQ(queue.nextEventCycle(), 12u);
    queue.deschedule(&a);
    // The stale record keeps the answer conservative (never later
    // than the first live event) but the clock must not be misled.
    EXPECT_LE(queue.nextEventCycle(), 100000u);
    EXPECT_EQ(queue.run(), 1u);
    EXPECT_EQ(queue.curCycle(), 100000u);
}

TEST(EventQueue, NextEventCycleHeadAtCurrentCycle)
{
    // From inside a dispatched event, a sibling scheduled for the
    // same cycle must read back as pending at curCycle itself.
    EventQueue queue;
    Cycle seen = invalidCycle;
    queue.scheduleLambda(7, [&] { seen = queue.nextEventCycle(); });
    queue.scheduleLambda(7, [] {});
    queue.run();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, AdvanceToMovesClockAndRejectsPast)
{
    EventQueue queue;
    queue.advanceTo(0); // no-op: advancing to the present is legal
    queue.advanceTo(123);
    EXPECT_EQ(queue.curCycle(), 123u);
    EXPECT_THROW(queue.advanceTo(122), PanicError);

    // Scheduling relative to the advanced clock works as usual.
    std::vector<int> log;
    CountingEvent a(&log, 1);
    queue.schedule(&a, 200);
    queue.run();
    EXPECT_EQ(queue.curCycle(), 200u);
    EXPECT_EQ(log, (std::vector<int>{1}));
}

TEST(EventQueue, AdvanceToInsideDispatchSkipsQuietCycles)
{
    // An event finds the queue quiet, advances the clock over the gap,
    // and the queue resumes exact dispatch from the new cycle.
    EventQueue queue;
    std::vector<Cycle> fired;
    queue.scheduleLambda(5, [&] {
        ASSERT_GT(queue.nextEventCycle(), Cycle{24});
        queue.advanceTo(24);
        queue.scheduleLambda(25, [&] { fired.push_back(queue.curCycle()); });
    });
    queue.scheduleLambda(25, [&] { fired.push_back(queue.curCycle()); });
    queue.run();
    EXPECT_EQ(fired, (std::vector<Cycle>{25, 25}));
    EXPECT_EQ(queue.curCycle(), 25u);
}

// ---------------------------------------------------------------------
// Order keys: ordinary schedules keep call order; scheduleAhead()
// places a record as if a dispatch at a future cycle had made it.

TEST(EventQueue, RealScheduleOrderIsCallOrder)
{
    // Records for one cycle scheduled from different cycles, from
    // dispatches of different priority and age, and from outside any
    // dispatch all run in the order the schedule() calls were made.
    EventQueue queue;
    std::vector<int> log;
    std::vector<std::unique_ptr<CountingEvent>> evs;
    int next_id = 0;
    auto target = [&] {
        evs.push_back(std::make_unique<CountingEvent>(&log, next_id++));
        queue.schedule(evs.back().get(), 200);
    };
    target();                                    // 0: outside a dispatch
    queue.scheduleLambda(50, [&] { target(); }); // 1
    // Cycle 60 dispatches an old default-priority event (scheduled at
    // 0), a younger one (scheduled at 3), the first one's same-cycle
    // child, then a lastPriority event.
    queue.scheduleLambda(60, [&] { target(); }, Event::lastPriority); // 5
    queue.scheduleLambda(60, [&] {
        target();                                        // 2
        queue.scheduleLambda(60, [&] { target(); });     // 4
    });
    queue.scheduleLambda(3, [&] {
        queue.scheduleLambda(60, [&] { target(); });     // 3
    });
    queue.run(100);
    target(); // 6: outside a dispatch, after run() stopped at cycle 100
    queue.run();
    // Ids follow call order, so the log must be sorted.
    std::vector<int> sorted = log;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(log, sorted);
    EXPECT_EQ(log.size(), 7u);
}

TEST(EventQueue, AheadRecordLandsBeforeLaterSchedules)
{
    // At cycle 10 a step stamps a record for cycle 100 as if made by a
    // dispatch at cycle 40 (itself scheduled at 30). It must run after
    // a record scheduled (really) at cycle 20 and before records
    // scheduled at cycles 41 and 100, though all of those calls came
    // later in wall-clock order.
    EventQueue queue;
    std::vector<int> log;
    CountingEvent ahead(&log, 40), at20(&log, 20), at41(&log, 41),
        at100(&log, 100);
    queue.scheduleLambda(10, [&] {
        queue.scheduleAhead(&ahead, 100, 40, 30, 0);
    });
    queue.scheduleLambda(20, [&] { queue.schedule(&at20, 100); });
    queue.scheduleLambda(41, [&] { queue.schedule(&at41, 100); });
    queue.scheduleLambda(100, [&] { queue.schedule(&at100, 100); });
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{20, 40, 41, 100}));
}

TEST(EventQueue, AheadRecordSortsByDispatcherAgeWithinItsCycle)
{
    // Records made in cycle 40 itself, against one stamped as made by
    // a dispatch at 40 that was scheduled at 30: a default-priority
    // dispatcher scheduled at 5 (older) goes first, one scheduled at
    // 39 (younger) after, and an arbitration-priority dispatcher after
    // both whatever its age.
    EventQueue queue;
    std::vector<int> log;
    CountingEvent ahead(&log, 0), old_child(&log, 1), young_child(&log, 2),
        arb_child(&log, 3);
    queue.scheduleLambda(1, [&] {
        queue.scheduleAhead(&ahead, 90, 40, 30, 0);
        queue.scheduleLambda(
            40, [&] { queue.schedule(&arb_child, 90); },
            Event::arbitrationPriority);
    });
    queue.scheduleLambda(5, [&] {
        queue.scheduleLambda(40, [&] { queue.schedule(&old_child, 90); });
    });
    queue.scheduleLambda(39, [&] {
        queue.scheduleLambda(40,
                             [&] { queue.schedule(&young_child, 90); });
    });
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{1, 0, 2, 3}));
}

TEST(EventQueue, AheadRecordsWithEqualStampsOrderByTie)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 7), b(&log, 3);
    queue.scheduleAhead(&a, 60, 50, 45, 7);
    queue.scheduleAhead(&b, 60, 50, 45, 3);
    queue.run();
    EXPECT_EQ(log, (std::vector<int>{3, 7}));
}

TEST(EventQueue, CycleBeyondTheOrderKeyIsFatal)
{
    // The order key holds a 36-bit scheduling cycle; past it, ordering
    // would silently wrap, so scheduling refuses.
    EventQueue queue;
    queue.advanceTo(Cycle{1} << 36);
    EXPECT_THROW(queue.scheduleLambda(queue.curCycle() + 1, [] {}),
                 FatalError);
}

TEST(EventQueue, AheadRejectsInconsistentStamps)
{
    EventQueue queue;
    std::vector<int> log;
    CountingEvent a(&log, 1);
    queue.advanceTo(10);
    EXPECT_THROW(queue.scheduleAhead(&a, 60, 50, 9, 0), PanicError);
    EXPECT_THROW(queue.scheduleAhead(&a, 60, 50, 50, 0), PanicError);
    EXPECT_THROW(queue.scheduleAhead(&a, 40, 50, 45, 0), PanicError);
    EXPECT_THROW(queue.scheduleAhead(&a, 60, 10, 10, 0), PanicError);
    EXPECT_FALSE(a.scheduled());
}
