/**
 * @file
 * Unit tests for the simulation kernel: ticks, event queue, RNG, stats.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/inplace_callback.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/ticks.hh"

namespace flick
{
namespace
{

TEST(Ticks, Conversions)
{
    EXPECT_EQ(ns(1), 1000u);
    EXPECT_EQ(us(1), 1000u * 1000);
    EXPECT_EQ(msec(1), 1000ull * 1000 * 1000);
    EXPECT_EQ(sec(1), 1000ull * 1000 * 1000 * 1000);
    EXPECT_EQ(ticksToNs(ns(123)), 123u);
    EXPECT_DOUBLE_EQ(ticksToUs(us(5)), 5.0);
    EXPECT_DOUBLE_EQ(ticksToSec(sec(2)), 2.0);
}

TEST(ClockDomain, PeriodAndCycles)
{
    ClockDomain nxp(200'000'000);
    EXPECT_EQ(nxp.period(), 5000u); // 5 ns in ps
    EXPECT_EQ(nxp.cycles(10), ns(50));
    EXPECT_EQ(nxp.ticksToCycles(ns(50)), 10u);

    ClockDomain host(2'400'000'000ull);
    // 416.67 ps rounds to 417 ps.
    EXPECT_EQ(host.period(), 417u);
    EXPECT_EQ(host.freqHz(), 2'400'000'000ull);
}

TEST(ClockDomain, RoundsUpPartialCycles)
{
    ClockDomain clk(1'000'000'000); // 1 ns period
    EXPECT_EQ(clk.ticksToCycles(1500), 2u);
    EXPECT_EQ(clk.ticksToCycles(1000), 1u);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(300, "c", [&] { order.push_back(3); });
    q.schedule(100, "a", [&] { order.push_back(1); });
    q.schedule(200, "b", [&] { order.push_back(2); });
    EXPECT_EQ(q.run(), 3u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 300u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(50, "e", [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, "outer", [&] {
        q.scheduleIn(5, "inner", [&] { fired = 1; });
    });
    q.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 15u);
}

TEST(EventQueue, SameTickChainRunsAfterExisting)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, "a", [&] {
        order.push_back(1);
        q.scheduleIn(0, "chain", [&] { order.push_back(3); });
    });
    q.schedule(10, "b", [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, Deschedule)
{
    EventQueue q;
    int fired = 0;
    auto id = q.schedule(10, "x", [&] { fired = 1; });
    EXPECT_TRUE(q.deschedule(id));
    EXPECT_FALSE(q.deschedule(id)); // already cancelled
    q.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    int count = 0;
    for (Tick t = 100; t <= 1000; t += 100)
        q.schedule(t, "e", [&] { ++count; });
    EXPECT_EQ(q.runUntil(500), 5u);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 500u);
    EXPECT_EQ(q.pending(), 5u);
}

TEST(EventQueue, RunUntilAdvancesToLimit)
{
    EventQueue q;
    q.runUntil(1234, true);
    EXPECT_EQ(q.now(), 1234u);
}

TEST(EventQueue, NextEventTime)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventTime(), maxTick);
    auto id = q.schedule(77, "x", [] {});
    q.schedule(99, "y", [] {});
    EXPECT_EQ(q.nextEventTime(), 77u);
    q.deschedule(id);
    EXPECT_EQ(q.nextEventTime(), 99u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue q;
    EXPECT_FALSE(q.step());
    q.schedule(1, "x", [] {});
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
    EXPECT_EQ(q.eventsRun(), 1u);
}

TEST(EventQueue, DestructorReleasesPendingCallbacks)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue q;
        q.schedule(10, "a", [token] {});
        q.schedule(20, "b", [token] {});
        auto id = q.schedule(30, "c", [token] {});
        q.deschedule(id); // cancelled but not yet purged
        EXPECT_EQ(token.use_count(), 4);
        q.runUntil(10);
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, RunUntilSkipsCancelledTopEntries)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<EventQueue::EventId> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(q.schedule(10 + i, "e", [&order, i] {
            order.push_back(i);
        }));
    q.schedule(50, "late", [&order] { order.push_back(50); });
    // Cancel the three earliest: the top of the heap is cancelled
    // three deep.
    for (int i = 0; i < 3; ++i)
        EXPECT_TRUE(q.deschedule(ids[i]));
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_EQ(q.nextEventTime(), 13u);
    EXPECT_EQ(q.runUntil(12), 0u);
    EXPECT_EQ(q.now(), 0u);
    EXPECT_EQ(q.runUntil(40), 1u);
    EXPECT_EQ(order, std::vector<int>({3}));
    EXPECT_EQ(q.now(), 13u);
    EXPECT_EQ(q.runUntil(100, true), 1u);
    EXPECT_EQ(order, std::vector<int>({3, 50}));
    EXPECT_EQ(q.now(), 100u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DescheduleHeadThenNextEventTime)
{
    EventQueue q;
    auto head = q.schedule(5, "head", [] {});
    auto mid = q.schedule(7, "mid", [] {});
    q.schedule(7, "tie", [] {});
    q.schedule(9, "tail", [] {});
    EXPECT_EQ(q.nextEventTime(), 5u);
    EXPECT_TRUE(q.deschedule(head));
    EXPECT_EQ(q.nextEventTime(), 7u);
    EXPECT_TRUE(q.deschedule(mid));
    EXPECT_EQ(q.nextEventTime(), 7u); // the same-tick twin is still live
    EXPECT_TRUE(q.step());
    EXPECT_EQ(q.nextEventTime(), 9u);
    EXPECT_TRUE(q.step());
    EXPECT_EQ(q.nextEventTime(), maxTick);
    EXPECT_FALSE(q.deschedule(head));
    EXPECT_TRUE(q.empty());
}

/**
 * A callback that schedules more events than one slab block holds runs
 * in place while the slab grows under it: the code after the
 * scheduling loop still runs and still reads its captures correctly.
 */
TEST(EventQueue, InPlaceCallbackSurvivesSlabGrowth)
{
    EventQueue q;
    constexpr int children = 1000; // many slab blocks' worth
    std::array<std::uint64_t, 12> payload;
    for (unsigned i = 0; i < payload.size(); ++i)
        payload[i] = 0x0123456789abcdefull * (i + 1);
    std::array<std::uint64_t, 12> seen{};
    int fired = 0;
    bool tail_ran = false;
    q.schedule(1, "grow", [&q, &fired, &seen, &tail_ran, payload] {
        for (int i = 0; i < children; ++i)
            q.scheduleIn(1 + i % 7, "child", [&fired] { ++fired; });
        seen = payload;
        tail_ran = true;
    });
    q.run();
    EXPECT_TRUE(tail_ran);
    EXPECT_EQ(seen, payload);
    EXPECT_EQ(fired, children);
    EXPECT_EQ(q.eventsRun(), 1u + children);
}

/**
 * Every callback's captures are destroyed exactly once: a run one
 * after it returns, a cancelled one when it is purged, a pending one
 * when the queue is destroyed.
 */
TEST(EventQueue, CapturesAreDestroyedExactlyOnce)
{
    auto ran = std::make_shared<int>(0);
    auto purged = std::make_shared<int>(0);
    auto cancelled = std::make_shared<int>(0);
    auto pending = std::make_shared<int>(0);
    long count_inside = 0;
    {
        EventQueue q;
        auto head = q.schedule(5, "purged", [purged] {});
        q.schedule(10, "run", [ran, &count_inside] {
            ++*ran;
            count_inside = ran.use_count();
        });
        auto mid = q.schedule(20, "cancelled", [cancelled] {});
        q.schedule(30, "pending", [pending] {});
        for (const auto *t : {&ran, &purged, &cancelled, &pending})
            EXPECT_EQ(t->use_count(), 2);

        EXPECT_TRUE(q.deschedule(head)); // at the top: purged at once
        EXPECT_EQ(purged.use_count(), 1);
        EXPECT_TRUE(q.deschedule(mid)); // buried: kept until it surfaces
        EXPECT_EQ(cancelled.use_count(), 2);
        EXPECT_FALSE(q.deschedule(mid));

        EXPECT_EQ(q.runUntil(25), 1u);
        EXPECT_EQ(*ran, 1);
        EXPECT_EQ(count_inside, 2); // alive while it ran
        EXPECT_EQ(ran.use_count(), 1);
        EXPECT_EQ(cancelled.use_count(), 1);
        EXPECT_EQ(pending.use_count(), 2);
    }
    for (const auto *t : {&ran, &purged, &cancelled, &pending})
        EXPECT_EQ(t->use_count(), 1);
}

/** Moving an InplaceCallback relocates its callable; it is destroyed
 *  once, by whichever object holds it last. */
TEST(InplaceCallback, MoveRelocatesAndDestroysOnce)
{
    auto token = std::make_shared<int>(0);
    {
        InplaceCallback<48> a([token] { ++*token; });
        EXPECT_EQ(token.use_count(), 2);
        InplaceCallback<48> b(std::move(a));
        EXPECT_FALSE(a);
        ASSERT_TRUE(b);
        EXPECT_EQ(token.use_count(), 2);
        b();
        a = std::move(b);
        EXPECT_FALSE(b);
        a();
        EXPECT_EQ(*token, 2);
        EXPECT_EQ(token.use_count(), 2);
        b = nullptr;
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        double r = rng.real();
        EXPECT_GE(r, 0.0);
        EXPECT_LT(r, 1.0);
    }
}

TEST(Stats, IncSetGet)
{
    StatGroup g("grp");
    EXPECT_EQ(g.get("x"), 0u);
    g.inc("x");
    g.inc("x", 4);
    EXPECT_EQ(g.get("x"), 5u);
    g.set("x", 2);
    EXPECT_EQ(g.get("x"), 2u);
    g.reset();
    EXPECT_EQ(g.get("x"), 0u);
    EXPECT_EQ(g.counters().size(), 1u);
}

TEST(Stats, DumpFormat)
{
    StatGroup g("mem");
    g.inc("reads", 3);
    std::ostringstream os;
    g.dump(os);
    EXPECT_EQ(os.str(), "mem.reads 3\n");
}

TEST(Stats, CounterKeyAbsentUntilFirstIncrement)
{
    StatGroup g("grp");
    StatGroup::Counter c(g, "hot");
    std::ostringstream before;
    g.dump(before);
    EXPECT_EQ(before.str(), "");
    EXPECT_EQ(g.counters().count("hot"), 0u);
    c.inc();
    c.inc(2);
    EXPECT_EQ(g.get("hot"), 3u);
    std::ostringstream after;
    g.dump(after);
    EXPECT_EQ(after.str(), "grp.hot 3\n");
}

TEST(Stats, CounterSurvivesInsertsAndReset)
{
    StatGroup g("grp");
    StatGroup::Counter c(g, "hot");
    c.inc(5);
    // Thousands of other keys force many rehashes of the map.
    for (int i = 0; i < 5000; ++i)
        g.inc("k" + std::to_string(i));
    c.inc();
    EXPECT_EQ(g.get("hot"), 6u);
    g.reset();
    EXPECT_EQ(g.get("hot"), 0u);
    c.inc(7);
    EXPECT_EQ(g.get("hot"), 7u);
    // Handle and string key address the same counter.
    g.inc("hot");
    c.set(40);
    EXPECT_EQ(g.get("hot"), 40u);
    std::uint64_t &slot = g.slot("hot");
    slot += 2;
    EXPECT_EQ(g.get("hot"), 42u);
}

TEST(Stats, DumpOrderIndependentOfInterning)
{
    // The same increments through handles and through string keys, in
    // different insertion orders, dump identically (sorted by key).
    StatGroup a("g"), b("g");
    StatGroup::Counter az(a, "zeta"), am(a, "mu");
    az.inc(3);
    a.inc("alpha", 1);
    am.inc(2);
    b.inc("mu", 2);
    b.inc("alpha");
    b.inc("zeta", 3);
    std::ostringstream da, db;
    a.dump(da);
    b.dump(db);
    EXPECT_EQ(da.str(), "g.alpha 1\ng.mu 2\ng.zeta 3\n");
    EXPECT_EQ(da.str(), db.str());
}

TEST(Logging, Strfmt)
{
    EXPECT_EQ(strfmt("%d-%s", 7, "x"), "7-x");
    EXPECT_EQ(strfmt("%#llx", 255ull), "0xff");
    EXPECT_EQ(strfmt("plain"), "plain");
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, "x", [] {});
    q.run();
    EXPECT_DEATH(q.schedule(50, "late", [] {}), "scheduled in the past");
}

} // namespace
} // namespace flick
