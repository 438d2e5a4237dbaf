/**
 * @file
 * Concurrency tests for the event-driven migration engine: multiple
 * simulated threads submitted through the CallFuture API, overlapping
 * across the host core and the NxP devices, with per-thread protocol
 * ordering, round-trip accounting and NxP-stack teardown.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

// Device-1 twins of the microbench kernels, for the two-device tests.
const char *dev1Source = R"(
dev1_noop:
    li a0, 0
    ret

dev1_spin:
    mv t0, a0
d1s_loop:
    beqz t0, d1s_done
    addi t0, t0, -1
    j d1s_loop
d1s_done:
    li a0, 0
    ret
)";

class ConcurrentCallTest : public ::testing::Test
{
  protected:
    void
    boot(unsigned devices = 1)
    {
        sys = std::make_unique<FlickSystem>(
            SystemConfig{}.withDevices(devices));
        Program prog;
        workloads::addMicrobench(prog);
        if (devices > 1)
            prog.addNxpAsm(dev1Source, 1);
        proc = &sys->load(prog);
    }

    /** Trace milestones recorded for @p pid, in order. */
    std::vector<TracePoint>
    pointsFor(int pid)
    {
        std::vector<TracePoint> points;
        for (const TraceEvent &e : sys->debug().trace().events()) {
            if (e.pid == pid)
                points.push_back(e.point);
        }
        return points;
    }

    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
};

TEST_F(ConcurrentCallTest, SubmitReturnsBeforeCompletion)
{
    boot();
    CallFuture f =
        sys->submit(*proc, CallSpec("nxp_add").withArgs({40, 2}));
    EXPECT_TRUE(f.valid());
    EXPECT_FALSE(f.done()); // no simulated time has passed yet
    EXPECT_EQ(f.wait(), 42u);
    EXPECT_TRUE(f.done());
    EXPECT_EQ(f.value(), 42u);
}

TEST_F(ConcurrentCallTest, SequentialSubmitsOnOneThread)
{
    boot();
    auto run = [&](const char *fn, std::vector<std::uint64_t> args) {
        return sys->submit(*proc, CallSpec(fn).withArgs(std::move(args)))
            .wait();
    };
    EXPECT_EQ(run("nxp_add", {1, 2}), 3u);
    EXPECT_EQ(run("host_add", {3, 4}), 7u);
    EXPECT_EQ(run("nxp_sum6", {1, 2, 3, 4, 5, 6}), 21u);
}

TEST_F(ConcurrentCallTest, FourThreadsOverlapOnOneDevice)
{
    boot();
    constexpr std::uint64_t trips = 8;

    // Warm the main thread's NxP stack, then measure one thread doing
    // the 8-round-trip loop serially.
    sys->submit(*proc, CallSpec("nxp_noop")).wait();
    Tick t0 = sys->now();
    CallSpec loop = CallSpec("host_calls_nxp").withArgs({trips});
    EXPECT_EQ(sys->submit(*proc, loop).wait(), 0u);
    Tick serial = sys->now() - t0;
    ASSERT_GT(serial, 0u);

    // Four threads, same loop, submitted together: their host-side
    // handler work overlaps with other threads' device-side work, so
    // the batch must beat four serial runs.
    Task &t1 = sys->spawnThread(*proc);
    Task &t2 = sys->spawnThread(*proc);
    Task &t3 = sys->spawnThread(*proc);

    StatGroup &stats = sys->debug().engine().stats();
    std::uint64_t rt0 = stats.get("host_nxp_host_roundtrips");

    t0 = sys->now();
    std::vector<CallFuture> futures;
    futures.push_back(sys->submit(*proc, loop));
    for (Task *t : {&t1, &t2, &t3})
        futures.push_back(sys->submit(*proc, CallSpec(loop).onThread(*t)));
    for (CallFuture &f : futures)
        EXPECT_EQ(f.wait(), 0u);
    Tick concurrent = sys->now() - t0;

    EXPECT_EQ(stats.get("host_nxp_host_roundtrips") - rt0, 4 * trips);
    EXPECT_LT(concurrent, 4 * serial);
    EXPECT_GE(concurrent, serial); // one device serializes NxP segments

    sys->exitThread(t1);
    sys->exitThread(t2);
    sys->exitThread(t3);
}

TEST_F(ConcurrentCallTest, PerThreadJournalKeepsFigure2Order)
{
    boot();
    Task &t1 = sys->spawnThread(*proc);
    Task &t2 = sys->spawnThread(*proc);
    Task &t3 = sys->spawnThread(*proc);

    sys->debug().trace().enable();
    std::vector<CallFuture> futures;
    Task *threads[] = {proc->task, &t1, &t2, &t3};
    for (std::uint64_t i = 0; i < 4; ++i) {
        futures.push_back(sys->submit(
            *proc,
            CallSpec("nxp_add").withArgs({i + 1, 10}).onThread(*threads[i])));
    }
    for (std::size_t i = 0; i < futures.size(); ++i)
        EXPECT_EQ(futures[i].wait(), 11 + i);
    // Every thread's first migration allocated its NxP stack.
    EXPECT_EQ(sys->debug().engine().stats().get("nxp_stacks_allocated"),
              4u);

    // Interleaved globally, but each thread must still walk Figure 2's
    // (a)..(g) order: fault, send, DMA, pickup, run, return.
    using TP = TracePoint;
    const std::vector<TracePoint> want = {
        TP::callEntry,     TP::hostNxFault,    TP::hostDescBuild,
        TP::kernelSuspend, TP::dmaToNxpStart,  TP::dmaToNxpDone,
        TP::nxpCallStart,  TP::nxpDescBuild,   TP::dmaToHostStart,
        TP::dmaToHostDone, TP::kernelWake,     TP::hostWake,
        TP::kernelResume,  TP::hostResume,     TP::callComplete,
    };
    for (const CallFuture &f : futures)
        EXPECT_EQ(pointsFor(f.pid()), want) << "pid " << f.pid();

    // Trace timestamps are globally nondecreasing.
    const auto &events = sys->debug().trace().events();
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].tick, events[i - 1].tick);

    sys->exitThread(t1);
    sys->exitThread(t2);
    sys->exitThread(t3);
}

TEST_F(ConcurrentCallTest, NestedCallsInterleaveAcrossThreads)
{
    boot();
    Task &t1 = sys->spawnThread(*proc);

    // One thread runs cross-ISA mutual recursion while another bounces
    // NxP->host round trips; both nest through the same device.
    CallFuture fact =
        sys->submit(*proc, CallSpec("host_fact_nxp").withArgs({6}));
    CallFuture bounce = sys->submit(
        *proc, CallSpec("nxp_calls_host").withArgs({4}).onThread(t1));
    EXPECT_EQ(fact.wait(), 720u);
    EXPECT_EQ(bounce.wait(), 0u);

    StatGroup &stats = sys->debug().engine().stats();
    EXPECT_GE(stats.get("nxp_to_host_calls"), 4u);
    EXPECT_GE(stats.get("host_to_nxp_calls"), 2u);

    sys->exitThread(t1);
}

TEST_F(ConcurrentCallTest, TwoDevicesRunTrulyInParallel)
{
    boot(2);
    Task &t1 = sys->spawnThread(*proc);
    constexpr std::uint64_t iters = 20000;

    // Warm both threads' stacks, then measure each spin serially.
    sys->submit(*proc, CallSpec("nxp_noop")).wait();
    sys->submit(*proc, CallSpec("dev1_noop").onThread(t1)).wait();
    Tick t0 = sys->now();
    CallSpec spin0 = CallSpec("nxp_noop_loop").withArgs({iters});
    CallSpec spin1 = CallSpec("dev1_spin").withArgs({iters}).onThread(t1);
    sys->submit(*proc, spin0).wait();
    Tick serial0 = sys->now() - t0;
    t0 = sys->now();
    sys->submit(*proc, spin1).wait();
    Tick serial1 = sys->now() - t0;

    // Concurrently the spins run on different devices, so the batch
    // takes about the longer spin, not the sum.
    t0 = sys->now();
    CallFuture f0 = sys->submit(*proc, spin0);
    CallFuture f1 = sys->submit(*proc, spin1);
    EXPECT_EQ(f0.wait(), iters); // nxp_noop_loop returns its argument
    EXPECT_EQ(f1.wait(), 0u);
    Tick concurrent = sys->now() - t0;

    EXPECT_LT(concurrent, (serial0 + serial1) * 9 / 10);
    EXPECT_GE(concurrent, std::max(serial0, serial1));

    sys->exitThread(t1);
}

TEST_F(ConcurrentCallTest, ExitThreadReturnsNxpStacksToTheHeap)
{
    boot();
    RangeAllocator &heap = sys->debug().nxpHeap();
    std::uint64_t baseline = heap.allocatedBytes();

    Task &t1 = sys->spawnThread(*proc);
    Task &t2 = sys->spawnThread(*proc);
    auto add_on = [&](Task &t, std::uint64_t v) {
        return sys->submit(*proc,
                           CallSpec("nxp_add").withArgs({v, v}).onThread(t))
            .wait();
    };
    EXPECT_EQ(add_on(t1, 1), 2u);
    EXPECT_EQ(add_on(t2, 2), 4u);
    EXPECT_GT(heap.allocatedBytes(), baseline);

    sys->exitThread(t1);
    sys->exitThread(t2);
    EXPECT_EQ(sys->debug().engine().stats().get("nxp_stacks_freed"), 2u);
    EXPECT_EQ(heap.allocatedBytes(), baseline);

    // Releasing the main thread's stack too drains the heap completely:
    // nothing leaks across thread lifetimes.
    sys->submit(*proc, CallSpec("nxp_noop")).wait();
    sys->debug().engine().releaseNxpStacks(*proc->task);
    EXPECT_EQ(heap.allocatedBytes(), 0u);
}

TEST_F(ConcurrentCallTest, SpawnedThreadStacksAreIsolated)
{
    boot();
    Task &t1 = sys->spawnThread(*proc);
    Task &t2 = sys->spawnThread(*proc);
    EXPECT_NE(t1.pid, t2.pid);
    EXPECT_NE(t1.hostStackTop, t2.hostStackTop);
    EXPECT_NE(t1.hostStackTop, proc->task->hostStackTop);

    // Both threads can run host work on their own stacks concurrently.
    CallFuture a = sys->submit(
        *proc, CallSpec("host_fact_nxp").withArgs({5}).onThread(t1));
    CallFuture b = sys->submit(
        *proc, CallSpec("host_fact_nxp").withArgs({7}).onThread(t2));
    EXPECT_EQ(a.wait(), 120u);
    EXPECT_EQ(b.wait(), 5040u);

    sys->exitThread(t1);
    sys->exitThread(t2);
}

} // namespace
} // namespace flick
