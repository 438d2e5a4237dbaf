/**
 * @file
 * Allocation gate for the steady-state crossing path.
 *
 * The event queue holds callbacks in place, DMA completions carry
 * their captures inline, and contexts, arguments and call records
 * live in fixed or recycled storage, so a warmed-up crossing should
 * not touch the heap. This binary replaces the global operator new
 * with a counting one (forwarding to malloc) and averages the count
 * over 1,000 crossings of each Table III kind.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace
{

std::uint64_t allocations = 0;

void *
countedAlloc(std::size_t n)
{
    ++allocations;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace flick
{
namespace
{

constexpr std::uint64_t crossings = 1000;

/** A loaded microbench past its first-call costs (NxP stack, I-cache
 *  lines, interned counters, slab and ring growth). */
struct Warm
{
    FlickSystem sys;
    Process *proc = nullptr;

    explicit Warm(SystemConfig config = SystemConfig{})
        : sys(std::move(config))
    {
        Program prog;
        workloads::addMicrobench(prog);
        proc = &sys.load(prog);
        for (int i = 0; i < 20; ++i)
            sys.submit(*proc, CallSpec("nxp_noop")).wait();
        sys.submit(*proc, CallSpec("nxp_calls_host").withArgs({100})).wait();
        sys.submit(*proc, CallSpec("nxp_calls_host").withArgs({0})).wait();
    }

    /** Allocations made by one submitted call of @p spec. */
    std::uint64_t
    allocationsOf(const CallSpec &spec)
    {
        CallSpec copy = spec; // copied outside the counted window
        std::uint64_t before = allocations;
        std::uint64_t v = sys.submit(*proc, std::move(copy)).wait();
        std::uint64_t n = allocations - before;
        EXPECT_EQ(v, 0u);
        return n;
    }
};

/** Host->NxP->Host: one submitted no-op call. The future's shared
 *  state is the one allocation a call is allowed (plus slack for a
 *  per-call engine record). */
TEST(AllocationGate, SubmittedNoopCall)
{
    Warm w;
    const CallSpec spec("nxp_noop");
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < crossings; ++i)
        total += w.allocationsOf(spec);
    double per_call = double(total) / crossings;
    RecordProperty("allocs_per_call", std::to_string(per_call));
    EXPECT_LE(per_call, 2.05);
}

/** One submitted no-op call with storm's dispatch layers on: a
 *  placement decision per call and h2d descriptor batching. */
TEST(AllocationGate, PlacementBatchingCall)
{
    Warm w(SystemConfig{}
               .withDevices(2)
               .withPlacement(PlacementKind::leastLoaded)
               .withBatching());
    const CallSpec spec("nxp_noop");
    std::uint64_t total = 0;
    for (std::uint64_t i = 0; i < crossings; ++i)
        total += w.allocationsOf(spec);
    double per_call = double(total) / crossings;
    RecordProperty("allocs_per_call", std::to_string(per_call));
    EXPECT_LE(per_call, 1.05);
}

/** NxP->Host->NxP: the callbacks of one NxP loop, less the loop's own
 *  call. The host run queue is intrusive, so a crossing allocates
 *  nothing at all. */
TEST(AllocationGate, CallbackCrossing)
{
    Warm w;
    CallSpec loop = CallSpec("nxp_calls_host").withArgs({crossings});
    CallSpec outer = CallSpec("nxp_calls_host").withArgs({0});
    std::uint64_t with_loop = w.allocationsOf(loop);
    std::uint64_t without = w.allocationsOf(outer);
    ASSERT_GE(with_loop, without);
    double per_crossing = double(with_loop - without) / crossings;
    RecordProperty("allocs_per_crossing", std::to_string(per_crossing));
    EXPECT_LE(per_crossing, 0.005);
}

} // namespace
} // namespace flick
