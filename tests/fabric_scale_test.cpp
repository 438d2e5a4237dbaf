/**
 * @file
 * The N-device migration fabric and descriptor batching (DESIGN.md §12).
 *
 * Covers the contract that makes the fabric generalization safe to
 * ship: any device count boots and runs correctly; batching is strictly
 * opt-in (a run with it disabled is tick-for-tick identical to the
 * default config at every fabric size, and its counters stay zero);
 * batching changes when descriptors move, never what calls compute;
 * placement hints steer first dispatch; and an 8-device fabric routes
 * around a quarantined member. Load shedding is QoS's job
 * (tests/qos_test.cpp).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "flick/system.hh"
#include "sim/logging.hh"
#include "workloads/placement_mix.hh"

namespace flick
{
namespace
{

/** Build a @p devices-wide system loaded with the placement mix. */
std::pair<FlickSystem *, Process *>
makeFabric(SystemConfig config, unsigned devices)
{
    config.withDevices(devices);
    auto *sys = new FlickSystem(std::move(config));
    Program prog;
    workloads::addPlacementMix(prog, devices);
    Process &proc = sys->load(prog);
    return {sys, &proc};
}

/**
 * Concurrent storm: @p threads workers each submit one mix_hot call;
 * all futures are outstanding together so the rings see back-to-back
 * descriptors. Checks every value and returns the finish tick.
 */
Tick
runHotStorm(FlickSystem &sys, Process &proc, unsigned threads,
            std::uint64_t rounds)
{
    std::vector<Task *> tasks;
    std::vector<CallFuture> futs;
    for (unsigned i = 0; i < threads; ++i)
        tasks.push_back(&sys.spawnThread(proc));
    for (unsigned i = 0; i < threads; ++i) {
        futs.push_back(sys.submit(proc, CallSpec("mix_hot")
                                            .withArgs({i + 1, rounds})
                                            .onThread(*tasks[i])));
    }
    for (unsigned i = 0; i < threads; ++i) {
        EXPECT_EQ(futs[i].wait(), workloads::mixHotRef(i + 1, rounds))
            << "thread " << i;
        EXPECT_EQ(futs[i].status(), CallStatus::ok);
    }
    return sys.now();
}

std::string
statsDump(FlickSystem &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return os.str();
}

// --- Tick identity: both features off == default, at every N ------------

TEST(FabricScale, DisabledFeaturesAreTickIdenticalAtEveryWidth)
{
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        Tick ref = 0;
        std::string ref_stats;
        {
            auto [sys, proc] = makeFabric(SystemConfig{}, n);
            ref = runHotStorm(*sys, *proc, 4, 300);
            ref_stats = statsDump(*sys);
            delete sys;
        }
        {
            auto [sys, proc] =
                makeFabric(SystemConfig{}.withBatching(false), n);
            EXPECT_EQ(runHotStorm(*sys, *proc, 4, 300), ref)
                << n << " devices";
            EXPECT_EQ(statsDump(*sys), ref_stats) << n << " devices";
            delete sys;
        }
    }
}

TEST(FabricScale, FeatureCountersZeroWhenOff)
{
    auto [sys, proc] = makeFabric(SystemConfig{}, 2);
    runHotStorm(*sys, *proc, 4, 300);
    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_EQ(st.get("batch.bursts"), 0u);
    EXPECT_EQ(st.get("batch.coalesced"), 0u);
    EXPECT_EQ(st.get("batch.descs_per_burst_max"), 0u);
    // The unbatched path still counts one doorbell per descriptor.
    EXPECT_GT(st.get("doorbell_writes"), 0u);
    delete sys;
}

// --- Arbitrary fabric widths behave and render ---------------------------

TEST(FabricScale, EightDeviceFabricSpreadsUnderLeastLoaded)
{
    auto [sys, proc] = makeFabric(
        SystemConfig{}.withPlacement(PlacementKind::leastLoaded), 8);
    runHotStorm(*sys, *proc, 8, 400);
    const StatGroup &st = sys->debug().engine().stats();
    std::uint64_t total = 0;
    unsigned used = 0;
    for (unsigned d = 0; d < 8; ++d) {
        std::uint64_t c = st.get(strfmt("host_to_nxp_calls_dev%u", d));
        total += c;
        used += c > 0;
    }
    EXPECT_EQ(total, 8u);
    EXPECT_GE(used, 4u) << "storm stayed clumped on few devices";
    delete sys;
}

TEST(FabricScale, DumpStatsRendersEveryDevice)
{
    auto [sys, proc] = makeFabric(SystemConfig{}, 8);
    EXPECT_EQ(sys->call(*proc, "mix_tiny", {40, 2}), 42u);
    std::string dump = statsDump(*sys);
    for (unsigned d = 1; d < 8; ++d)
        EXPECT_NE(dump.find(strfmt("nxp%u", d + 1)), std::string::npos)
            << "device " << d << " missing from dumpStats";
    delete sys;
}

// --- Descriptor batching -------------------------------------------------

TEST(FabricBatching, BitIdenticalResultsFewerDoorbells)
{
    std::vector<std::uint64_t> plain_values, batched_values;
    std::uint64_t plain_doorbells = 0, batched_doorbells = 0;
    std::uint64_t bursts = 0, coalesced = 0, max_burst = 0;

    for (bool batching : {false, true}) {
        auto [sys, proc] = makeFabric(
            SystemConfig{}.withBatching(batching), 1);
        std::vector<Task *> tasks;
        std::vector<CallFuture> futs;
        for (unsigned i = 0; i < 6; ++i)
            tasks.push_back(&sys->spawnThread(*proc));
        for (unsigned w = 0; w < 3; ++w) {
            futs.clear();
            for (unsigned i = 0; i < 6; ++i)
                futs.push_back(
                    sys->submit(*proc, CallSpec("mix_hot")
                                           .withArgs({w * 6 + i + 1, 200})
                                           .onThread(*tasks[i])));
            for (auto &f : futs) {
                EXPECT_EQ(f.wait() != 0, true);
                EXPECT_EQ(f.status(), CallStatus::ok);
                (batching ? batched_values : plain_values)
                    .push_back(f.value());
            }
        }
        const StatGroup &st = sys->debug().engine().stats();
        (batching ? batched_doorbells : plain_doorbells) =
            st.get("doorbell_writes");
        if (batching) {
            bursts = st.get("batch.bursts");
            coalesced = st.get("batch.coalesced");
            max_burst = st.get("batch.descs_per_burst_max");
        } else {
            EXPECT_EQ(st.get("batch.bursts"), 0u);
            EXPECT_EQ(st.get("batch.coalesced"), 0u);
        }
        delete sys;
    }

    // What the calls compute must not depend on how descriptors ship.
    EXPECT_EQ(plain_values, batched_values);
    // How they ship must differ: the storm coalesces.
    EXPECT_GT(bursts, 0u);
    EXPECT_GT(coalesced, 0u);
    EXPECT_GE(max_burst, 2u);
    EXPECT_LT(batched_doorbells, plain_doorbells);
    EXPECT_EQ(batched_doorbells + coalesced, plain_doorbells)
        << "every coalesced descriptor saves exactly one doorbell";
}

// --- Placement hints and fabric fault handling ---------------------------

TEST(FabricHints, HintSteersFirstDispatch)
{
    auto [sys, proc] = makeFabric(
        SystemConfig{}.withPlacement(PlacementKind::leastLoaded), 4);
    CallFuture f = sys->submit(*proc, CallSpec("mix_hot")
                                          .withArgs({5, 100})
                                          .withPlacementHint(2));
    EXPECT_EQ(f.wait(), workloads::mixHotRef(5, 100));
    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_EQ(st.get("placement.hinted"), 1u);
    EXPECT_EQ(st.get("host_to_nxp_calls_dev2"), 1u);
    delete sys;
}

TEST(FabricHealth, EightDeviceFabricRoutesAroundQuarantine)
{
    auto [sys, proc] = makeFabric(
        SystemConfig{}.withPlacement(PlacementKind::leastLoaded), 8);
    // Warm the fabric so the kill is the only anomaly.
    EXPECT_EQ(sys->call(*proc, "mix_hot", {1, 50}),
              workloads::mixHotRef(1, 50));

    sys->debug().engine().killDevice(3);
    // Force one call onto the dead device: it strikes out, the device
    // is quarantined, the call fails cleanly.
    CallFuture doomed = sys->submit(*proc, CallSpec("mix_hot")
                                               .withArgs({2, 50})
                                               .withPlacementHint(3));
    doomed.wait();
    EXPECT_EQ(doomed.status(), CallStatus::deviceLost);
    ASSERT_EQ(sys->debug().engine().deviceHealth(3),
              DeviceHealth::quarantined);

    // The storm now completes entirely on the surviving seven.
    const StatGroup &st = sys->debug().engine().stats();
    std::uint64_t dev3_before = st.get("host_to_nxp_calls_dev3");
    runHotStorm(*sys, *proc, 8, 200);
    EXPECT_EQ(st.get("host_to_nxp_calls_dev3"), dev3_before);
    delete sys;
}

} // namespace
} // namespace flick
