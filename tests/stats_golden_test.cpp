/**
 * @file
 * Stats-identity golden test.
 *
 * Host-speed work and refactoring of the simulator (hot-path rewrites
 * of the CRC, the stat counters, the memory routes, the event queue;
 * the per-device wiring of FlickSystem) must not move a single
 * simulated tick or counter. This test pins that down: six small
 * configurations run to completion, and a digest of their full
 * dumpStats() text plus the final tick must equal constants recorded
 * before that work. A mismatch means the change altered the
 * simulation, not just its speed or shape; the printed dump shows what
 * moved.
 *
 * Re-record the constants only in a change that means to alter the
 * simulated results, and say why in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "flick/system.hh"
#include "workloads/bfs.hh"
#include "workloads/graph.hh"
#include "workloads/microbench.hh"
#include "workloads/placement_mix.hh"
#include "workloads/sharded.hh"

using namespace flick;
using workloads::shardSumRef;
using workloads::shardWord;

namespace
{

/** FNV-1a 64 of @p s: a stable, dependency-free digest. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct Outcome
{
    std::string dump;
    Tick finalTick;
};

Outcome
finish(FlickSystem &sys)
{
    std::ostringstream os;
    sys.dumpStats(os);
    return {os.str(), sys.now()};
}

void
expectGolden(const Outcome &o, std::uint64_t digest, Tick final_tick)
{
    EXPECT_EQ(o.finalTick, final_tick);
    EXPECT_EQ(fnv1a(o.dump), digest) << "dumpStats() changed:\n" << o.dump;
}

/** Table III: no-op Host->NxP->Host calls, then an NxP callback loop. */
Outcome
runRoundtrips()
{
    FlickSystem sys{SystemConfig{}};
    Program prog;
    workloads::addMicrobench(prog);
    Process &proc = sys.load(prog);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(sys.submit(proc, CallSpec("nxp_noop")).wait(), 0u);
    EXPECT_EQ(sys.submit(proc, CallSpec("nxp_calls_host").withArgs({50}))
                  .wait(),
              0u);
    return finish(sys);
}

/** Table IV's smallest graph at scale 64: PCIe baseline, then Flick. */
Outcome
runBfs()
{
    FlickSystem sys{SystemConfig{}};
    Program prog;
    workloads::addMicrobench(prog);
    workloads::addBfsKernels(prog);
    Process &proc = sys.load(prog);
    workloads::CsrGraph g =
        workloads::CsrGraph::generate(workloads::snapDatasets(64)[0]);
    workloads::DeviceGraph d = workloads::uploadGraph(sys, proc, g);
    std::vector<std::uint64_t> args = {d.rowOff, d.col, d.visited, d.queue,
                                       0, proc.image.symbol("bfs_dummy")};
    std::uint64_t expect = g.reachableFrom(0);
    EXPECT_EQ(sys.submit(proc, CallSpec("bfs_host").withArgs(args)).wait(),
              expect);
    workloads::resetVisited(sys, proc, d);
    EXPECT_EQ(sys.submit(proc, CallSpec("bfs_nxp").withArgs(args)).wait(),
              expect);
    return finish(sys);
}

/**
 * Four devices, least-loaded placement, batching and two QoS tenants
 * weighted 3:1, offered more concurrent calls than the budgets admit,
 * so calls queue and some are shed.
 */
Outcome
runFabric()
{
    constexpr unsigned devices = 4;
    constexpr std::uint64_t rounds = 200;
    QosConfig q;
    q.tenantInFlight = devices;
    q.tenantQueueCap = devices;
    FlickSystem sys(SystemConfig{}
                        .withDevices(devices)
                        .withPlacement(PlacementKind::leastLoaded)
                        .withBatching()
                        .withQos(q)
                        .withTenantWeight(0, 3)
                        .withTenantWeight(1, 1));
    Program prog;
    workloads::addPlacementMix(prog, devices);
    Process *procs[2] = {&sys.load(prog), &sys.load(prog)};

    std::vector<CallFuture> futs;
    std::vector<std::uint64_t> expect;
    for (unsigned wave = 0; wave < 2; ++wave) {
        for (unsigned i = 0; i < 12; ++i) {
            Process &p = *procs[i % 2];
            std::uint64_t seed = 1 + wave * 12 + i;
            futs.push_back(sys.submit(p, CallSpec("mix_hot")
                                             .withArgs({seed, rounds})
                                             .onThread(sys.spawnThread(p))));
            expect.push_back(workloads::mixHotRef(seed, rounds));
        }
        sys.advanceTime(us(40));
    }
    unsigned shed = 0;
    for (std::size_t i = 0; i < futs.size(); ++i) {
        std::uint64_t v = futs[i].wait();
        if (futs[i].status() == CallStatus::shedLoad) {
            ++shed;
            continue;
        }
        EXPECT_EQ(futs[i].status(), CallStatus::ok) << "call " << i;
        EXPECT_EQ(v, expect[i]) << "call " << i;
    }
    EXPECT_GT(shed, 0u);
    EXPECT_LT(shed, futs.size());
    return finish(sys);
}

/**
 * Two devices with every per-device wiring path live: hot-page
 * migration (per-device DMA/heap and per-core MMU registration), the
 * tracer's breakdown in dumpStats(), seeded fabric faults, and calls
 * forwarded from device 0 to device 1 through the host kernel.
 */
Outcome
runTwoDevicesMigrationTraceChaos()
{
    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.seed = 5;
    chaos.corruptRate = 0.15;
    chaos.dropIrqRate = 0.10;
    chaos.duplicateIrqRate = 0.10;
    chaos.delayRate = 0.30;
    FlickSystem sys(SystemConfig{}
                        .withDevices(2)
                        .withPageMigration()
                        .withTrace()
                        .withChaos(chaos));
    Program prog;
    workloads::addMicrobench(prog);
    workloads::addShardedKernels(prog, 2);
    prog.addNxpAsm(R"(
dev1_scale:
    slli a0, a0, 2
    ret
)",
                   1);
    prog.addNxpAsm(R"(
dev0_chain:
    addi sp, sp, -16
    sd ra, 8(sp)
    call dev1_scale
    addi a0, a0, 1
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)");
    Process &proc = sys.load(prog);

    constexpr std::uint64_t words = 256;
    VAddr buf = sys.migratableMalloc(proc, words * 8, -1);
    for (std::uint64_t i = 0; i < words; ++i)
        sys.writeVa(proc, buf + 8 * i, workloads::shardWord(1, i));
    for (std::uint64_t i = 0; i < 6; ++i) {
        EXPECT_EQ(sys.submit(proc, CallSpec("shard_gather")
                                       .withArgs({buf, words}))
                      .wait(),
                  workloads::shardSumRef(1, 0, words));
        EXPECT_EQ(sys.submit(proc, CallSpec("dev0_chain").withArgs({i}))
                      .wait(),
                  4 * i + 1);
        sys.advanceTime(us(200));
    }
    EXPECT_EQ(sys.submit(proc, CallSpec("nxp_noop")).wait(), 0u);
    return finish(sys);
}

/**
 * Two devices, profile-guided placement racing low-confidence calls
 * against their host twins: a race the NxP wins, races the host twin
 * wins (a straggler return harvested), submit-time placement hints, a
 * call that misses its deadline, and calls steered to the host twin
 * that return through it.
 */
Outcome
runPolicySpeculationHints()
{
    SpecConfig spec;
    spec.confidenceThresholdPct = 25;
    FlickSystem sys(SystemConfig{}
                        .withDevices(2)
                        .withPlacement(PlacementKind::profileGuided)
                        .withSpeculation(spec));
    Program prog;
    workloads::addShardedKernels(prog, 2);
    workloads::addPlacementMix(prog, 2);
    Process &proc = sys.load(prog);

    constexpr std::uint64_t near_words = 2048;
    constexpr std::uint64_t host_words = 64;
    VAddr dev_buf = sys.migratableMalloc(proc, near_words * 8, 0);
    VAddr host_buf = sys.migratableMalloc(proc, host_words * 8, -1);
    std::uint64_t near_sum = 0;
    for (std::uint64_t i = 0; i < near_words; ++i) {
        sys.writeVa(proc, dev_buf + 8 * i, 3 * i + 1);
        near_sum += 3 * i + 1;
    }
    for (std::uint64_t i = 0; i < host_words; ++i)
        sys.writeVa(proc, host_buf + 8 * i, shardWord(5, i));

    EXPECT_EQ(sys.submit(proc, CallSpec("mix_near")
                                   .withArgs({dev_buf, near_words}))
                  .wait(),
              near_sum);
    EXPECT_EQ(sys.submit(proc, CallSpec("shard_sum")
                                   .withArgs({host_buf, host_words}))
                  .wait(),
              shardSumRef(5, 0, host_words));
    sys.advanceTime(us(500));
    for (std::uint64_t i = 0; i < 12; ++i)
        EXPECT_EQ(sys.submit(proc, CallSpec("mix_tiny").withArgs({i, 1}))
                      .wait(),
                  i + 1);
    EXPECT_EQ(sys.submit(proc, CallSpec("mix_hot")
                                   .withArgs({7, 300})
                                   .withPlacementHint(1))
                  .wait(),
              workloads::mixHotRef(7, 300));
    CallFuture late = sys.submit(proc, CallSpec("mix_hot")
                                           .withArgs({9, 1000000})
                                           .withDeadline(us(40)));
    late.wait();
    EXPECT_EQ(late.status(), CallStatus::deadlineExceeded);
    sys.advanceTime(us(2000));
    // A hinted mix_tiny gives the model its device sample; the host
    // twin's race wins already measured the host side, so the next
    // calls are steered to the twin and return through it.
    EXPECT_EQ(sys.submit(proc, CallSpec("mix_tiny")
                                   .withArgs({40, 2})
                                   .withPlacementHint(0))
                  .wait(),
              42u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(sys.submit(proc, CallSpec("mix_tiny").withArgs({i, 2}))
                      .wait(),
                  i + 2);

    const StatGroup &st = sys.debug().engine().stats();
    EXPECT_GT(st.get("spec.launched"), 0u);
    EXPECT_GT(st.get("spec.committed_host"), 0u);
    EXPECT_GT(st.get("spec.committed_nxp"), 0u);
    EXPECT_GT(st.get("placement.host_steered_returns"), 0u);
    EXPECT_EQ(st.get("placement.hinted_dev1"), 1u);
    EXPECT_EQ(st.get("deadline_exceeded"), 1u);
    return finish(sys);
}

/**
 * Two devices with host fallback and a fabric-wide deadline; device 1
 * dies mid-run. Covers a call that misses its own deadline, a call
 * rescued by its host twin after quarantine, a forwarded
 * device-to-device call and a fresh call both failed over to the twin
 * at the quarantined destination, and a hint naming the dead device.
 */
Outcome
runDeviceLossFailover()
{
    FlickSystem sys(SystemConfig{}
                        .withDevices(2)
                        .withHostFallback()
                        .withCallDeadline(us(3000)));
    Program prog;
    workloads::addMicrobench(prog);
    workloads::addMicrobenchHostFallbacks(prog);
    prog.addNxpAsm(R"(
dev1_scale:
    slli a0, a0, 2
    ret
)",
                   1);
    prog.addNxpAsm(R"(
dev0_chain:
    addi sp, sp, -16
    sd ra, 8(sp)
    call dev1_scale
    addi a0, a0, 1
    ld ra, 8(sp)
    addi sp, sp, 16
    ret
)");
    prog.addHostAsm(R"(
dev1_scale__host:
    mov rax, rdi
    shl rax, 2
    ret
)");
    Process &proc = sys.load(prog);

    for (std::uint64_t i = 0; i < 3; ++i)
        EXPECT_EQ(sys.submit(proc, CallSpec("dev0_chain").withArgs({i}))
                      .wait(),
                  4 * i + 1);
    CallFuture late = sys.submit(proc, CallSpec("nxp_noop_loop")
                                           .withArgs({200000})
                                           .withDeadline(us(20)));
    late.wait();
    EXPECT_EQ(late.status(), CallStatus::deadlineExceeded);

    sys.debug().engine().killDevice(1);
    CallFuture rescued =
        sys.submit(proc, CallSpec("dev1_scale").withArgs({5}));
    EXPECT_EQ(rescued.wait(), 20u);
    EXPECT_EQ(rescued.status(), CallStatus::ok);
    EXPECT_EQ(sys.debug().engine().deviceHealth(1),
              DeviceHealth::quarantined);
    EXPECT_EQ(sys.submit(proc, CallSpec("dev0_chain").withArgs({7})).wait(),
              29u);
    EXPECT_EQ(sys.submit(proc, CallSpec("dev1_scale").withArgs({6})).wait(),
              24u);
    EXPECT_EQ(sys.submit(proc, CallSpec("nxp_add")
                                   .withArgs({1, 2})
                                   .withPlacementHint(1))
                  .wait(),
              3u);

    const StatGroup &st = sys.debug().engine().stats();
    EXPECT_EQ(st.get("failovers_dev1"), 3u);
    EXPECT_EQ(st.get("deadline_exceeded"), 1u);
    EXPECT_EQ(st.get("quarantines_dev1"), 1u);
    return finish(sys);
}

/**
 * Two devices, least-loaded placement and h2d batching under seeded
 * fabric faults: four waves of eight concurrent threads coalesce their
 * calls into chained bursts while corrupted bursts are NAKed and
 * retransmitted from staging and MSIs are dropped, duplicated and
 * delayed — the staging, accept and NAK paths of both link directions
 * at once.
 */
Outcome
runBatchingChaos()
{
    constexpr unsigned devices = 2;
    constexpr std::uint64_t rounds = 200;
    ChaosConfig chaos;
    chaos.enabled = true;
    chaos.seed = 3;
    chaos.corruptRate = 0.15;
    chaos.dropIrqRate = 0.10;
    chaos.duplicateIrqRate = 0.10;
    chaos.delayRate = 0.30;
    FlickSystem sys(SystemConfig{}
                        .withDevices(devices)
                        .withPlacement(PlacementKind::leastLoaded)
                        .withBatching()
                        .withChaos(chaos));
    Program prog;
    workloads::addPlacementMix(prog, devices);
    Process &proc = sys.load(prog);

    constexpr unsigned threads = 8;
    std::vector<Task *> pool;
    for (unsigned i = 0; i < threads; ++i)
        pool.push_back(&sys.spawnThread(proc));
    for (std::uint64_t wave = 0; wave < 4; ++wave) {
        std::vector<CallFuture> futs;
        for (unsigned i = 0; i < threads; ++i) {
            std::uint64_t seed = wave * threads + i + 1;
            futs.push_back(sys.submit(proc, CallSpec("mix_hot")
                                                .withArgs({seed, rounds})
                                                .onThread(*pool[i])));
        }
        for (unsigned i = 0; i < threads; ++i) {
            EXPECT_EQ(futs[i].wait(),
                      workloads::mixHotRef(wave * threads + i + 1, rounds))
                << "wave " << wave << " call " << i;
            EXPECT_EQ(futs[i].status(), CallStatus::ok);
        }
    }

    const StatGroup &st = sys.debug().engine().stats();
    EXPECT_GT(st.get("naks_dev0"), 0u);
    EXPECT_GT(st.get("naks_dev1"), 0u);
    EXPECT_GT(st.get("timeouts"), 0u);
    EXPECT_GT(st.get("batch.coalesced"), 0u);
    return finish(sys);
}

} // namespace

TEST(StatsGolden, TableThreeRoundtrips)
{
    expectGolden(runRoundtrips(), 1014365565720764329ull, 1795784852);
}

TEST(StatsGolden, SmallBfsBaselineThenFlick)
{
    expectGolden(runBfs(), 11374713262924056043ull, 45396508054);
}

TEST(StatsGolden, FourDevicesBatchingAndQos)
{
    expectGolden(runFabric(), 7788291669425336230ull, 245256552);
}

TEST(StatsGolden, TwoDevicesMigrationTraceChaosForward)
{
    expectGolden(runTwoDevicesMigrationTraceChaos(), 6285687660209750921ull,
                 2508282262);
}

TEST(StatsGolden, TwoDevicesPolicySpeculationHintsDeadline)
{
    expectGolden(runPolicySpeculationHints(), 12343592003903823231ull,
                 6779493361);
}

TEST(StatsGolden, TwoDevicesDeviceLossFailoverDeadline)
{
    expectGolden(runDeviceLossFailover(), 17034069482522710049ull,
                 3241542726);
}

TEST(StatsGolden, TwoDevicesBatchingUnderChaos)
{
    expectGolden(runBatchingChaos(), 12845051791912854512ull, 564342967);
}
