/**
 * @file
 * Stats-identity golden test.
 *
 * Host-speed work and refactoring of the simulator (hot-path rewrites
 * of the CRC, the stat counters, the memory routes, the event queue;
 * the per-device wiring of FlickSystem) must not move a single
 * simulated tick or counter. This test pins that down: four small
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
