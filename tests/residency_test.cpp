/**
 * @file
 * Residency tracking, residency-aware placement and hot-page migration
 * (DESIGN.md §15).
 *
 * The backbone invariants:
 *  - Tracking off (the default) is tick-for-tick identical to a run
 *    with tracking on, and its stats dump carries zero flick.residency.*
 *    lines: the counters are purely passive and the subsystem has no
 *    footprint when disabled.
 *  - Counters attribute timed core accesses to the right accessor
 *    (host core vs each NxP core); debug/DMA/walk traffic is excluded.
 *  - ResidencyAwarePlacement steers a call to the device holding its
 *    argument pages even before any access is counted (cold mapped
 *    pages vote by holder); a non-canonical argument names no page and
 *    casts no vote.
 *  - migrateNow() moves a 4K frame host<->device with contents intact,
 *    remapping the PTE and updating the translation; a write racing the
 *    copy dirties the source and forces a bounded recopy, never losing
 *    the store; a page whose decoded text is live in a decode cache is
 *    re-decoded after migration (remap broadcasts the invalidation).
 *  - Migration defers to in-flight descriptor DMA, and a queued QoS
 *    call survives its argument page migrating while it waits.
 *  - The scan hysteresis (minAccesses / dominancePct / cooldownScans)
 *    keeps cold and contested pages put and rests a migrated page
 *    before it may move again.
 *
 * NOTE on the address map (DESIGN.md §15): device 0's BAR window is
 * shadowed by every other device's local-DRAM claim, so data in device
 * 0's DRAM must only be dereferenced by the host or device 0 itself.
 * Every test here respects that: single-device tests use device 0,
 * and the steering test puts the shard on device 1.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "flick/system.hh"
#include "workloads/sharded.hh"

using namespace flick;
using workloads::shardSumRef;
using workloads::shardWord;

namespace
{

/** Build a system with the sharded kernels loaded. */
std::pair<FlickSystem *, Process *>
makeSharded(SystemConfig config, unsigned devices = 1)
{
    config.withDevices(devices);
    auto *sys = new FlickSystem(std::move(config));
    Program prog;
    workloads::addShardedKernels(prog, devices);
    Process &proc = sys->load(prog);
    return {sys, &proc};
}

/** Fill @p words 64-bit words at @p va with shard @p s's pattern. */
void
fillShard(FlickSystem &sys, Process &proc, VAddr va, unsigned s,
          std::uint64_t words)
{
    for (std::uint64_t i = 0; i < words; ++i)
        sys.writeVa(proc, va + 8 * i, shardWord(s, i));
}

/** Canonical page key of @p va's current frame (host PA space). */
std::uint64_t
keyOf(FlickSystem &sys, const Process &proc, VAddr va)
{
    auto tr = sys.debug().pageTables().translate(proc.image.cr3, va);
    EXPECT_TRUE(tr.has_value());
    return sys.debug().mem().canonicalPageKey(Requester::debug,
                                              tr->pa & ~Addr(4095));
}

/** Physical frame currently backing @p va. */
Addr
frameOf(FlickSystem &sys, const Process &proc, VAddr va)
{
    auto tr = sys.debug().pageTables().translate(proc.image.cr3, va);
    EXPECT_TRUE(tr.has_value());
    return tr->pa & ~Addr(4095);
}

/** Advance simulated time until the migrator drains (bounded). */
void
drainMigrator(FlickSystem &sys, Tick bound = us(500))
{
    PageMigrator *m = sys.debug().migrator();
    ASSERT_NE(m, nullptr);
    Tick deadline = sys.now() + bound;
    while (!m->idle() && sys.now() < deadline)
        sys.advanceTime(us(2));
    ASSERT_TRUE(m->idle()) << "migrator did not drain";
}

/** Advance until the migrator has completed @p target scan epochs. */
void
waitScans(FlickSystem &sys, std::uint64_t target, Tick bound = us(2000))
{
    PageMigrator *m = sys.debug().migrator();
    ASSERT_NE(m, nullptr);
    Tick deadline = sys.now() + bound;
    while (m->stats().get("scans") < target && sys.now() < deadline)
        sys.advanceTime(us(5));
    ASSERT_GE(m->stats().get("scans"), target) << "scan epochs stalled";
}

/** One deterministic call sequence used by the tick-identity test. */
std::vector<std::uint64_t>
identityScenario(FlickSystem &sys, Process &proc)
{
    VAddr buf = sys.migratableMalloc(proc, 4096, -1);
    fillShard(sys, proc, buf, 3, 64);
    std::vector<std::uint64_t> vals;
    vals.push_back(sys.call(proc, "shard_sum", {buf, 64}));
    vals.push_back(sys.call(proc, "shard_sum__host", {buf, 64}));
    vals.push_back(sys.call(proc, "shard_sum", {buf, 32}));
    return vals;
}

TEST(Residency, TrackingOffIsTickIdenticalAndSilent)
{
    auto [off, poff] = makeSharded(SystemConfig{});
    auto [on, pon] = makeSharded(SystemConfig{}.withResidencyTracking());

    EXPECT_EQ(off->debug().residency(), nullptr);
    EXPECT_EQ(off->debug().migrator(), nullptr);
    ASSERT_NE(on->debug().residency(), nullptr);

    std::vector<std::uint64_t> voff = identityScenario(*off, *poff);
    std::vector<std::uint64_t> von = identityScenario(*on, *pon);
    EXPECT_EQ(voff, von);
    EXPECT_EQ(voff[0], shardSumRef(3, 0, 64));

    // Passive counters: identical final tick, and tracking recorded
    // accesses without perturbing anything.
    EXPECT_EQ(off->now(), on->now());
    EXPECT_GT(on->debug().residency()->pagesTracked(), 0u);

    std::ostringstream doff, don;
    off->dumpStats(doff);
    on->dumpStats(don);
    EXPECT_EQ(doff.str().find("flick.residency."), std::string::npos);
    EXPECT_NE(don.str().find("flick.residency.accesses"),
              std::string::npos);
    EXPECT_NE(don.str().find("flick.residency.pages_tracked"),
              std::string::npos);

    delete off;
    delete on;
}

TEST(Residency, CountersAttributeAccessesByCore)
{
    auto [sys, proc] = makeSharded(SystemConfig{}.withResidencyTracking());
    ResidencyTracker *t = sys->debug().residency();
    ASSERT_NE(t, nullptr);

    VAddr buf = sys->migratableMalloc(*proc, 4096, -1);
    fillShard(*sys, *proc, buf, 1, 64);
    std::uint64_t key = keyOf(*sys, *proc, buf);

    // The debug back door (the fill above) must not count.
    EXPECT_EQ(t->counts(key), nullptr);

    // Host-ISA twin: every word read lands on the host accessor.
    EXPECT_EQ(sys->call(*proc, "shard_sum__host", {buf, 64}),
              shardSumRef(1, 0, 64));
    EXPECT_GE(t->accesses(key, ResidencyTracker::hostAccessor), 64u);
    EXPECT_EQ(t->accesses(key, 1), 0u);

    // Device-homed call (static placement): device 0's accessor.
    EXPECT_EQ(sys->call(*proc, "shard_sum", {buf, 64}),
              shardSumRef(1, 0, 64));
    EXPECT_GE(t->accesses(key, 1), 64u);

    t->syncStats();
    EXPECT_GE(t->stats().get("accesses_host"), 64u);
    EXPECT_GE(t->stats().get("accesses_dev0"), 64u);
    EXPECT_EQ(t->stats().get("accesses"),
              t->total(0) + t->total(1));
    delete sys;
}

TEST(Residency, ColdPagesSteerResidencyAwarePlacement)
{
    auto [sys, proc] =
        makeSharded(SystemConfig{}
                        .withResidencyTracking()
                        .withPlacement(PlacementKind::residencyAware),
                    2);

    // The shard lives in device 1's DRAM; nothing has touched it yet,
    // so only the holder vote of the cold mapped pages can steer.
    VAddr buf = sys->migratableMalloc(*proc, 4096, 1);
    fillShard(*sys, *proc, buf, 7, 64);

    EXPECT_EQ(sys->call(*proc, "shard_sum", {buf, 64}),
              shardSumRef(7, 0, 64));

    const StatGroup &es = sys->debug().engine().stats();
    EXPECT_EQ(es.get("host_to_nxp_calls_dev1"), 1u);
    EXPECT_EQ(es.get("host_to_nxp_calls_dev0"), 0u);
    delete sys;
}

TEST(Residency, NonCanonicalArgumentCastsNoVote)
{
    auto [sys, proc] =
        makeSharded(SystemConfig{}
                        .withResidencyTracking()
                        .withPlacement(PlacementKind::residencyAware),
                    2);

    VAddr host_buf = sys->migratableMalloc(*proc, 4096, -1);
    VAddr dev1_buf = sys->migratableMalloc(*proc, 4096, 1);
    fillShard(*sys, *proc, host_buf, 5, 64);

    // Bits 63..48 set make the third argument a non-canonical address:
    // it names no page, so it must not vote for the holder of dev1_buf
    // and leave host DRAM the majority holder.
    EXPECT_EQ(sys->call(*proc, "shard_sum",
                        {host_buf, 64, (1ull << 48) | dev1_buf}),
              shardSumRef(5, 0, 64));

    const StatGroup &es = sys->debug().engine().stats();
    EXPECT_EQ(es.get("placement.host_steered"), 1u);
    EXPECT_EQ(es.get("host_to_nxp_calls_dev1"), 0u);
    delete sys;
}

TEST(Residency, MigrateNowMovesFrameAndPreservesContents)
{
    auto [sys, proc] = makeSharded(SystemConfig{}.withPageMigration());
    PageMigrator *m = sys->debug().migrator();
    ASSERT_NE(m, nullptr);
    const PlatformConfig &plat = sys->config().platform;
    Addr cr3 = proc->image.cr3;

    VAddr buf = sys->migratableMalloc(*proc, 4096, -1);
    for (unsigned i = 0; i < 512; ++i)
        sys->writeVa(*proc, buf + 8 * i, i * 3 + 5);

    EXPECT_TRUE(plat.inHostDram(frameOf(*sys, *proc, buf)));

    // Host -> device 0.
    EXPECT_TRUE(m->migrateNow(cr3, buf, 0));
    drainMigrator(*sys);
    unsigned dev = ~0u;
    Addr pa = frameOf(*sys, *proc, buf);
    EXPECT_TRUE(plat.inBarDram(pa, dev));
    EXPECT_EQ(dev, 0u);
    for (unsigned i = 0; i < 512; ++i)
        EXPECT_EQ(sys->readVa(*proc, buf + 8 * i), i * 3 + 5);
    EXPECT_EQ(m->stats().get("migrations"), 1u);
    EXPECT_EQ(m->stats().get("migrations_to_dev0"), 1u);
    EXPECT_EQ(m->stats().get("migration_retries"), 0u);

    // No-op and invalid requests are refused.
    EXPECT_FALSE(m->migrateNow(cr3, buf, 0));       // already there
    EXPECT_FALSE(m->migrateNow(cr3, 0x7f3000, 0));  // unmapped
    // The 1G-mapped NxP window cannot migrate (4K granules only).
    EXPECT_FALSE(m->migrateNow(cr3, layout::nxpWindowBaseFor(0), -1));

    // Device 0 -> host round trip.
    EXPECT_TRUE(m->migrateNow(cr3, buf, -1));
    drainMigrator(*sys);
    EXPECT_TRUE(plat.inHostDram(frameOf(*sys, *proc, buf)));
    for (unsigned i = 0; i < 512; ++i)
        EXPECT_EQ(sys->readVa(*proc, buf + 8 * i), i * 3 + 5);
    EXPECT_EQ(m->stats().get("migrations"), 2u);
    EXPECT_EQ(m->stats().get("migrations_to_host"), 1u);
    delete sys;
}

TEST(Residency, MigrationInvalidatesLiveDecodedText)
{
    auto [sys, proc] = makeSharded(SystemConfig{}.withPageMigration());
    PageMigrator *m = sys->debug().migrator();
    Addr cr3 = proc->image.cr3;

    VAddr buf = sys->migratableMalloc(*proc, 4096, -1);
    fillShard(*sys, *proc, buf, 2, 64);
    VAddr fn = proc->image.symbols.at("shard_sum__host");

    // Warm the host decode cache on the twin's text page.
    EXPECT_EQ(sys->call(*proc, "shard_sum__host", {buf, 64}),
              shardSumRef(2, 0, 64));
    const StatGroup &hs = sys->debug().hostCore().stats();
    std::uint64_t fills_warm = hs.get("decode_cache_fills");

    // A second identical call runs fully from the cache.
    EXPECT_EQ(sys->call(*proc, "shard_sum__host", {buf, 64}),
              shardSumRef(2, 0, 64));
    EXPECT_EQ(hs.get("decode_cache_fills"), fills_warm);

    // Migrate the text page out to device 0's DRAM while its decoded
    // entries are live. The remap must invalidate them; the next call
    // re-decodes from the new frame and still computes the same value.
    EXPECT_TRUE(m->migrateNow(cr3, fn & ~VAddr(4095), 0));
    drainMigrator(*sys);
    EXPECT_EQ(m->stats().get("migrations"), 1u);

    EXPECT_EQ(sys->call(*proc, "shard_sum__host", {buf, 64}),
              shardSumRef(2, 0, 64));
    EXPECT_GT(hs.get("decode_cache_fills"), fills_warm);
    delete sys;
}

TEST(Residency, RacingWriteForcesRecopy)
{
    auto [sys, proc] = makeSharded(SystemConfig{}.withPageMigration());
    PageMigrator *m = sys->debug().migrator();
    Addr cr3 = proc->image.cr3;

    VAddr buf = sys->migratableMalloc(*proc, 4096, -1);
    sys->writeVa(*proc, buf, 111);

    // Start the copy, then store to the source page mid-flight. The
    // write-listener dirties the in-flight frame and commit recopies.
    EXPECT_TRUE(m->migrateNow(cr3, buf, 0));
    EXPECT_FALSE(m->idle());
    sys->advanceTime(us(1));
    ASSERT_FALSE(m->idle()) << "copy finished before the racing write";
    sys->writeVa(*proc, buf, 999);

    drainMigrator(*sys);
    EXPECT_GE(m->stats().get("migration_retries"), 1u);
    EXPECT_EQ(m->stats().get("migrations"), 1u);
    EXPECT_EQ(m->stats().get("migration_aborts"), 0u);

    unsigned dev = ~0u;
    EXPECT_TRUE(
        sys->config().platform.inBarDram(frameOf(*sys, *proc, buf), dev));
    EXPECT_EQ(sys->readVa(*proc, buf), 999u);
    delete sys;
}

/** Migration config whose scans never plan moves on their own (the
 *  scan tick still retries deferred/queued plans). */
MigrationConfig
manualOnly()
{
    MigrationConfig mcfg;
    mcfg.enabled = true;
    mcfg.minAccesses = ~std::uint64_t(0);
    return mcfg;
}

TEST(Residency, MigrationDefersToInFlightDma)
{
    auto [sys, proc] =
        makeSharded(SystemConfig{}.withPageMigration(manualOnly()));
    PageMigrator *m = sys->debug().migrator();
    Addr cr3 = proc->image.cr3;

    VAddr big = sys->migratableMalloc(*proc, 16384, -1);
    fillShard(*sys, *proc, big, 4, 2048);
    VAddr buf = sys->migratableMalloc(*proc, 4096, -1);
    fillShard(*sys, *proc, buf, 5, 64);

    // Submit a call and catch its descriptor DMA in flight.
    CallFuture fut =
        sys->submit(*proc, CallSpec("shard_sum").withArgs({big, 2048}));
    Tick deadline = sys->now() + us(100);
    DmaEngine &dma = sys->debug().dma(0);
    while (!dma.busy() && sys->now() < deadline)
        sys->advanceTime(ns(100));
    ASSERT_TRUE(dma.busy()) << "descriptor DMA never started";

    // The migration must not interleave with the live transfer: it
    // stays queued (deferred) and completes at a later scan boundary.
    EXPECT_TRUE(m->migrateNow(cr3, buf, 0));
    EXPECT_GE(m->stats().get("migration_deferred_dma"), 1u);
    EXPECT_FALSE(m->idle());

    EXPECT_EQ(fut.wait(), shardSumRef(4, 0, 2048));
    drainMigrator(*sys);
    EXPECT_EQ(m->stats().get("migrations"), 1u);
    EXPECT_EQ(sys->readVa(*proc, buf), shardWord(5, 0));
    delete sys;
}

TEST(Residency, QueuedQosCallSurvivesArgPageMigration)
{
    QosConfig qos;
    qos.enabled = true;
    qos.tenantInFlight = 1;
    auto [sys, proc] = makeSharded(
        SystemConfig{}.withPageMigration(manualOnly()).withQos(qos));
    PageMigrator *m = sys->debug().migrator();
    Addr cr3 = proc->image.cr3;

    VAddr big = sys->migratableMalloc(*proc, 16384, -1);
    fillShard(*sys, *proc, big, 8, 2048);
    VAddr buf = sys->migratableMalloc(*proc, 4096, -1);
    fillShard(*sys, *proc, buf, 9, 64);

    Task &t1 = sys->spawnThread(*proc);
    Task &t2 = sys->spawnThread(*proc);
    CallFuture a = sys->submit(
        *proc, CallSpec("shard_sum").withArgs({big, 2048}).onThread(t1));
    CallFuture b = sys->submit(
        *proc, CallSpec("shard_sum").withArgs({buf, 64}).onThread(t2));

    // The tenant budget is 1: b sits in the QoS queue while a runs.
    sys->advanceTime(us(10));
    ASSERT_FALSE(b.done());

    // Migrate the queued call's argument page under it. Arguments are
    // virtual addresses, so the call must read the moved frame.
    EXPECT_TRUE(m->migrateNow(cr3, buf, 0));
    drainMigrator(*sys, us(3000));
    EXPECT_EQ(m->stats().get("migrations"), 1u);

    EXPECT_EQ(a.wait(), shardSumRef(8, 0, 2048));
    EXPECT_EQ(b.wait(), shardSumRef(9, 0, 64));
    unsigned dev = ~0u;
    EXPECT_TRUE(
        sys->config().platform.inBarDram(frameOf(*sys, *proc, buf), dev));
    EXPECT_EQ(dev, 0u);
    delete sys;
}

TEST(Residency, HysteresisKeepsContestedPagesPut)
{
    MigrationConfig mcfg;
    mcfg.enabled = true;
    mcfg.scanInterval = us(50);
    mcfg.minAccesses = 16;
    mcfg.dominancePct = 60;
    mcfg.cooldownScans = 3;
    auto [sys, proc] =
        makeSharded(SystemConfig{}.withPageMigration(mcfg));
    PageMigrator *m = sys->debug().migrator();
    ResidencyTracker *t = sys->debug().residency();
    ASSERT_NE(t, nullptr);

    VAddr buf = sys->migratableMalloc(*proc, 4096, -1);
    sys->writeVa(*proc, buf, 42);
    std::uint64_t key = keyOf(*sys, *proc, buf);

    // Epoch 1: cold — total accesses below minAccesses, no move.
    for (int i = 0; i < 8; ++i)
        t->touch(key, 1);
    waitScans(*sys, 1);
    EXPECT_EQ(m->stats().get("migrations"), 0u);

    // Epochs 2-4: contested near 50/50 — dominance unmet, no move.
    for (std::uint64_t e = 2; e <= 4; ++e) {
        for (int i = 0; i < 16; ++i) {
            t->touch(key, 0);
            t->touch(key, 1);
        }
        waitScans(*sys, e);
        EXPECT_EQ(m->stats().get("migrations"), 0u);
    }

    // Epoch 5: device 0 dominates — the page follows it.
    for (int i = 0; i < 32; ++i)
        t->touch(key, 1);
    waitScans(*sys, 5);
    drainMigrator(*sys);
    EXPECT_EQ(m->stats().get("migrations"), 1u);
    EXPECT_EQ(m->stats().get("migrations_to_dev0"), 1u);
    unsigned dev = ~0u;
    EXPECT_TRUE(
        sys->config().platform.inBarDram(frameOf(*sys, *proc, buf), dev));
    EXPECT_EQ(sys->readVa(*proc, buf), 42u);

    // Cooldown: three scans of hostile (host-dominant) counters on the
    // new frame leave the freshly migrated page resting.
    std::uint64_t key2 = keyOf(*sys, *proc, buf);
    ASSERT_NE(key2, key);
    for (std::uint64_t e = 6; e <= 8; ++e) {
        for (int i = 0; i < 32; ++i)
            t->touch(key2, 0);
        waitScans(*sys, e);
        drainMigrator(*sys);
        EXPECT_EQ(m->stats().get("migrations"), 1u)
            << "page moved during cooldown (epoch " << e << ")";
    }

    // Cooldown expired: the sustained host dominance now wins.
    waitScans(*sys, 9);
    drainMigrator(*sys);
    EXPECT_EQ(m->stats().get("migrations"), 2u);
    EXPECT_EQ(m->stats().get("migrations_to_host"), 1u);
    EXPECT_TRUE(
        sys->config().platform.inHostDram(frameOf(*sys, *proc, buf)));
    EXPECT_EQ(sys->readVa(*proc, buf), 42u);
    delete sys;
}

TEST(Residency, DequeueRevotesAStaleQosPlacementHint)
{
    QosConfig qos;
    qos.enabled = true;
    qos.tenantInFlight = 1;
    auto [sys, proc] = makeSharded(
        SystemConfig{}.withPageMigration(manualOnly()).withQos(qos), 2);
    PageMigrator *m = sys->debug().migrator();
    Addr cr3 = proc->image.cr3;

    VAddr big = sys->migratableMalloc(*proc, 16384, -1);
    fillShard(*sys, *proc, big, 8, 2048);
    VAddr buf = sys->migratableMalloc(*proc, 4096, -1);
    fillShard(*sys, *proc, buf, 9, 64);

    Task &t1 = sys->spawnThread(*proc);
    Task &t2 = sys->spawnThread(*proc);
    CallFuture a = sys->submit(
        *proc, CallSpec("shard_sum").withArgs({big, 2048}).onThread(t1));
    // The submitter pins b to device 1; with the tenant budget held by
    // a, the hint sits in the QoS queue alongside the call.
    CallFuture b = sys->submit(*proc, CallSpec("shard_sum")
                                          .withArgs({buf, 64})
                                          .withPlacementHint(1)
                                          .onThread(t2));
    sys->advanceTime(us(10));
    ASSERT_FALSE(b.done());

    // While b waits, its argument page migrates to device 0. The
    // submit-time hint is now stale: device 0's DRAM is shadowed by
    // device 1's window claim, so running b on device 1 would
    // dereference the wrong memory (the §15 address-map hazard).
    EXPECT_TRUE(m->migrateNow(cr3, buf, 0));
    drainMigrator(*sys, us(3000));
    EXPECT_EQ(m->stats().get("migrations"), 1u);

    // Dequeue re-votes the majority holder and re-points the hint.
    EXPECT_EQ(a.wait(), shardSumRef(8, 0, 2048));
    EXPECT_EQ(b.wait(), shardSumRef(9, 0, 64));
    EXPECT_EQ(sys->debug().engine().stats().get("qos.hint_revotes"), 1u);
    unsigned dev = ~0u;
    EXPECT_TRUE(
        sys->config().platform.inBarDram(frameOf(*sys, *proc, buf), dev));
    EXPECT_EQ(dev, 0u);
    delete sys;
}

} // namespace
