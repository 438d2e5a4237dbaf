/**
 * @file
 * Speculative dual execution (DESIGN.md §16).
 *
 * The backbone invariants:
 *  - Speculation off (the default) constructs no manager, emits zero
 *    flick.spec.* stat lines, and is tick-for-tick identical to a run
 *    with the subsystem enabled but never triggered.
 *  - A race that the host twin wins commits its buffered stores
 *    atomically and returns exactly the value a non-speculative run
 *    produces — memory included, bit for bit.
 *  - A race that the NxP wins squashes the host twin without a trace:
 *    no buffered store leaks, and the device-side result is untouched.
 *  - A committed write by any other requester into a page the
 *    speculation read or wrote aborts the race; the call still
 *    completes correctly on the NxP (never wrong, at worst wasted).
 *  - Squashed races leak nothing: cores, ring slots and the write
 *    buffer are all reusable, so back-to-back races keep completing.
 *  - Under descriptor corruption / retransmit chaos, every raced call
 *    commits exactly one side and still returns the right value.
 *
 * Counter algebra asserted throughout: spec.launched ==
 * spec.committed_host + spec.squashed, and spec.committed_nxp +
 * spec.aborted <= spec.squashed.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "flick/system.hh"
#include "policy/profile_guided.hh"
#include "workloads/sharded.hh"

using namespace flick;
using workloads::shardSumRef;
using workloads::shardWord;

namespace
{

// A kernel pair that WRITES memory, so commits have stores to replay:
// spec_fill(ptr, words, seed) stores seed, seed+7, ... and returns the
// sum of the stored values. Homed on device 0 with a bit-identical
// HX64 twin.
const char *nxpFillAsm = R"(
spec_fill:
    li t0, 0
sfd_loop:
    beqz a1, sfd_done
    sd a2, 0(a0)
    add t0, t0, a2
    addi a2, a2, 7
    addi a0, a0, 8
    addi a1, a1, -1
    j sfd_loop
sfd_done:
    mv a0, t0
    ret
)";

const char *hostFillAsm = R"(
spec_fill__host:
    mov rax, 0
sfh_loop:
    cmp rsi, 0
    je sfh_done
    st [rdi+0], rdx
    add rax, rdx
    add rdx, 7
    add rdi, 8
    sub rsi, 1
    jmp sfh_loop
sfh_done:
    ret
)";

/** Reference model of spec_fill's return value. */
std::uint64_t
fillSumRef(std::uint64_t words, std::uint64_t seed)
{
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < words; ++i)
        sum += seed + 7 * i;
    return sum;
}

/** Build a system with the sharded + fill kernels loaded. */
std::pair<FlickSystem *, Process *>
makeSpecSystem(SystemConfig config, unsigned devices = 1)
{
    config.withDevices(devices);
    auto *sys = new FlickSystem(std::move(config));
    Program prog;
    workloads::addShardedKernels(prog, devices);
    prog.addNxpAsm(nxpFillAsm, 0);
    prog.addHostAsm(hostFillAsm);
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

/** The spec counter algebra every system must satisfy at all times. */
void
expectSpecInvariants(FlickSystem &sys)
{
    const StatGroup &st = sys.debug().engine().stats();
    EXPECT_EQ(st.get("spec.launched"),
              st.get("spec.committed_host") + st.get("spec.squashed"));
    EXPECT_LE(st.get("spec.committed_nxp"), st.get("spec.squashed"));
    EXPECT_LE(st.get("spec.aborted"), st.get("spec.squashed"));
}

/** A racing config: always speculate when the policy is unsure. */
SystemConfig
racingConfig(unsigned threshold = 25)
{
    SpecConfig sc;
    sc.confidenceThresholdPct = threshold;
    return SystemConfig{}
        .withPlacement(PlacementKind::profileGuided)
        .withSpeculation(sc);
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
    vals.push_back(sys.call(proc, "spec_fill", {buf, 32, 11}));
    vals.push_back(sys.call(proc, "shard_sum", {buf, 32}));
    return vals;
}

TEST(Speculation, OffAndIdleAreTickIdenticalAndSilent)
{
    // Off: no manager. Idle: manager attached (the mem hook interposes
    // on every timed access) but with no placement policy every
    // dispatch reports confidence 100, so no race ever launches. Both
    // must match the seed run tick for tick with zero flick.spec.* stat
    // lines.
    auto [off, poff] = makeSpecSystem(SystemConfig{});
    auto [idle, pidle] = makeSpecSystem(SystemConfig{}.withSpeculation());

    EXPECT_EQ(off->debug().speculation(), nullptr);
    ASSERT_NE(idle->debug().speculation(), nullptr);

    std::vector<std::uint64_t> voff = identityScenario(*off, *poff);
    std::vector<std::uint64_t> vidle = identityScenario(*idle, *pidle);
    EXPECT_EQ(voff, vidle);
    EXPECT_EQ(voff[0], shardSumRef(3, 0, 64));
    EXPECT_EQ(voff[2], fillSumRef(32, 11));
    EXPECT_EQ(off->now(), idle->now());

    std::ostringstream doff, didle;
    off->dumpStats(doff);
    idle->dumpStats(didle);
    EXPECT_EQ(doff.str().find("flick.spec."), std::string::npos);
    EXPECT_EQ(didle.str().find("flick.spec."), std::string::npos);

    delete off;
    delete idle;
}

TEST(Speculation, HostWinCommitsAndHarvestsTheDoubleSample)
{
    // Host-resident data, small N: the twin finishes in ~6us while the
    // crossing alone costs ~18us, so the host side wins the first
    // (unmodeled, confidence-0) call's race.
    auto [sys, proc] = makeSpecSystem(racingConfig());
    VAddr buf = sys->migratableMalloc(*proc, 4096, -1);
    fillShard(*sys, *proc, buf, 5, 64);

    EXPECT_EQ(sys->call(*proc, "shard_sum", {buf, 64}),
              shardSumRef(5, 0, 64));

    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_EQ(st.get("spec.launched"), 1u);
    EXPECT_EQ(st.get("spec.launched_dev0"), 1u);
    EXPECT_EQ(st.get("spec.committed_host"), 1u);
    EXPECT_EQ(st.get("spec.committed_nxp"), 0u);
    EXPECT_EQ(st.get("spec.squashed"), 0u);
    EXPECT_EQ(st.get("spec.conflicts"), 0u);

    // The cut NxP side still retires its segment as a straggler; the
    // engine must drop the stale completion but harvest the device-
    // side latency sample (the second half of the free double-sample).
    sys->advanceTime(us(500));
    EXPECT_EQ(st.get("spec.double_samples"), 1u);
    EXPECT_EQ(st.get("spec.double_samples_dev0"), 1u);
    auto &pg = dynamic_cast<ProfileGuidedPlacement &>(
        *sys->debug().policy());
    const auto prof = pg.profile(proc->image.cr3,
                                  proc->image.symbol("shard_sum"));
    ASSERT_TRUE(prof);
    EXPECT_GE(prof->hostSamples, 1u);
    EXPECT_GE(prof->deviceSamples, 1u);

    expectSpecInvariants(*sys);
    delete sys;
}

TEST(Speculation, HostWinReplaysBufferedStoresBitIdentically)
{
    // The twin WRITES guest memory: nothing may land before commit,
    // and after commit the memory must match a non-speculative run
    // byte for byte.
    auto [spec, pspec] = makeSpecSystem(racingConfig());
    auto [base, pbase] = makeSpecSystem(
        SystemConfig{}.withPlacement(PlacementKind::profileGuided));

    VAddr bs = spec->migratableMalloc(*pspec, 4096, -1);
    VAddr bb = base->migratableMalloc(*pbase, 4096, -1);
    ASSERT_EQ(bs, bb);

    std::uint64_t vs = spec->call(*pspec, "spec_fill", {bs, 64, 13});
    std::uint64_t vb = base->call(*pbase, "spec_fill", {bb, 64, 13});
    EXPECT_EQ(vs, vb);
    EXPECT_EQ(vs, fillSumRef(64, 13));

    const StatGroup &st = spec->debug().engine().stats();
    EXPECT_EQ(st.get("spec.committed_host"), 1u);
    // 64 stores of 8 bytes replayed out of the write buffer.
    EXPECT_GE(st.get("spec.replayed_bytes"), 512u);

    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_EQ(spec->readVa(*pspec, bs + 8 * i), 13 + 7ull * i);
        EXPECT_EQ(spec->readVa(*pspec, bs + 8 * i),
                  base->readVa(*pbase, bb + 8 * i));
    }
    expectSpecInvariants(*spec);
    delete spec;
    delete base;
}

TEST(Speculation, NxpWinSquashesTheHostTwinCleanly)
{
    // Device-resident data, large N: the twin pays ~825ns per BAR read
    // while the NxP reads locally at ~267ns, so the device wins by a
    // wide margin and the host side is squashed.
    auto [sys, proc] = makeSpecSystem(racingConfig());
    VAddr buf = sys->migratableMalloc(*proc, 16384, 0);
    fillShard(*sys, *proc, buf, 9, 2048);

    EXPECT_EQ(sys->call(*proc, "shard_sum", {buf, 2048}),
              shardSumRef(9, 0, 2048));

    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_EQ(st.get("spec.launched"), 1u);
    EXPECT_EQ(st.get("spec.committed_host"), 0u);
    EXPECT_EQ(st.get("spec.committed_nxp"), 1u);
    EXPECT_EQ(st.get("spec.squashed"), 1u);
    EXPECT_EQ(st.get("spec.replayed_bytes"), 0u);
    EXPECT_GT(st.get("spec.wasted_ticks"), 0u);
    EXPECT_GT(st.get("spec.wasted_ticks_dev0"), 0u);

    // The squashed twin's end-to-end host cost was still measured
    // functionally and fed to the model for free.
    auto &pg = dynamic_cast<ProfileGuidedPlacement &>(
        *sys->debug().policy());
    const auto prof = pg.profile(proc->image.cr3,
                                  proc->image.symbol("shard_sum"));
    ASSERT_TRUE(prof);
    EXPECT_GE(prof->hostSamples, 1u);
    EXPECT_GE(prof->deviceSamples, 1u);

    expectSpecInvariants(*sys);
    delete sys;
}

TEST(Speculation, ConflictingWriteAbortsTheRace)
{
    // Host-resident data, large N: a long race window. A DMA write
    // into a page the twin read must abort the speculation; the call
    // then completes on the NxP, still returning the right sum.
    auto [sys, proc] = makeSpecSystem(racingConfig());
    VAddr buf = sys->migratableMalloc(*proc, 16384, -1);
    fillShard(*sys, *proc, buf, 4, 2048);

    CallFuture f = sys->submit(
        *proc, CallSpec("shard_sum").withArgs({buf, 2048}));

    SpeculationManager *spec = sys->debug().speculation();
    ASSERT_NE(spec, nullptr);
    Tick deadline = sys->now() + us(100);
    while (!spec->active() && sys->now() < deadline)
        sys->advanceTime(us(2));
    ASSERT_TRUE(spec->active()) << "race never launched";

    // An external write of the SAME value into the twin's read set:
    // contents unchanged (so the NxP result stays the reference sum),
    // but the speculation can no longer prove its reads were stable.
    auto tr = sys->debug().pageTables().translate(proc->image.cr3, buf);
    ASSERT_TRUE(tr.has_value());
    std::uint64_t word = shardWord(4, 0);
    sys->debug().mem().write(Requester::dma, tr->pa, &word, 8);

    EXPECT_EQ(f.wait(), shardSumRef(4, 0, 2048));

    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_EQ(st.get("spec.launched"), 1u);
    EXPECT_EQ(st.get("spec.conflicts"), 1u);
    EXPECT_EQ(st.get("spec.aborted"), 1u);
    EXPECT_EQ(st.get("spec.squashed"), 1u);
    EXPECT_EQ(st.get("spec.committed_host"), 0u);
    // The race was already resolved when the NxP return landed, so the
    // completion is a plain (non-race) NxP return.
    EXPECT_EQ(st.get("spec.committed_nxp"), 0u);
    expectSpecInvariants(*sys);
    delete sys;
}

TEST(Speculation, SquashedRacesLeakNothing)
{
    // Back-to-back races near the break-even point (mixed winners):
    // every squash must hand back the host core and let the cut NxP
    // side drain its ring slot, or the engine wedges within a few
    // calls. Threshold 100 races every not-certain call.
    auto [sys, proc] = makeSpecSystem(racingConfig(100));
    VAddr dbuf = sys->migratableMalloc(*proc, 4096, 0);
    VAddr hbuf = sys->migratableMalloc(*proc, 4096, -1);
    fillShard(*sys, *proc, dbuf, 2, 512);
    fillShard(*sys, *proc, hbuf, 6, 512);

    for (unsigned i = 0; i < 16; ++i) {
        // Device-resident, near break-even: either side may win.
        std::uint64_t n = 28 + (i % 8);
        EXPECT_EQ(sys->call(*proc, "shard_sum", {dbuf, n}),
                  shardSumRef(2, 0, n));
        // Host-resident small sums: the host side wins when it races.
        EXPECT_EQ(sys->call(*proc, "shard_sum", {hbuf, 8 + i}),
                  shardSumRef(6, 0, 8 + i));
        expectSpecInvariants(*sys);
    }
    sys->advanceTime(msec(2));

    const StatGroup &st = sys->debug().engine().stats();
    EXPECT_GE(st.get("spec.launched"), 2u);
    // With everything drained there is exactly one speculation slot and
    // it is free again: a fresh race must still be able to launch.
    EXPECT_FALSE(sys->debug().speculation()->active());
    std::uint64_t launched = st.get("spec.launched");
    EXPECT_EQ(sys->call(*proc, "spec_fill", {hbuf, 16, 3}),
              fillSumRef(16, 3));
    EXPECT_GT(st.get("spec.launched"), launched);
    expectSpecInvariants(*sys);
    delete sys;
}

TEST(Speculation, ChaosRaceCommitsExactlyOneSide)
{
    // Descriptor corruption, lost/duplicated MSIs and fabric jitter
    // around racing calls: the hardened protocol retransmits, and each
    // race still commits exactly one side with the right value.
    for (std::uint64_t seed = 100; seed < 105; ++seed) {
        ChaosConfig cc;
        cc.enabled = true;
        cc.seed = seed;
        cc.corruptRate = 0.15;
        cc.corruptBits = 4;
        cc.dropIrqRate = 0.05;
        cc.duplicateIrqRate = 0.05;
        cc.delayRate = 0.1;
        auto [sys, proc] =
            makeSpecSystem(racingConfig(100).withChaos(cc));
        VAddr dbuf = sys->migratableMalloc(*proc, 4096, 0);
        VAddr hbuf = sys->migratableMalloc(*proc, 4096, -1);
        fillShard(*sys, *proc, dbuf, 1, 512);
        fillShard(*sys, *proc, hbuf, 8, 512);

        for (unsigned i = 0; i < 8; ++i) {
            std::uint64_t n = 24 + 4 * (i % 4);
            EXPECT_EQ(sys->call(*proc, "shard_sum", {dbuf, n}),
                      shardSumRef(1, 0, n))
                << "chaos seed " << seed << " call " << i;
            EXPECT_EQ(sys->call(*proc, "shard_sum", {hbuf, 16}),
                      shardSumRef(8, 0, 16))
                << "chaos seed " << seed << " call " << i;
            expectSpecInvariants(*sys);
        }
        sys->advanceTime(msec(2));
        expectSpecInvariants(*sys);
        const StatGroup &st = sys->debug().engine().stats();
        EXPECT_GE(st.get("spec.launched"), 1u) << "chaos seed " << seed;
        delete sys;
    }
}

TEST(Speculation, DifferentialSweepMatchesNonSpeculativeRuns)
{
    // Seeded sweeps of mixed reads/writes over host- and device-
    // resident buffers: a racing system and a withSpeculation(false)
    // twin must agree on every return value and every final byte.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        auto [spec, pspec] = makeSpecSystem(racingConfig(100));
        auto [base, pbase] = makeSpecSystem(
            SystemConfig{}
                .withPlacement(PlacementKind::profileGuided)
                .withSpeculation(false));

        VAddr ds = spec->migratableMalloc(*pspec, 4096, 0);
        VAddr db = base->migratableMalloc(*pbase, 4096, 0);
        VAddr hs = spec->migratableMalloc(*pspec, 4096, -1);
        VAddr hb = base->migratableMalloc(*pbase, 4096, -1);
        ASSERT_EQ(ds, db);
        ASSERT_EQ(hs, hb);
        fillShard(*spec, *pspec, ds, 7, 512);
        fillShard(*base, *pbase, db, 7, 512);

        std::uint64_t rng = seed * 0x9e3779b97f4a7c15ull + 1;
        auto next = [&rng](std::uint64_t bound) {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            return (rng >> 33) % bound;
        };
        for (unsigned i = 0; i < 12; ++i) {
            std::uint64_t n = 8 + next(56);
            std::uint64_t fs = 1 + next(1000);
            std::uint64_t vs, vb;
            switch (next(3)) {
              case 0:
                vs = spec->call(*pspec, "shard_sum", {ds, n});
                vb = base->call(*pbase, "shard_sum", {db, n});
                break;
              case 1:
                vs = spec->call(*pspec, "spec_fill", {hs, n, fs});
                vb = base->call(*pbase, "spec_fill", {hb, n, fs});
                EXPECT_EQ(vs, fillSumRef(n, fs));
                break;
              default:
                vs = spec->call(*pspec, "shard_sum__host", {hs, n});
                vb = base->call(*pbase, "shard_sum__host", {hb, n});
                break;
            }
            EXPECT_EQ(vs, vb) << "seed " << seed << " step " << i;
            expectSpecInvariants(*spec);
        }
        spec->advanceTime(msec(2));
        base->advanceTime(msec(2));
        for (unsigned i = 0; i < 512; ++i) {
            ASSERT_EQ(spec->readVa(*pspec, ds + 8 * i),
                      base->readVa(*pbase, db + 8 * i))
                << "seed " << seed << " device word " << i;
            ASSERT_EQ(spec->readVa(*pspec, hs + 8 * i),
                      base->readVa(*pbase, hb + 8 * i))
                << "seed " << seed << " host word " << i;
        }
        const StatGroup &st = spec->debug().engine().stats();
        EXPECT_GE(st.get("spec.launched"), 1u) << "seed " << seed;
        std::ostringstream dbase;
        base->dumpStats(dbase);
        EXPECT_EQ(dbase.str().find("flick.spec."), std::string::npos);
        delete spec;
        delete base;
    }
}

} // namespace
