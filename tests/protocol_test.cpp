/**
 * @file
 * Protocol-order tests: the tracer's milestones for a call — the
 * protocol journal `flick_run --journal` prints — must follow the
 * Figure 2 walkthrough exactly, with monotonically non-decreasing
 * timestamps and the right targets.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace flick
{
namespace
{

using TP = TracePoint;

class ProtocolTest : public ::testing::Test
{
  protected:
    void
    boot()
    {
        sys = std::make_unique<FlickSystem>(config);
        Program prog;
        workloads::addMicrobench(prog);
        proc = &sys->load(prog);
        // Exclude the one-time stack allocation from the recording.
        sys->debug().trace().enable();
        sys->call(*proc, "nxp_noop");
        sys->debug().trace().reset();
    }

    const std::vector<TraceEvent> &
    events() const
    {
        return sys->debug().trace().events();
    }

    std::vector<TracePoint>
    points() const
    {
        std::vector<TracePoint> out;
        for (const TraceEvent &e : events())
            out.push_back(e.point);
        return out;
    }

    SystemConfig config;
    std::unique_ptr<FlickSystem> sys;
    Process *proc = nullptr;
};

TEST_F(ProtocolTest, SimpleCallFollowsFigure2a2b2f2g)
{
    boot();
    sys->call(*proc, "nxp_add", {1, 2});
    EXPECT_EQ(points(),
              (std::vector<TracePoint>{
                  TP::callEntry,
                  // (a) NX fault; the kernel packs the call descriptor,
                  // suspends the thread, and only then fires the DMA.
                  TP::hostNxFault, TP::hostDescBuild, TP::kernelSuspend,
                  TP::dmaToNxpStart,
                  // (b) the descriptor lands and the NxP enters the call.
                  TP::dmaToNxpDone, TP::nxpCallStart,
                  // (f) the NxP sends the return descriptor.
                  TP::nxpDescBuild, TP::dmaToHostStart, TP::dmaToHostDone,
                  // (g) the host wakes and resumes with the value.
                  TP::kernelWake, TP::hostWake, TP::kernelResume,
                  TP::hostResume, TP::callComplete}));
}

TEST_F(ProtocolTest, NestedCallFollowsFullFigure2)
{
    boot();
    // host -> nxp_calls_host(1) -> host_noop: the complete (a)..(g).
    sys->call(*proc, "nxp_calls_host", {1});
    EXPECT_EQ(points(),
              (std::vector<TracePoint>{
                  TP::callEntry,
                  // (a) host calls the NxP function.
                  TP::hostNxFault, TP::hostDescBuild, TP::kernelSuspend,
                  TP::dmaToNxpStart,
                  // (b) descriptor picked up, function starts on NxP.
                  TP::dmaToNxpDone, TP::nxpCallStart,
                  // (c) the NxP calls a host function.
                  TP::nxpFault, TP::nxpDescBuild, TP::dmaToHostStart,
                  TP::dmaToHostDone,
                  // (d) the host receives it and runs the function.
                  TP::kernelWake, TP::hostWake, TP::kernelResume,
                  TP::hostCallStart,
                  // (e) the host sends the return descriptor back.
                  TP::hostDescBuild, TP::kernelSuspend, TP::dmaToNxpStart,
                  TP::dmaToNxpDone,
                  // (f) the NxP resumes and eventually returns.
                  TP::nxpResume, TP::nxpDescBuild, TP::dmaToHostStart,
                  TP::dmaToHostDone,
                  // (g) the host gets the return value and continues.
                  TP::kernelWake, TP::hostWake, TP::kernelResume,
                  TP::hostResume, TP::callComplete}));
}

TEST_F(ProtocolTest, TimestampsAreMonotonic)
{
    boot();
    sys->call(*proc, "nxp_calls_host", {3});
    const auto &ev = events();
    ASSERT_FALSE(ev.empty());
    for (std::size_t i = 1; i < ev.size(); ++i)
        EXPECT_GE(ev[i].tick, ev[i - 1].tick);
}

TEST_F(ProtocolTest, JournalCarriesTargets)
{
    boot();
    sys->call(*proc, "nxp_add", {1, 2});
    const auto &ev = events();
    VAddr target = proc->image.symbol("nxp_add");
    ASSERT_GE(ev.size(), 2u);
    EXPECT_EQ(ev[1].point, TP::hostNxFault);
    EXPECT_EQ(ev[1].arg, target);
    EXPECT_EQ(ev[1].pid, proc->task->pid);
    bool saw_start = false;
    for (const TraceEvent &e : ev) {
        if (e.point == TP::nxpCallStart) {
            EXPECT_EQ(e.arg, target);
            saw_start = true;
        }
    }
    EXPECT_TRUE(saw_start);
}

TEST_F(ProtocolTest, RecursionNestsJournalSymmetrically)
{
    boot();
    sys->call(*proc, "host_fact_nxp", {4});
    // Counts must balance: every fault produces exactly one return.
    int host_faults = 0, host_resumes = 0;
    int nxp_faults = 0, nxp_resumes = 0;
    for (const TraceEvent &e : events()) {
        host_faults += e.point == TP::hostNxFault;
        host_resumes += e.point == TP::hostResume;
        nxp_faults += e.point == TP::nxpFault;
        nxp_resumes += e.point == TP::nxpResume;
    }
    EXPECT_EQ(host_faults, host_resumes);
    EXPECT_EQ(nxp_faults, nxp_resumes);
    // fact(4): host->nxp at 3, 1 and nxp->host at 2 (mutual recursion).
    EXPECT_EQ(host_faults, 2);
    EXPECT_EQ(nxp_faults, 1);
}

TEST_F(ProtocolTest, DmaFiresOnlyAfterSuspend)
{
    boot();
    sys->call(*proc, "nxp_calls_host", {1});
    // Section IV-D: every descriptor DMA toward the NxP fires only after
    // the kernel suspended the thread and switched away from it.
    Tick suspended = maxTick;
    unsigned dmas = 0;
    for (const TraceEvent &e : events()) {
        if (e.point == TP::kernelSuspend)
            suspended = e.tick;
        if (e.point != TP::dmaToNxpStart)
            continue;
        ++dmas;
        ASSERT_NE(suspended, maxTick) << "DMA before any suspend";
        EXPECT_GE(e.tick - suspended, sys->config().timing.suspendSwitch);
        suspended = maxTick;
    }
    EXPECT_EQ(dmas, 2u); // the call and the callback's return
}

TEST_F(ProtocolTest, JournalDisabledByDefault)
{
    config = {};
    sys = std::make_unique<FlickSystem>(config);
    Program prog;
    workloads::addMicrobench(prog);
    proc = &sys->load(prog);
    sys->call(*proc, "nxp_add", {1, 2});
    EXPECT_FALSE(sys->debug().trace().on());
    EXPECT_TRUE(events().empty());
}

TEST_F(ProtocolTest, EnableClearsPreviousJournal)
{
    boot();
    sys->call(*proc, "nxp_add", {1, 2});
    EXPECT_FALSE(events().empty());
    sys->debug().trace().reset();
    EXPECT_TRUE(events().empty());
    EXPECT_TRUE(sys->debug().trace().on());
}

TEST(TracePointNames, AllDistinct)
{
    std::set<std::string> names;
    for (int i = 0; i <= static_cast<int>(TP::specConflict); ++i) {
        const char *name = tracePointName(static_cast<TracePoint>(i));
        EXPECT_STRNE(name, "?");
        names.insert(name);
    }
    EXPECT_EQ(names.size(), static_cast<std::size_t>(TP::specConflict) + 1);
}

} // namespace
} // namespace flick
