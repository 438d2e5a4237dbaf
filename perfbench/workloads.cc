#include "workloads.hh"

#include <algorithm>
#include <cmath>

#include "sim/load_gen.hh"
#include "workloads/bfs.hh"
#include "workloads/graph.hh"
#include "workloads/microbench.hh"
#include "workloads/placement_mix.hh"

namespace perfbench
{

using namespace flick;

namespace
{

/** Adds the CPU seconds of its lifetime to an accumulator. */
class CpuTimer
{
  public:
    explicit CpuTimer(double &acc) : _acc(acc), _t0(cpuSeconds()) {}
    ~CpuTimer() { _acc += cpuSeconds() - _t0; }
    CpuTimer(const CpuTimer &) = delete;
    CpuTimer &operator=(const CpuTimer &) = delete;

  private:
    double &_acc;
    double _t0;
};

/**
 * Wait for @p f in slices of simulated time, calling the calibrator's
 * checkpoint between slices. Waiting in slices dispatches the same
 * events in the same order as one wait().
 */
std::uint64_t
awaitCall(FlickSystem &sys, CallFuture &f, Calibrator &cal)
{
    for (;;) {
        Tick before = sys.now();
        if (f.waitFor(msec(1)) || sys.now() == before)
            break;
        cal.checkpoint();
    }
    std::uint64_t v = f.wait();
    return f.status() == CallStatus::ok ? v : ~0ull;
}

double
relErrPct(double measured, double paper)
{
    return 100.0 * std::fabs(measured - paper) / paper;
}

/**
 * Table III on one device: K no-op Host->NxP->Host calls, then one NxP
 * loop making K NxP->Host->NxP callbacks, with the loop's outer round
 * trip measured separately and subtracted as the paper does. Each
 * crossing runs a handful of guest instructions, so the crossing
 * machinery dominates host time. The workload ignores the seed.
 */
class Roundtrip final : public Workload
{
  public:
    static constexpr std::uint64_t calls = 10000;

    Rep
    rep(Spans &spans, Calibrator &cal) override
    {
        Rep r;
        std::uint64_t rep_call = spans.newCall();
        Spans::Scope root(spans, "rep", rep_call);

        std::unique_ptr<FlickSystem> sys;
        Process *proc = nullptr;
        {
            CpuTimer t(r.setupS);
            {
                Spans::Scope s(spans, "setup.construct", rep_call);
                sys = std::make_unique<FlickSystem>(SystemConfig{});
            }
            {
                Spans::Scope s(spans, "setup.load", rep_call);
                Program prog;
                workloads::addMicrobench(prog);
                proc = &sys->load(prog);
            }
            // No data to upload: the set-up's last step is the warm-up
            // (first-call NxP stack, I-cache lines of the NxP loop).
            Spans::Scope s(spans, "setup.upload", rep_call);
            sys->submit(*proc, CallSpec("nxp_noop")).wait();
            sys->submit(*proc, CallSpec("nxp_calls_host").withArgs({1}))
                .wait();
            sys->submit(*proc, CallSpec("nxp_calls_host").withArgs({0}))
                .wait();
        }

        Counts before = snapshot(*sys);
        std::vector<std::uint64_t> values;
        values.reserve(calls + 2);
        Tick t0 = sys->now(), h2n = 0, loop = 0, outer = 0;
        {
            CpuTimer t(r.runS);
            for (std::uint64_t i = 0; i < calls; ++i) {
                if (i % 64 == 0)
                    cal.checkpoint();
                values.push_back(
                    call(spans, cal, *sys, *proc, CallSpec("nxp_noop")));
            }
            h2n = sys->now() - t0;
            Tick t1 = sys->now();
            values.push_back(call(spans, cal, *sys, *proc,
                                  CallSpec("nxp_calls_host")
                                      .withArgs({calls})));
            loop = sys->now() - t1;
            Tick t2 = sys->now();
            values.push_back(call(spans, cal, *sys, *proc,
                                  CallSpec("nxp_calls_host").withArgs({0})));
            outer = sys->now() - t2;
        }
        r.counts = minus(snapshot(*sys), before);

        {
            Spans::Scope s(spans, "run.verify", rep_call);
            // nxp_noop and nxp_calls_host both return 0.
            r.attempted = values.size();
            for (std::uint64_t v : values)
                r.failed += v != 0;
        }
        r.simResults["h2n_ticks"] = h2n;
        r.simResults["n2h_ticks"] = loop - outer;
        r.simResults["final_tick"] = sys->now();
        r.paperErrPct = {relErrPct(ticksToUs(h2n) / calls, 18.3),
                         relErrPct(ticksToUs(loop - outer) / calls, 16.9)};
        return r;
    }

    std::map<std::string, std::uint64_t>
    reference(std::uint64_t) const override
    {
        // 18.2 us and 17.0 us per round trip (Table III: 18.3 / 16.9).
        return {{"h2n_ticks", 182099520000},
                {"n2h_ticks", 170057860000},
                {"final_tick", 352285547546}};
    }

  private:
    /** submit() and wait() one call, each in its own span. */
    static std::uint64_t
    call(Spans &spans, Calibrator &cal, FlickSystem &sys, Process &proc,
         CallSpec spec)
    {
        std::uint64_t id = spans.newCall();
        CallFuture f;
        {
            Spans::Scope s(spans, "run.submit", id);
            f = sys.submit(proc, std::move(spec));
        }
        Spans::Scope w(spans, "run.wait", id);
        return awaitCall(sys, f, cal);
    }
};

/**
 * Table IV at scale 64: BFS over the three SNAP-shaped graphs, first as
 * the host-over-PCIe baseline, then with Flick (traversal on the NxP,
 * one host callback per discovered vertex). The seed drives the graph
 * generator; the default seed generates the graphs of Table IV.
 */
class Bfs final : public Workload
{
  public:
    static constexpr std::uint64_t scale = 64;

    explicit Bfs(std::uint64_t seed)
    {
        // Input generation is not set-up: it happens once, untimed.
        for (workloads::GraphSpec spec : workloads::snapDatasets(scale)) {
            spec.seed += 1000 * (seed - defaultSeed);
            _graphs.push_back(workloads::CsrGraph::generate(spec));
            _names.push_back(spec.name);
            _expect.push_back(_graphs.back().reachableFrom(0));
        }
    }

    Rep
    rep(Spans &spans, Calibrator &cal) override
    {
        // Paper speedups (baseline / Flick) of Table IV.
        const double paper[] = {1.8 / 2.4, 107.4 / 90.3, 240.5 / 220.9};
        Rep r;
        std::uint64_t rep_call = spans.newCall();
        Spans::Scope root(spans, "rep", rep_call);
        double err_sum = 0;
        for (std::size_t g = 0; g < _graphs.size(); ++g) {
            std::unique_ptr<FlickSystem> sys;
            Process *proc = nullptr;
            workloads::DeviceGraph dev;
            {
                CpuTimer t(r.setupS);
                {
                    Spans::Scope s(spans, "setup.construct", rep_call);
                    sys = std::make_unique<FlickSystem>(SystemConfig{});
                }
                {
                    Spans::Scope s(spans, "setup.load", rep_call);
                    Program prog;
                    workloads::addMicrobench(prog);
                    workloads::addBfsKernels(prog);
                    proc = &sys->load(prog);
                }
                Spans::Scope s(spans, "setup.upload", rep_call);
                dev = workloads::uploadGraph(*sys, *proc, _graphs[g]);
                sys->submit(*proc, CallSpec("nxp_noop")).wait();
            }
            VAddr dummy = proc->image.symbol("bfs_dummy");
            std::vector<std::uint64_t> args = {dev.rowOff, dev.col,
                                               dev.visited, dev.queue, 0,
                                               dummy};

            Counts before = snapshot(*sys);
            Tick t0 = sys->now();
            std::uint64_t got_host =
                bfs(spans, cal, r, *sys, *proc, "bfs_host", args);
            Tick host_ticks = sys->now() - t0;
            {
                // Clearing the visited array re-uploads input data.
                CpuTimer t(r.setupS);
                Spans::Scope s(spans, "setup.upload", rep_call);
                workloads::resetVisited(*sys, *proc, dev);
            }
            Tick t1 = sys->now();
            std::uint64_t got_nxp =
                bfs(spans, cal, r, *sys, *proc, "bfs_nxp", args);
            Tick nxp_ticks = sys->now() - t1;
            Counts delta = minus(snapshot(*sys), before);
            for (const auto &kv : delta)
                r.counts[kv.first] += kv.second;

            {
                Spans::Scope s(spans, "run.verify", rep_call);
                r.attempted += 2;
                r.failed += (got_host != _expect[g]) + (got_nxp != _expect[g]);
            }
            const std::string &n = _names[g];
            r.simResults[n + ".baseline_ticks"] = host_ticks;
            r.simResults[n + ".flick_ticks"] = nxp_ticks;
            r.simResults[n + ".final_tick"] = sys->now();
            double speedup = static_cast<double>(host_ticks) / nxp_ticks;
            err_sum += relErrPct(speedup, paper[g]);
        }
        r.paperErrPct = {err_sum / _graphs.size()};
        return r;
    }

    std::map<std::string, std::uint64_t>
    reference(std::uint64_t seed) const override
    {
        if (seed != defaultSeed)
            return {};
        // Table IV at scale 64: speedups 0.72x, 1.23x and 1.07x.
        return {{"Epinions1.baseline_ticks", 18931678120},
                {"Epinions1.flick_ticks", 26460829934},
                {"Epinions1.final_tick", 45419548006},
                {"Pokec.baseline_ticks", 915908536960},
                {"Pokec.flick_ticks", 744687079742},
                {"Pokec.final_tick", 1660622656654},
                {"LiveJournal1.baseline_ticks", 2152323215959},
                {"LiveJournal1.flick_ticks", 2014194668452},
                {"LiveJournal1.final_tick", 4166544924363}};
    }

  private:
    /** One traversal, measured; returns the vertex count it found. */
    static std::uint64_t
    bfs(Spans &spans, Calibrator &cal, Rep &r, FlickSystem &sys,
        Process &proc, const char *fn, const std::vector<std::uint64_t> &args)
    {
        CpuTimer t(r.runS);
        std::uint64_t id = spans.newCall();
        CallFuture f;
        {
            Spans::Scope s(spans, "run.submit", id);
            f = sys.submit(proc, CallSpec(fn).withArgs(args));
        }
        Spans::Scope w(spans, "run.wait", id);
        return awaitCall(sys, f, cal);
    }

    std::vector<workloads::CsrGraph> _graphs;
    std::vector<std::string> _names;
    std::vector<std::uint64_t> _expect;
};

/**
 * An 8-device fabric under open-loop overload: least-loaded placement,
 * descriptor batching, and QoS with two tenants weighted 3:1, every
 * call carrying the SLO as its deadline. Each tenant offers a seeded
 * Poisson stream of mix_hot calls; together they offer 1.5x the
 * fabric's capacity, so QoS sheds part of the traffic at the front
 * door. Shedding is a designed outcome; any other non-ok status fails.
 * No paper reference exists for this model: it is unvalidated.
 */
class Storm final : public Workload
{
  public:
    static constexpr unsigned devices = 8;
    static constexpr std::uint64_t rounds = 1200;
    static constexpr std::uint64_t arrivalsPerTenant = 6000;
    static constexpr double overload = 1.5;
    /** Calls take their argument seed from 1..seeds. */
    static constexpr std::uint64_t seeds = 1000;

    explicit Storm(std::uint64_t seed)
    {
        // Measuring the unloaded latency L0 and generating the schedule
        // are input generation: once per process, untimed.
        FlickSystem sys(config());
        Program prog;
        workloads::addPlacementMix(prog, devices);
        Process &proc = sys.load(prog);
        warmup(sys, proc);
        const unsigned n = 8;
        Tick t0 = sys.now();
        for (unsigned i = 0; i < n; ++i)
            sys.submit(proc, CallSpec("mix_hot").withArgs({i + 1, rounds}))
                .wait();
        Tick l0 = (sys.now() - t0) / n;
        _slo = 4 * l0;

        double capacity = devices / ticksToSec(l0);
        double per_tenant = overload * capacity / 2;
        for (unsigned tenant = 0; tenant < 2; ++tenant) {
            LoadGenConfig lg;
            lg.kind = ArrivalKind::poisson;
            lg.ratePerSec = per_tenant;
            lg.seed = seed * 2 + tenant;
            lg.horizon = static_cast<Tick>(
                arrivalsPerTenant / LoadGenerator::perTick(per_tenant));
            for (const Arrival &a : LoadGenerator(lg).generate())
                _arrivals.push_back({a.when, tenant, a.seq});
        }
        std::stable_sort(_arrivals.begin(), _arrivals.end(),
                         [](const Tagged &x, const Tagged &y) {
                             return x.when < y.when;
                         });
        for (std::uint64_t seed = 1; seed <= seeds; ++seed)
            _expect.push_back(workloads::mixHotRef(seed, rounds));
    }

    Rep
    rep(Spans &spans, Calibrator &cal) override
    {
        Rep r;
        std::uint64_t rep_call = spans.newCall();
        Spans::Scope root(spans, "rep", rep_call);

        std::unique_ptr<FlickSystem> sys;
        Process *procs[2] = {nullptr, nullptr};
        {
            CpuTimer t(r.setupS);
            {
                Spans::Scope s(spans, "setup.construct", rep_call);
                sys = std::make_unique<FlickSystem>(config());
            }
            {
                Spans::Scope s(spans, "setup.load", rep_call);
                Program prog;
                workloads::addPlacementMix(prog, devices);
                procs[0] = &sys->load(prog);
                procs[1] = &sys->load(prog);
            }
            Spans::Scope s(spans, "setup.upload", rep_call);
            for (Process *p : procs)
                warmup(*sys, *p);
        }

        Driver d(spans, cal, rep_call, *sys, procs, _expect, r, _slo);
        Counts before = snapshot(*sys);
        Tick t0 = sys->now();
        {
            CpuTimer t(r.runS);
            d.run(_arrivals);
        }
        r.counts = minus(snapshot(*sys), before);
        Tick makespan = sys->now() - t0;
        r.simResults["makespan_ticks"] = makespan;
        r.simResults["ok_calls"] = d.ok;
        r.simResults["shed_calls"] = d.shed;
        r.simResults["final_tick"] = sys->now();
        // Calls completed within their deadline per simulated second.
        r.simResults["goodput_per_s"] =
            static_cast<std::uint64_t>(d.ok / ticksToSec(makespan));
        return r;
    }

    std::map<std::string, std::uint64_t>
    reference(std::uint64_t seed) const override
    {
        if (seed != defaultSeed)
            return {};
        return {{"makespan_ticks", 87383364512},
                {"goodput_per_s", 93713},
                {"ok_calls", 8189},
                {"shed_calls", 3990},
                {"final_tick", 87642824320}};
    }

  private:
    struct Tagged
    {
        Tick when;
        unsigned tenant;
        std::uint64_t seq;
    };

    static SystemConfig
    config()
    {
        QosConfig q;
        q.tenantInFlight = devices;
        q.tenantQueueCap = 2 * devices;
        return SystemConfig{}
            .withDevices(devices)
            .withPlacement(PlacementKind::leastLoaded)
            .withBatching()
            .withQos(q)
            .withTenantWeight(0, 3)
            .withTenantWeight(1, 1);
    }

    static void
    warmup(FlickSystem &sys, Process &proc)
    {
        sys.submit(proc, CallSpec("mix_hot").withArgs({1, 10})).wait();
        sys.submit(proc, CallSpec("mix_hot").withArgs({1, rounds})).wait();
    }

    /** The open-loop client: submits on schedule, recycles threads. */
    struct Driver
    {
        Driver(Spans &spans_, Calibrator &cal_, std::uint64_t rep_call,
               FlickSystem &sys_, Process **procs_,
               const std::vector<std::uint64_t> &expect_, Rep &r_,
               Tick slo_)
            : spans(spans_), cal(cal_), repCall(rep_call), sys(sys_),
              procs(procs_), expect(expect_), r(r_), slo(slo_)
        {}

        struct InFlight
        {
            CallFuture fut;
            std::uint64_t expect;
            std::uint64_t callId;
            unsigned tenant;
            Task *task;
        };

        Spans &spans;
        Calibrator &cal;
        std::uint64_t repCall;
        FlickSystem &sys;
        Process **procs;
        const std::vector<std::uint64_t> &expect; //!< mix_hot by seed
        Rep &r;
        Tick slo;
        std::vector<InFlight> inflight;
        std::vector<Task *> freeTasks[2];
        std::uint64_t ok = 0;
        std::uint64_t shed = 0;

        void
        run(const std::vector<Tagged> &arrivals)
        {
            Tick t0 = sys.now();
            for (const Tagged &a : arrivals) {
                cal.checkpoint();
                if (t0 + a.when > sys.now()) {
                    Spans::Scope s(spans, "run.advance", repCall);
                    sys.advanceTime(t0 + a.when - sys.now());
                }
                poll();
                std::uint64_t seed = a.seq % seeds + 1;
                Task *task = acquire(a.tenant);
                std::uint64_t id = spans.newCall();
                InFlight f{{}, expect[seed - 1], id, a.tenant, task};
                {
                    Spans::Scope s(spans, "run.submit", id);
                    f.fut = sys.submit(*procs[a.tenant],
                                       CallSpec("mix_hot")
                                           .withArgs({seed, rounds})
                                           .onThread(*task)
                                           .withDeadline(slo));
                }
                inflight.push_back(std::move(f));
            }
            while (!inflight.empty()) {
                cal.checkpoint();
                {
                    Spans::Scope s(spans, "run.advance", repCall);
                    sys.advanceTime(us(10));
                }
                poll();
            }
        }

        Task *
        acquire(unsigned tenant)
        {
            std::vector<Task *> &pool = freeTasks[tenant];
            if (pool.empty())
                return &sys.spawnThread(*procs[tenant], 16 * 1024);
            Task *t = pool.back();
            pool.pop_back();
            return t;
        }

        /** Check and retire every finished call. */
        void
        poll()
        {
            for (std::size_t i = 0; i < inflight.size();) {
                InFlight &f = inflight[i];
                if (!f.fut.done()) {
                    ++i;
                    continue;
                }
                {
                    Spans::Scope s(spans, "run.verify", f.callId);
                    ++r.attempted;
                    if (f.fut.status() == CallStatus::shedLoad)
                        ++shed;
                    else if (f.fut.status() == CallStatus::ok &&
                             f.fut.value() == f.expect)
                        ++ok;
                    else
                        ++r.failed;
                }
                freeTasks[f.tenant].push_back(f.task);
                inflight[i] = std::move(inflight.back());
                inflight.pop_back();
            }
        }
    };

    Tick _slo = 0;
    std::vector<Tagged> _arrivals;
    std::vector<std::uint64_t> _expect;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "roundtrip")
        return std::make_unique<Roundtrip>();
    if (name == "bfs")
        return std::make_unique<Bfs>(seed);
    if (name == "storm")
        return std::make_unique<Storm>(seed);
    return nullptr;
}

} // namespace perfbench
