/**
 * @file
 * Overload-survival / SLO benchmark (DESIGN.md §14, EXPERIMENTS.md).
 *
 * Drives the platform with *open-loop* traffic (sim/load_gen.hh): call
 * arrivals happen at seeded Poisson/bursty times regardless of whether
 * the system kept up, which is the load shape under which a system
 * without admission control collapses — and which a closed-loop driver
 * (submit, wait, resubmit) can never produce.
 *
 * Phases, all over the placement-mix hot kernel on a 2-device fabric
 * with least-loaded placement:
 *
 *   1. Baseline: sequential calls measure the unloaded latency L0; the
 *      SLO for the whole run is fixed at 4 x L0.
 *   2. Capacity ramp: open-loop Poisson arrivals at increasing rates;
 *      the highest rate whose end-to-end p99 stays within the SLO is
 *      the fabric's sustainable capacity (the tracer's service-view
 *      p99 is reported alongside).
 *   3. Overload: the same arrival schedule at 2 x capacity, twice.
 *      QoS off is the seed system: the backlog grows without bound and
 *      goodput (calls completed within the SLO, per second) collapses.
 *      QoS on adds per-tenant budgets and deadline-aware admission
 *      (every call carries the SLO as its deadline): infeasible calls
 *      are shed at the front door before they occupy ring slots, and
 *      goodput must stay >= 90% of the measured capacity.
 *   4. Noisy neighbor: two tenants on one fabric, QoS on. Tenant A is
 *      well-behaved (Poisson at half capacity, SLO deadlines); tenant
 *      B is an open-loop burster (Markov-modulated at up to 4 x
 *      capacity, no deadlines). B's excess must be shed against B's
 *      own budget: the gate is that A's p99 stays within the SLO and
 *      A keeps at least 70% of its offered load served in-SLO.
 *
 * Flags: --rounds=N (hot-kernel rounds, default 1200), --calls=N
 * (arrivals per measured point, default 220), --devices=N (default 2),
 * --smoke (reduced sizes for CI), --json=FILE. Exits 1 if any gate
 * fails.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/load_gen.hh"
#include "workloads/placement_mix.hh"

using namespace flick;
using namespace flick::bench;

namespace
{

struct Params
{
    std::uint64_t rounds = 1200;
    std::uint64_t calls = 220;
    unsigned devices = 2;
    unsigned poolCap = 96;
};

/** One tenant's client population and per-run accounting. */
struct TenantCtx
{
    Process *proc = nullptr;
    Tick deadline = 0; //!< Per-call deadline (0 = none).
    std::vector<Task *> freeTasks;
    unsigned spawned = 0;

    std::uint64_t arrivals = 0;
    std::uint64_t clientDropped = 0; //!< Client population exhausted.
    std::uint64_t ok = 0;
    std::uint64_t okWithinSlo = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    std::vector<double> latUs; //!< End-to-end latency of ok calls.
};

struct InFlight
{
    Tick submitted = 0;
    CallFuture fut;
    TenantCtx *tenant = nullptr;
    std::uint64_t expect = 0;
    Task *task = nullptr;
};

struct TaggedArrival
{
    Tick when = 0;
    unsigned tenant = 0;
    std::uint64_t seq = 0;
};

/** Service-view p99 (callEntry -> completion) from the tracer. */
double
tracerP99(FlickSystem &sys)
{
    std::vector<double> lat;
    for (const auto &kv : sys.debug().trace().calls()) {
        const TraceCallSummary &c = kv.second;
        if (c.end && !c.failed)
            lat.push_back(ticksToUs(c.end - c.start));
    }
    return p99(std::move(lat));
}

class OpenLoopDriver
{
  public:
    OpenLoopDriver(FlickSystem &sys, const Params &p, Tick slo)
        : _sys(sys), _p(p), _slo(slo)
    {}

    void
    run(std::vector<TenantCtx *> tenants,
        const std::vector<TaggedArrival> &arrivals)
    {
        Tick t0 = _sys.now();
        for (const TaggedArrival &a : arrivals) {
            advanceTo(t0 + a.when);
            TenantCtx &tc = *tenants[a.tenant];
            ++tc.arrivals;
            Task *task = acquire(tc);
            if (!task) {
                ++tc.clientDropped;
                continue;
            }
            std::uint64_t seed = a.seq % 1000 + 1;
            CallSpec spec = CallSpec("mix_hot")
                                .withArgs({seed, _p.rounds})
                                .onThread(*task);
            if (tc.deadline)
                spec.withDeadline(tc.deadline);
            InFlight f;
            f.submitted = _sys.now();
            f.fut = _sys.submit(*tc.proc, spec);
            f.tenant = &tc;
            f.expect = workloads::mixHotRef(seed, _p.rounds);
            f.task = task;
            _inflight.push_back(std::move(f));
            poll(); // a shed future is done already: recycle its task
        }
        while (!_inflight.empty()) {
            _sys.advanceTime(us(2));
            poll();
        }
    }

  private:
    void
    advanceTo(Tick target)
    {
        while (_sys.now() < target) {
            Tick step = target - _sys.now();
            if (step > us(2))
                step = us(2);
            _sys.advanceTime(step);
            poll();
        }
    }

    Task *
    acquire(TenantCtx &tc)
    {
        if (!tc.freeTasks.empty()) {
            Task *t = tc.freeTasks.back();
            tc.freeTasks.pop_back();
            return t;
        }
        if (tc.spawned >= _p.poolCap)
            return nullptr;
        ++tc.spawned;
        return &_sys.spawnThread(*tc.proc, 16 * 1024);
    }

    void
    poll()
    {
        for (std::size_t i = 0; i < _inflight.size();) {
            InFlight &f = _inflight[i];
            if (!f.fut.done()) {
                ++i;
                continue;
            }
            TenantCtx &tc = *f.tenant;
            switch (f.fut.status()) {
              case CallStatus::ok: {
                if (f.fut.value() != f.expect) {
                    std::fprintf(stderr,
                                 "FAIL: bad value %llu (want %llu)\n",
                                 (unsigned long long)f.fut.value(),
                                 (unsigned long long)f.expect);
                    std::exit(1);
                }
                ++tc.ok;
                Tick lat = _sys.now() - f.submitted;
                if (lat <= _slo)
                    ++tc.okWithinSlo;
                tc.latUs.push_back(ticksToUs(lat));
                break;
              }
              case CallStatus::shedLoad:
                ++tc.shed;
                break;
              default:
                ++tc.failed;
                break;
            }
            tc.freeTasks.push_back(f.task);
            _inflight[i] = std::move(_inflight.back());
            _inflight.pop_back();
        }
    }

    FlickSystem &_sys;
    const Params &_p;
    Tick _slo;
    std::vector<InFlight> _inflight;
};

struct PointResult
{
    double offeredPerSec = 0;
    double goodputPerSec = 0;
    double p99Us = 0;       //!< End-to-end, ok calls.
    double tracerP99Us = 0; //!< Service view (callEntry -> done).
    TenantCtx tenant;       //!< Counters (single-tenant runs).
    std::uint64_t shedQueueFull = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t shedOverBudget = 0;
};

SystemConfig
baseConfig(const Params &p)
{
    return SystemConfig{}
        .withDevices(p.devices)
        .withPlacement(PlacementKind::leastLoaded);
}

void
warmup(FlickSystem &sys, Process &proc, const Params &p)
{
    sys.submit(proc, CallSpec("mix_hot").withArgs({1, 10})).wait();
    sys.submit(proc, CallSpec("mix_hot").withArgs({1, p.rounds})).wait();
}

/** Unloaded sequential call latency (ticks). */
Tick
measureBase(const Params &p)
{
    FlickSystem sys(baseConfig(p));
    Program prog;
    workloads::addPlacementMix(prog, p.devices);
    Process &proc = sys.load(prog);
    warmup(sys, proc, p);
    const unsigned n = 8;
    Tick t0 = sys.now();
    for (unsigned i = 0; i < n; ++i) {
        auto f = sys.submit(proc, CallSpec("mix_hot")
                                      .withArgs({i + 1, p.rounds}));
        if (f.wait() != workloads::mixHotRef(i + 1, p.rounds)) {
            std::fprintf(stderr, "FAIL: baseline call bad value\n");
            std::exit(1);
        }
    }
    return (sys.now() - t0) / n;
}

/** One single-tenant open-loop point at @p rate_per_sec. */
PointResult
runPoint(const Params &p, double rate_per_sec, Tick slo, bool qos_on,
         std::uint64_t seed)
{
    SystemConfig cfg = baseConfig(p).withTrace();
    if (qos_on) {
        QosConfig q;
        q.tenantInFlight = 2 * p.devices;
        q.tenantQueueCap = 2 * p.devices;
        cfg.withQos(q);
    }
    FlickSystem sys(cfg);
    Program prog;
    workloads::addPlacementMix(prog, p.devices);
    Process &proc = sys.load(prog);
    warmup(sys, proc, p);

    LoadGenConfig lg;
    lg.kind = ArrivalKind::poisson;
    lg.ratePerSec = rate_per_sec;
    lg.seed = seed;
    lg.horizon = static_cast<Tick>(
        (double)p.calls / LoadGenerator::perTick(rate_per_sec));
    std::vector<TaggedArrival> arrivals;
    for (const Arrival &a : LoadGenerator(lg).generate())
        arrivals.push_back({a.when, 0, a.seq});

    PointResult r;
    r.offeredPerSec = rate_per_sec;
    r.tenant.proc = &proc;
    // The SLO doubles as the per-call deadline when QoS is on; the
    // seed system has no deadline machinery engaged.
    r.tenant.deadline = qos_on ? slo : 0;
    OpenLoopDriver driver(sys, p, slo);
    driver.run({&r.tenant}, arrivals);

    double secs = ticksToUs(lg.horizon) * 1e-6;
    r.goodputPerSec = (double)r.tenant.okWithinSlo / secs;
    r.p99Us = p99(r.tenant.latUs);
    r.tracerP99Us = tracerP99(sys);
    const StatGroup &st = sys.debug().engine().stats();
    r.shedQueueFull = st.get("qos.shed.queue_full");
    r.shedDeadline = st.get("qos.shed.deadline_infeasible");
    r.shedOverBudget = st.get("qos.shed.tenant_over_budget");
    return r;
}

struct NeighborResult
{
    TenantCtx a; //!< Well-behaved tenant.
    TenantCtx b; //!< Bursty tenant.
    double aP99Us = 0;
    double bP99Us = 0;
    std::uint64_t aShedStat = 0;
    std::uint64_t bShedStat = 0;
};

/** Two tenants, one fabric: Poisson vs Markov-modulated burster. */
NeighborResult
runNeighbor(const Params &p, double capacity, Tick slo, bool qos_on,
            std::uint64_t seed)
{
    SystemConfig cfg = baseConfig(p);
    if (qos_on) {
        QosConfig q;
        q.tenantInFlight = p.devices;
        q.tenantQueueCap = 4 * p.devices;
        cfg.withQos(q);
        // The well-behaved tenant (loaded first, tenant 0) gets 3x the
        // burster's share of freed capacity.
        cfg.withTenantWeight(0, 3).withTenantWeight(1, 1);
    }
    FlickSystem sys(cfg);
    Program prog;
    workloads::addPlacementMix(prog, p.devices);
    Process &procA = sys.load(prog);
    Process &procB = sys.load(prog);
    warmup(sys, procA, p);
    warmup(sys, procB, p);

    LoadGenConfig la;
    la.kind = ArrivalKind::poisson;
    la.ratePerSec = capacity * 0.5;
    la.seed = seed;
    la.horizon = static_cast<Tick>(
        (double)p.calls / LoadGenerator::perTick(la.ratePerSec));
    LoadGenConfig lb;
    lb.kind = ArrivalKind::bursty;
    lb.ratePerSec = capacity;
    lb.burstFactor = 4.0;
    lb.seed = seed + 17;
    lb.horizon = la.horizon;

    std::vector<TaggedArrival> arrivals;
    for (const Arrival &a : LoadGenerator(la).generate())
        arrivals.push_back({a.when, 0, a.seq});
    for (const Arrival &a : LoadGenerator(lb).generate())
        arrivals.push_back({a.when, 1, a.seq});
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const TaggedArrival &x, const TaggedArrival &y) {
                         return x.when < y.when;
                     });

    NeighborResult r;
    r.a.proc = &procA;
    r.a.deadline = qos_on ? slo : 0;
    r.b.proc = &procB;
    OpenLoopDriver driver(sys, p, slo);
    driver.run({&r.a, &r.b}, arrivals);
    r.aP99Us = p99(r.a.latUs);
    r.bP99Us = p99(r.b.latUs);
    const StatGroup &st = sys.debug().engine().stats();
    r.aShedStat = st.get("qos.shed_cr3#0");
    r.bShedStat = st.get("qos.shed_cr3#1");
    return r;
}

std::string
fmtCount(std::uint64_t v)
{
    return strfmt("%llu", (unsigned long long)v);
}

} // namespace

int
main(int argc, char **argv)
{
    Params p;
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke")
            smoke = true;
    if (smoke) {
        p.rounds = 400;
        p.calls = 70;
    }
    p.rounds = flagValue(argc, argv, "rounds", p.rounds);
    p.calls = flagValue(argc, argv, "calls", p.calls);
    p.devices = (unsigned)flagValue(argc, argv, "devices", p.devices);
    if (p.devices == 0) {
        std::fprintf(stderr, "FAIL: --devices must be >= 1\n");
        return 1;
    }
    std::string json = flagString(argc, argv, "json", "");

    // Phase 1: unloaded latency and the derived SLO.
    Tick l0 = measureBase(p);
    Tick slo = 4 * l0;
    std::printf("Unloaded call latency L0 = %s; SLO fixed at 4 x L0 = "
                "%s\n\n",
                fmtUs(ticksToUs(l0)).c_str(),
                fmtUs(ticksToUs(slo)).c_str());

    // Phase 2: capacity ramp (QoS off — this is the seed system's
    // sustainable envelope, which QoS must preserve and overload must
    // be measured against).
    double service_secs = ticksToUs(l0) * 1e-6;
    double cap_guess = (double)p.devices / service_secs;
    const double factors[] = {0.4, 0.55, 0.7, 0.85, 1.0};
    std::vector<std::vector<std::string>> ramp_rows;
    std::vector<PointResult> ramp;
    double capacity = 0;
    for (double f : factors) {
        double rate = f * cap_guess;
        PointResult r = runPoint(p, rate, slo, false, 42);
        ramp.push_back(r);
        bool sustainable = r.p99Us <= ticksToUs(slo) &&
                           r.tenant.clientDropped == 0;
        if (sustainable)
            capacity = rate;
        ramp_rows.push_back({strfmt("%.2f", f), strfmt("%.0f", rate),
                             fmtUs(r.p99Us), fmtUs(r.tracerP99Us),
                             strfmt("%.0f", r.goodputPerSec),
                             sustainable ? "yes" : "no"});
        if (!sustainable)
            break;
    }
    printTable(
        strfmt("Capacity ramp: open-loop Poisson, %llu calls/point, "
               "%u device(s)",
               (unsigned long long)p.calls, p.devices),
        {"x est.", "offered/s", "p99", "svc p99", "goodput/s", "in SLO"},
        ramp_rows);

    bool ok = true;
    if (capacity <= 0) {
        std::fprintf(stderr,
                     "FAIL: no offered rate sustained the SLO\n");
        return 1;
    }

    // Phase 3: 2x overload, seed system vs QoS.
    double overload = 2 * capacity;
    PointResult off = runPoint(p, overload, slo, false, 1234);
    PointResult on = runPoint(p, overload, slo, true, 1234);
    printTable(
        strfmt("Overload at 2 x capacity (%.0f calls/s offered)",
               overload),
        {"Mode", "goodput/s", "p99", "ok", "in-SLO", "shed", "dropped"},
        {{"QoS off (seed)", strfmt("%.0f", off.goodputPerSec),
          fmtUs(off.p99Us), fmtCount(off.tenant.ok),
          fmtCount(off.tenant.okWithinSlo), fmtCount(off.tenant.shed),
          fmtCount(off.tenant.clientDropped)},
         {"QoS on", strfmt("%.0f", on.goodputPerSec), fmtUs(on.p99Us),
          fmtCount(on.tenant.ok), fmtCount(on.tenant.okWithinSlo),
          fmtCount(on.tenant.shed), fmtCount(on.tenant.clientDropped)}});
    std::printf("QoS shed breakdown: queue_full %llu, "
                "deadline_infeasible %llu, tenant_over_budget %llu\n\n",
                (unsigned long long)on.shedQueueFull,
                (unsigned long long)on.shedDeadline,
                (unsigned long long)on.shedOverBudget);

    if (on.goodputPerSec < 0.9 * capacity) {
        std::fprintf(stderr,
                     "FAIL: QoS-on goodput %.0f/s under 90%% of "
                     "capacity %.0f/s at 2x overload\n",
                     on.goodputPerSec, capacity);
        ok = false;
    }
    if (off.goodputPerSec > 0.5 * on.goodputPerSec) {
        std::fprintf(stderr,
                     "FAIL: seed system did not collapse at 2x "
                     "overload (%.0f/s vs QoS %.0f/s)\n",
                     off.goodputPerSec, on.goodputPerSec);
        ok = false;
    }
    if (on.tenant.shed == 0) {
        std::fprintf(stderr,
                     "FAIL: QoS never shed a call at 2x overload\n");
        ok = false;
    }

    // Phase 4: noisy neighbor.
    NeighborResult nb = runNeighbor(p, capacity, slo, true, 7);
    NeighborResult nboff = runNeighbor(p, capacity, slo, false, 7);
    printTable(
        "Noisy neighbor: tenant A Poisson at 0.5 x capacity, tenant B "
        "bursting to 4 x capacity",
        {"Mode", "A p99", "A in-SLO/offered", "A shed", "B p99",
         "B ok", "B shed"},
        {{"QoS on (weights 3:1)", fmtUs(nb.aP99Us),
          strfmt("%llu/%llu", (unsigned long long)nb.a.okWithinSlo,
                 (unsigned long long)nb.a.arrivals),
          fmtCount(nb.aShedStat), fmtUs(nb.bP99Us), fmtCount(nb.b.ok),
          fmtCount(nb.bShedStat)},
         {"QoS off (seed)", fmtUs(nboff.aP99Us),
          strfmt("%llu/%llu", (unsigned long long)nboff.a.okWithinSlo,
                 (unsigned long long)nboff.a.arrivals),
          "-", fmtUs(nboff.bP99Us), fmtCount(nboff.b.ok), "-"}});

    if (nb.aP99Us > ticksToUs(slo)) {
        std::fprintf(stderr,
                     "FAIL: burster pushed tenant A's p99 to %s past "
                     "the SLO %s\n",
                     fmtUs(nb.aP99Us).c_str(),
                     fmtUs(ticksToUs(slo)).c_str());
        ok = false;
    }
    if (nb.a.okWithinSlo * 10 < nb.a.arrivals * 7) {
        std::fprintf(stderr,
                     "FAIL: tenant A served only %llu of %llu offered "
                     "calls in-SLO under the burster\n",
                     (unsigned long long)nb.a.okWithinSlo,
                     (unsigned long long)nb.a.arrivals);
        ok = false;
    }

    if (!json.empty()) {
        std::ofstream os(json);
        if (!os) {
            std::fprintf(stderr, "FAIL: cannot write %s\n", json.c_str());
            return 1;
        }
        os << "{\n  \"rounds\": " << p.rounds
           << ", \"calls\": " << p.calls
           << ", \"devices\": " << p.devices
           << ",\n  \"l0_us\": " << ticksToUs(l0)
           << ", \"slo_us\": " << ticksToUs(slo)
           << ", \"capacity_per_sec\": " << capacity << ",\n  \"ramp\": [";
        for (std::size_t i = 0; i < ramp.size(); ++i)
            os << (i ? "," : "") << "\n    {\"offered\": "
               << ramp[i].offeredPerSec
               << ", \"p99_us\": " << ramp[i].p99Us
               << ", \"goodput\": " << ramp[i].goodputPerSec << "}";
        os << "\n  ],\n  \"overload\": {\"offered\": " << overload
           << ", \"goodput_off\": " << off.goodputPerSec
           << ", \"goodput_on\": " << on.goodputPerSec
           << ", \"shed_on\": " << on.tenant.shed
           << "},\n  \"neighbor\": {\"a_p99_us\": " << nb.aP99Us
           << ", \"a_in_slo\": " << nb.a.okWithinSlo
           << ", \"a_offered\": " << nb.a.arrivals
           << ", \"b_shed\": " << nb.bShedStat << "}\n}\n";
        std::printf("wrote %s\n", json.c_str());
    }

    return ok ? 0 : 1;
}
