/**
 * @file
 * Interpreter fast-path benchmark (DESIGN.md §13).
 *
 * Unlike the other benches, this one measures *simulator* speed, not
 * simulated time: the decoded-instruction cache and page-local dispatch
 * exist so long-running workloads (BFS, kvstore, the fabric sweeps)
 * finish in reasonable host time. Two legs:
 *
 *   1. Bare-core execute loops. Each interpreter spins a tight ALU
 *      loop and reports simulated MIPS (simulated instructions per
 *      process-CPU second) with the decode cache on vs off. Reference
 *      and cached runs alternate (the order flips every pair) so drift
 *      in host speed hits both alike; the gated speedup is the median
 *      of the per-pair ratios, printed with its quartiles and n. It
 *      must be >= 5x on both ISAs, and both runs must retire the same
 *      instruction count, tick count, and final register file — the
 *      cache is a pure speed optimization.
 *
 *   2. An 8-device fabric storm (the bench_placement scaling
 *      workload) run end to end with the cache on vs off. Simulated
 *      time and every call result must match exactly; CPU time is
 *      reported as the before/after row for EXPERIMENTS.md.
 *
 * Flags: --iters=N (loop iterations, default 2000000), --reps=N
 * (interleaved reference/cached pairs, default 9, at least 7 outside
 * smoke mode), --devices=N (default 8), --threads=N (default 16),
 * --batches=N (default 2), --rounds=N (default 2000), --smoke (tiny
 * sizes, one pair, identity checks only — the 5x gate needs full-size
 * runs to time stably).
 * Exits 1 if any identity or speedup gate fails.
 */

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "isa/hx64/core.hh"
#include "isa/hx64/insn.hh"
#include "isa/rv64/core.hh"
#include "isa/rv64/encoding.hh"
#include "vm/page_table.hh"
#include "workloads/placement_mix.hh"

using namespace flick;
using namespace flick::bench;

namespace
{

/** Process CPU seconds: host time other processes get is not counted. */
double
cpuSeconds()
{
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/** A bare core's world: one executable page, nothing else. */
struct LoopEnv
{
    LoopEnv() : mem(timing, platform), alloc("bench", 0x100000, 16 << 20, 4096),
                ptm(mem, alloc)
    {
        cr3 = ptm.createRoot();
        text_pa = alloc.allocate(4096);
        ptm.map(cr3, codeVa, text_pa, 4096, PageSize::size4K, pte::user);
    }

    static constexpr VAddr codeVa = 0x400000;

    void
    setCode(const void *bytes, std::size_t len)
    {
        mem.hostDram().write(text_pa, bytes, len);
    }

    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem;
    RangeAllocator alloc;
    PageTableManager ptm;
    Addr cr3 = 0;
    Addr text_pa = 0;
};

CoreParams
coreParams(const char *name, Requester req, std::uint64_t freq,
           bool decode_cache)
{
    CoreParams p;
    p.name = name;
    p.requester = req;
    p.freqHz = freq;
    p.decodeCache = decode_cache;
    return p;
}

/**
 * A bare core spinning one loop, warmed up, with the state a run from
 * @p reset must end in. The first (untimed) run warms the decode
 * cache, TLBs, and sparse memory so every timed run sees steady state.
 */
template <typename CoreT>
struct LoopBench
{
    LoopBench(const CoreParams &params, const void *code, std::size_t len,
              std::function<void(CoreT &)> reset_fn, std::uint64_t limit_)
        : core(params, env.mem), reset(std::move(reset_fn)), limit(limit_)
    {
        env.setCode(code, len);
        core.mmu().setCr3(env.cr3);
        reset(core);
        core.run(limit); // warm-up: pays the cold TLB walks once
        reset(core);
        RunResult steady = core.run(limit);
        stop = steady.stop;
        elapsed = steady.elapsed;
        instructions = steady.instructions;
        context = core.saveContext();
    }

    /**
     * Simulated MIPS of one run from the reset state; exits if the run
     * does not reproduce the steady one.
     */
    double
    timedMips()
    {
        reset(core);
        double t0 = cpuSeconds();
        RunResult run = core.run(limit);
        double secs = cpuSeconds() - t0;
        if (run.stop != stop || run.elapsed != elapsed ||
            run.instructions != instructions) {
            std::fprintf(stderr,
                         "FAIL: %s run not reproducible "
                         "(instructions %llu vs %llu)\n",
                         core.stats().name().c_str(),
                         (unsigned long long)run.instructions,
                         (unsigned long long)instructions);
            std::exit(1);
        }
        return (double)instructions / std::max(secs, 1e-9) / 1e6;
    }

    bool
    sameArchState(const LoopBench &o) const
    {
        return stop == o.stop && elapsed == o.elapsed &&
               instructions == o.instructions && context == o.context;
    }

    LoopEnv env;
    CoreT core;
    std::function<void(CoreT &)> reset;
    std::uint64_t limit;
    Fault stop = Fault::none;
    Tick elapsed = 0;
    std::uint64_t instructions = 0;
    CoreContext context;
};

/** Median and quartiles (linear interpolation) of a sample. */
struct Spread
{
    double median = 0;
    double q1 = 0;
    double q3 = 0;
};

Spread
spreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    auto at = [&](double q) {
        double pos = q * (v.size() - 1);
        std::size_t lo = static_cast<std::size_t>(pos);
        std::size_t hi = std::min(lo + 1, v.size() - 1);
        return v[lo] + (pos - lo) * (v[hi] - v[lo]);
    };
    return {at(0.5), at(0.25), at(0.75)};
}

/** One ISA's interleaved measurement. */
struct Speedup
{
    Spread reference; //!< MIPS.
    Spread cached;    //!< MIPS.
    Spread ratio;     //!< Per-pair cached/reference.
    int n = 0;        //!< Pairs.
};

/**
 * Time @p reps reference/cached pairs back to back, flipping the order
 * every pair, and summarise each side and the per-pair ratio.
 */
template <typename CoreT>
Speedup
timeInterleaved(LoopBench<CoreT> &ref, LoopBench<CoreT> &cached, int reps)
{
    std::vector<double> ref_mips, cached_mips, ratio;
    for (int i = 0; i < reps; ++i) {
        double r, c;
        if (i % 2 == 0) {
            r = ref.timedMips();
            c = cached.timedMips();
        } else {
            c = cached.timedMips();
            r = ref.timedMips();
        }
        ref_mips.push_back(r);
        cached_mips.push_back(c);
        ratio.push_back(c / r);
    }
    return {spreadOf(ref_mips), spreadOf(cached_mips), spreadOf(ratio),
            reps};
}

/** addi t0, t0, 1; bne t0, t1, loop; ebreak. */
LoopBench<Rv64Core>
rv64Loop(bool cached, std::uint64_t iters)
{
    using namespace rv64;
    static const std::uint32_t code[3] = {
        encI(opImm, 5, 0, 5, 1),
        encB(opBranch, 1, 5, 6, -4),
        0x00100073, // ebreak
    };
    return LoopBench<Rv64Core>(
        coreParams("nxp", Requester::nxpCore, 200'000'000, cached), code,
        sizeof code,
        [iters](Rv64Core &c) {
            c.setReg(5, 0);
            c.setReg(6, iters);
            c.setPc(LoopEnv::codeVa);
        },
        2 * iters + 16);
}

/** add rax, 1; cmp rax, rcx; jne loop; halt. */
LoopBench<Hx64Core>
hx64Loop(bool cached, std::uint64_t iters)
{
    using namespace hx64;
    static const std::uint8_t code[] = {
        opAddI, 0x00, 0x01, 0x00, 0x00, 0x00, // add rax, 1
        opCmpRR, 0x01,                        // cmp rax, rcx
        opJcc, ccNe, 0xf2, 0xff, 0xff, 0xff,  // jne -14 -> loop
        opHalt,
    };
    return LoopBench<Hx64Core>(
        coreParams("host", Requester::hostCore, 2'400'000'000ull, cached),
        code, sizeof code,
        [iters](Hx64Core &c) {
            c.setReg(rax, 0);
            c.setReg(rcx, iters);
            c.setPc(LoopEnv::codeVa);
        },
        3 * iters + 16);
}

/** End-to-end fabric storm: CPU time plus the simulated makespan. */
struct FabricResult
{
    double cpuSecs = 0;
    Tick makespan = 0;
    std::vector<std::uint64_t> values;
};

FabricResult
runFabric(bool cached, unsigned devices, unsigned threads,
          unsigned batches, std::uint64_t rounds)
{
    SystemConfig config = SystemConfig{}
                              .withDevices(devices)
                              .withPlacement(PlacementKind::leastLoaded);
    if (!cached)
        config.withDecodeCache(false);
    FlickSystem sys(config);
    Program prog;
    workloads::addPlacementMix(prog, devices);
    Process &proc = sys.load(prog);

    std::vector<Task *> tasks;
    for (unsigned i = 0; i < threads; ++i)
        tasks.push_back(&sys.spawnThread(proc));
    sys.submit(proc, CallSpec("mix_hot").withArgs({1, 10})
                         .onThread(*tasks[0]))
        .wait();

    FabricResult r;
    Tick start = sys.now();
    double t0 = cpuSeconds();
    for (unsigned b = 0; b < batches; ++b) {
        std::vector<CallFuture> futs;
        for (unsigned i = 0; i < threads; ++i) {
            std::uint64_t slot = b * threads + i + 1;
            futs.push_back(sys.submit(
                proc, CallSpec("mix_hot").withArgs({slot, rounds})
                          .onThread(*tasks[i])));
        }
        for (auto &f : futs)
            f.wait();
        for (auto &f : futs)
            r.values.push_back(f.value());
    }
    r.cpuSecs = cpuSeconds() - t0;
    r.makespan = sys.now() - start;

    for (unsigned b = 0; b < batches; ++b) {
        for (unsigned i = 0; i < threads; ++i) {
            std::uint64_t slot = b * threads + i + 1;
            if (r.values[b * threads + i] !=
                workloads::mixHotRef(slot, rounds)) {
                std::fprintf(stderr,
                             "FAIL: fabric storm bad value at slot "
                             "%llu (%s)\n",
                             (unsigned long long)slot,
                             cached ? "cached" : "reference");
                std::exit(1);
            }
        }
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke")
            smoke = true;

    std::uint64_t iters = smoke ? 20'000 : 2'000'000;
    int reps = smoke ? 1 : 9;
    unsigned devices = smoke ? 4 : 8;
    unsigned threads = smoke ? 8 : 16;
    unsigned batches = 2;
    std::uint64_t rounds = smoke ? 300 : 2000;
    iters = flagValue(argc, argv, "iters", iters);
    reps = (int)flagValue(argc, argv, "reps", reps);
    devices = (unsigned)flagValue(argc, argv, "devices", devices);
    threads = (unsigned)flagValue(argc, argv, "threads", threads);
    batches = (unsigned)flagValue(argc, argv, "batches", batches);
    rounds = flagValue(argc, argv, "rounds", rounds);

    if (!smoke)
        reps = std::max(reps, 7); // a median needs a sample to stand on

    LoopBench<Rv64Core> rvRef = rv64Loop(false, iters);
    LoopBench<Rv64Core> rvCached = rv64Loop(true, iters);
    LoopBench<Hx64Core> hxRef = hx64Loop(false, iters);
    LoopBench<Hx64Core> hxCached = hx64Loop(true, iters);
    Speedup rv = timeInterleaved(rvRef, rvCached, reps);
    Speedup hx = timeInterleaved(hxRef, hxCached, reps);

    auto row = [](const char *isa, const Speedup &x, std::uint64_t insns) {
        return std::vector<std::string>{
            isa, strfmt("%.1f", x.reference.median),
            strfmt("%.1f", x.cached.median), fmtX(x.ratio.median),
            strfmt("[%.2f, %.2f]", x.ratio.q1, x.ratio.q3),
            strfmt("%d", x.n), strfmt("%llu", (unsigned long long)insns)};
    };
    printTable(
        strfmt("Interpreter execute loop: simulated MIPS per CPU second, "
               "%llu iterations (medians of %d interleaved pairs)",
               (unsigned long long)iters, reps),
        {"ISA", "Reference", "Cached", "Speedup", "Speedup IQR", "n",
         "Insns"},
        {row("rv64", rv, rvCached.instructions),
         row("hx64", hx, hxCached.instructions)});

    bool ok = true;
    if (!rvCached.sameArchState(rvRef)) {
        std::fprintf(stderr, "FAIL: rv64 cached run diverged from "
                             "reference\n");
        ok = false;
    }
    if (!hxCached.sameArchState(hxRef)) {
        std::fprintf(stderr, "FAIL: hx64 cached run diverged from "
                             "reference\n");
        ok = false;
    }
    // The halting instruction (ebreak/halt) executes but does not
    // retire, so the loop body alone is the retired count.
    if (rvCached.instructions != 2 * iters) {
        std::fprintf(stderr, "FAIL: rv64 loop retired %llu insns, "
                             "want %llu\n",
                     (unsigned long long)rvCached.instructions,
                     (unsigned long long)(2 * iters));
        ok = false;
    }
    if (hxCached.instructions != 3 * iters) {
        std::fprintf(stderr, "FAIL: hx64 loop retired %llu insns, "
                             "want %llu\n",
                     (unsigned long long)hxCached.instructions,
                     (unsigned long long)(3 * iters));
        ok = false;
    }

    FabricResult fabRef = runFabric(false, devices, threads, batches,
                                    rounds);
    FabricResult fabCached = runFabric(true, devices, threads, batches,
                                       rounds);
    printTable(
        strfmt("%u-device fabric storm: %u threads x %u batches of "
               "mix_hot(%llu)",
               devices, threads, batches, (unsigned long long)rounds),
        {"Mode", "CPU", "Sim ticks"},
        {{"reference", fmtMs(fabRef.cpuSecs),
          strfmt("%llu", (unsigned long long)fabRef.makespan)},
         {"cached", fmtMs(fabCached.cpuSecs),
          strfmt("%llu", (unsigned long long)fabCached.makespan)},
         {"speedup", fmtX(fabRef.cpuSecs / fabCached.cpuSecs), "-"}});

    if (fabCached.makespan != fabRef.makespan) {
        std::fprintf(stderr,
                     "FAIL: fabric storm simulated time diverged "
                     "(%llu vs %llu ticks)\n",
                     (unsigned long long)fabCached.makespan,
                     (unsigned long long)fabRef.makespan);
        ok = false;
    }
    if (fabCached.values != fabRef.values) {
        std::fprintf(stderr, "FAIL: fabric storm call results "
                             "diverged\n");
        ok = false;
    }

    // Speed gates only run at full size; smoke runs are too short to
    // time stably but still prove tick identity end to end.
    auto gate = [&ok](const char *isa, const Speedup &x) {
        if (x.ratio.median >= 5.0)
            return;
        std::fprintf(stderr,
                     "FAIL: %s decode cache speedup %.2fx < 5x (median of "
                     "%d pairs, IQR [%.2f, %.2f])\n",
                     isa, x.ratio.median, x.n, x.ratio.q1, x.ratio.q3);
        ok = false;
    };
    if (!smoke) {
        gate("rv64", rv);
        gate("hx64", hx);
    }
    return ok ? 0 : 1;
}
