#include "layers.hh"

#include <functional>

#include "flick/descriptor.hh"
#include "flick/system.hh"
#include "mem/dma.hh"
#include "mem/mem_system.hh"
#include "policy/policy.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "workloads/microbench.hh"
#include "workloads/placement_mix.hh"

namespace perfbench
{

using namespace flick;

namespace
{

/** Defeats dead-code elimination of the timed operations. */
volatile std::uint64_t sink = 0;

/**
 * Time @p op (which performs `n` operations per call) in batches of at
 * least 2 ms, until @p budget CPU seconds are spent; one sample (ns per
 * operation) per batch, at least five samples.
 */
std::vector<double>
timeOps(const std::function<void(std::uint64_t n)> &op, double budget)
{
    std::uint64_t n = 64;
    for (;;) {
        double t0 = cpuSeconds();
        op(n);
        if (cpuSeconds() - t0 >= 2e-3 || n >= (1ull << 30))
            break;
        n *= 2;
    }
    std::vector<double> samples;
    double start = cpuSeconds();
    while (samples.size() < 5 || cpuSeconds() - start < budget) {
        double t0 = cpuSeconds();
        op(n);
        samples.push_back((cpuSeconds() - t0) * 1e9 / n);
    }
    return samples;
}

MigrationDescriptor
callDescriptor(std::uint64_t seq)
{
    MigrationDescriptor d;
    d.kind = DescriptorKind::hostToNxpCall;
    d.pid = 1;
    d.target = 0x7f0000001000ull;
    d.cr3 = 0x1000;
    d.nxpSp = 0x7e00000ff000ull;
    d.nargs = 6;
    for (unsigned i = 0; i < d.nargs; ++i)
        d.args[i] = seq * 7 + i;
    d.seq = seq;
    d.callId = seq;
    return d;
}

/** schedule() + runUntil() of one event with @p depth others pending. */
std::vector<double>
eventDispatch(unsigned depth, double budget)
{
    EventQueue q;
    std::uint64_t fired = 0;
    // Background events far in the future keep the queue @p depth deep.
    for (unsigned i = 0; i < depth; ++i)
        q.schedule(Tick(1) << 60, "background", [] {});
    auto samples = timeOps(
        [&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                q.schedule(q.now() + 1, "dispatch", [&fired] { ++fired; });
                q.runUntil(q.now() + 1);
            }
        },
        budget);
    sink = sink + fired;
    return samples;
}

/** Random 8-byte-aligned offsets over @p bytes, from a fixed seed. */
std::vector<Addr>
randomOffsets(std::uint64_t bytes)
{
    Rng rng(12345);
    std::vector<Addr> off(1 << 16);
    for (Addr &a : off)
        a = rng.below(bytes / 8) * 8;
    return off;
}

/**
 * A working set the size of the BFS workload's largest graph (the
 * LiveJournal1 edge array at scale 64 is about 8.6 MB).
 */
constexpr std::uint64_t workingSet = 8ull << 20;

std::vector<double>
routeRead(Requester r, Addr base, double budget)
{
    TimingConfig timing;
    PlatformConfig platform;
    MemSystem mem(timing, platform);
    std::vector<std::uint8_t> data(workingSet, 0x5a);
    mem.hostDram().write(0x100000, data.data(), data.size());
    mem.nxpDram(0).write(0x100000, data.data(), data.size());
    std::vector<Addr> off = randomOffsets(workingSet);
    return timeOps(
        [&](std::uint64_t n) {
            std::uint64_t acc = 0, v = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                mem.readInt(r, base + 0x100000 + off[i & 0xffff], 8, v);
                acc += v;
            }
            sink = sink + acc;
        },
        budget);
}

/** Reports a fixed load for each of eight devices. */
class StaticView final : public PlacementView
{
  public:
    unsigned deviceCount() const override { return 8; }
    DeviceLoad
    load(unsigned device) const override
    {
        DeviceLoad l;
        l.depth = (device * 5 + turn) % 7;
        l.busy = l.depth != 0;
        return l;
    }
    Tick crossingEstimate() const override { return us(18); }
    Tick steerOverhead() const override { return us(1); }
    unsigned hostSpeedup() const override { return 12; }

    unsigned turn = 0; //!< Varies the loads from one query to the next.
};

/**
 * Simulated MIPS of one core running mix_hot, the storm workload's
 * register-only xorshift loop, or its host-ISA twin.
 */
std::vector<double>
coreMips(bool nxp, double budget)
{
    FlickSystem sys;
    Program prog;
    workloads::addPlacementMix(prog, 1);
    Process &proc = sys.load(prog);
    const char *fn = nxp ? "mix_hot" : "mix_hot__host";
    StatGroup &stats = nxp ? sys.debug().nxpCore().stats()
                           : sys.debug().hostCore().stats();
    sys.call(proc, fn, {7, 100}); // warm the decode cache
    const std::uint64_t rounds = 100000;
    const std::uint64_t expect = workloads::mixHotRef(7, rounds);
    std::vector<double> samples;
    double start = cpuSeconds();
    while (samples.size() < 5 || cpuSeconds() - start < budget) {
        std::uint64_t before = stats.get("instructions");
        double t0 = cpuSeconds();
        if (sys.call(proc, fn, {7, rounds}) != expect)
            fatal("perfbench: %s returned a wrong value", fn);
        double dt = cpuSeconds() - t0;
        samples.push_back((stats.get("instructions") - before) / dt / 1e6);
    }
    return samples;
}

} // namespace

std::map<std::string, std::vector<double>>
runLayers(double budget)
{
    const double each = budget / 16; // sixteen microbenchmarks
    std::map<std::string, std::vector<double>> out;

    {
        MigrationDescriptor d = callDescriptor(1);
        MigrationDescriptor::Wire wire = d.toWire();
        out["flick.descriptor.encode_ns"] = timeOps(
            [&](std::uint64_t n) {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < n; ++i) {
                    d.seq = i;
                    acc += d.toWire()[i & 127];
                }
                sink = sink + acc;
            },
            each);
        out["flick.descriptor.verify_ns"] = timeOps(
            [&](std::uint64_t n) {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < n; ++i)
                    acc += MigrationDescriptor::wireIntact(wire);
                if (acc != n)
                    fatal("perfbench: an intact descriptor failed its CRC");
                sink = sink + acc;
            },
            each);
        out["flick.descriptor.decode_ns"] = timeOps(
            [&](std::uint64_t n) {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < n; ++i)
                    acc += MigrationDescriptor::fromWire(wire).args[i % 6];
                sink = sink + acc;
            },
            each);
    }

    out["sim.event.dispatch_ns.d4"] = eventDispatch(4, each);
    out["sim.event.dispatch_ns.d4096"] = eventDispatch(4096, each);

    {
        StatGroup g("flick");
        out["sim.stats.inc_ns"] = timeOps(
            [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i)
                    g.inc(strfmt("host_to_nxp_calls_dev%u",
                                 static_cast<unsigned>(i & 7)));
            },
            each);
        sink = sink + g.get("host_to_nxp_calls_dev0");
    }

    {
        SparseMemory mem(64ull << 20);
        std::vector<std::uint8_t> data(workingSet, 0xa5);
        mem.write(0, data.data(), data.size());
        std::vector<Addr> off = randomOffsets(workingSet);
        out["mem.sparse.read_ns"] = timeOps(
            [&](std::uint64_t n) {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < n; ++i)
                    acc += mem.readInt(off[i & 0xffff], 8);
                sink = sink + acc;
            },
            each);
    }

    PlatformConfig platform;
    out["mem.route.read_ns.host_dram"] =
        routeRead(Requester::hostCore, 0, each);
    out["mem.route.read_ns.nxp_local"] =
        routeRead(Requester::nxpCore, platform.nxpDramLocalBase, each);
    out["mem.route.read_ns.pcie"] =
        routeRead(Requester::hostCore, platform.barBase(0), each);

    {
        FlickSystem sys;
        Program prog;
        workloads::addMicrobench(prog);
        Process &proc = sys.load(prog);
        const std::uint64_t pages = 4096; // > the 1536-entry host TLB
        VAddr base = sys.migratableMalloc(proc, pages * 4096);
        Mmu &mmu = sys.debug().hostCore().mmu();
        mmu.setCr3(proc.image.cr3);
        auto translate = [&](VAddr va) {
            TranslationResult t = mmu.translate(va, AccessType::read);
            if (t.fault != Fault::none)
                fatal("perfbench: translation fault at %#llx",
                      (unsigned long long)va);
            return t.pa;
        };
        out["vm.translate_ns.hit"] = timeOps(
            [&](std::uint64_t n) {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < n; ++i)
                    acc += translate(base + (i & 511) * 8);
                sink = sink + acc;
            },
            each);
        // Cycling over more pages than the TLB holds misses every time.
        out["vm.translate_ns.walk"] = timeOps(
            [&](std::uint64_t n) {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < n; ++i)
                    acc += translate(base + (i % pages) * 4096);
                sink = sink + acc;
            },
            each);
    }

    out["isa.rv64.mips"] = coreMips(true, each);
    out["isa.hx64.mips"] = coreMips(false, each);

    {
        TimingConfig timing;
        MemSystem mem(timing, platform);
        EventQueue events;
        DmaEngine dma(events, mem, nullptr, 0);
        std::uint64_t done = 0;
        out["mem.dma.transfer_ns"] = timeOps(
            [&](std::uint64_t n) {
                for (std::uint64_t i = 0; i < n; ++i) {
                    dma.copyHostToNxp(0x10000, platform.nxpDramLocalBase +
                                                   0x1000,
                                      MigrationDescriptor::wireBytes,
                                      [&done] { ++done; });
                    events.run();
                }
            },
            each);
        sink = sink + done;
    }

    {
        auto policy = makePlacementPolicy(PlacementKind::leastLoaded,
                                          PlacementConfig{});
        StaticView view;
        PlacementQuery query;
        query.cr3 = 0x1000;
        query.canonical = 0x400000;
        PlacementCandidates cands;
        for (unsigned d = 0; d < view.deviceCount(); ++d)
            cands.deviceVa.push_back(0x400000 + d * 0x10000);
        out["policy.place_ns"] = timeOps(
            [&](std::uint64_t n) {
                std::uint64_t acc = 0;
                for (std::uint64_t i = 0; i < n; ++i) {
                    view.turn = static_cast<unsigned>(i);
                    acc += policy->place(query, cands, view).device;
                }
                sink = sink + acc;
            },
            each);
    }
    return out;
}

} // namespace perfbench
