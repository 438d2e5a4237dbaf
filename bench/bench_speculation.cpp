/**
 * @file
 * Speculative dual execution benchmark (DESIGN.md §16): the break-even
 * storm.
 *
 * The scenario speculation exists for: a callee whose host and NxP
 * costs straddle the crossing cost, so the placement model's margin is
 * thin and either side can win depending on the argument size — which
 * the per-function profile cannot see. The storm mixes call sizes
 * around the measured break-even on device-resident data:
 *
 *   1. Oracle calibration: a plain system measures shard_sum on the
 *      NxP and shard_sum__host on the host for every storm size; the
 *      per-size best side is the oracle a misprediction is judged
 *      against.
 *   2. Break-even storm: a seeded size sequence drives the same call
 *      through a profile-guided system twice — speculation on and off.
 *      Every result is checked against the reference sum (zero wrong
 *      results, any seed). With speculation off, a mispredicted call
 *      pays the full wrong-side latency; with speculation on, the
 *      host twin races the crossing and the loser is squashed, so a
 *      misprediction costs bounded wasted work instead of latency.
 *
 * The misprediction penalty of a call is its latency minus the oracle
 * best side for its size. A twin launches only at descriptor-fire time
 * and a host-win commit pays a wake+exit, so speculation cannot reach
 * the oracle — but it caps the penalty at a CONSTANT (launch delay +
 * commit cost) where the non-speculative wrong side pays the full
 * host/NxP gap, which grows with the size mix.
 *
 * Gates (exit 1 on failure):
 *   - speculation-on p99 misprediction penalty stays within
 *     --epsilon=US of the oracle best side (default 18us: one crossing
 *     -- the wrong side's cost is proportional to the size mix, the
 *     raced side's is capped at the crossing it hides);
 *   - speculation-on p99 penalty beats speculation-off p99 penalty
 *     (racing must actually cut the misprediction tail);
 *   - the speculation-off run dumps zero flick.spec.* stat lines;
 *   - spec counter algebra: launched == committed_host + squashed;
 *   - wasted-work ratio (squashed twin ticks / storm wall ticks) stays
 *     under 1.0 and is reported.
 *
 * Flags: --calls=N per storm (default 120), --seeds=N (default 3),
 * --threshold=PCT confidence threshold (default 30), --epsilon=US
 * (default 18), --smoke (reduced sizes for CI), --json=FILE.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "workloads/sharded.hh"

using namespace flick;
using namespace flick::bench;
using workloads::shardSumRef;
using workloads::shardWord;

namespace
{

struct Params
{
    std::uint64_t calls = 120;
    std::uint64_t seeds = 3;
    unsigned threshold = 30; //!< SpecConfig::confidenceThresholdPct.
    unsigned epsilonUs = 18; //!< Penalty bound: ~one crossing cost.
};

/** Storm sizes (words): decisive host, break-even band, decisive NxP. */
const std::uint64_t kSizes[] = {4, 8, 12, 16, 24, 34, 48, 64};
constexpr std::size_t kNumSizes = sizeof kSizes / sizeof kSizes[0];
constexpr std::uint64_t kBufWords = 64;
constexpr unsigned kShard = 7;

struct SpecSystem
{
    FlickSystem *sys = nullptr;
    Process *proc = nullptr;
    VAddr buf = 0;
};

/** Build a system with device-resident storm data. */
SpecSystem
makeStorm(SystemConfig config)
{
    SpecSystem s;
    s.sys = new FlickSystem(config.withDevices(1));
    Program prog;
    workloads::addShardedKernels(prog, 1);
    s.proc = &s.sys->load(prog);
    s.buf = s.sys->migratableMalloc(*s.proc, kBufWords * 8, 0);
    for (std::uint64_t i = 0; i < kBufWords; ++i)
        s.sys->writeVa(*s.proc, s.buf + 8 * i, shardWord(kShard, i));
    return s;
}

/** One timed call; exits on a wrong result (the correctness gate). */
double
timedCall(SpecSystem &s, const char *fn, std::uint64_t words)
{
    Tick t0 = s.sys->now();
    std::uint64_t v = s.sys->call(*s.proc, fn, {s.buf, words});
    if (v != shardSumRef(kShard, 0, words)) {
        std::fprintf(stderr, "FAIL: %s(%llu) returned %llu, want %llu\n",
                     fn, (unsigned long long)words, (unsigned long long)v,
                     (unsigned long long)shardSumRef(kShard, 0, words));
        std::exit(1);
    }
    return ticksToUs(s.sys->now() - t0);
}

struct Oracle
{
    std::map<std::uint64_t, double> hostUs;
    std::map<std::uint64_t, double> devUs;

    double
    bestUs(std::uint64_t words) const
    {
        return std::min(hostUs.at(words), devUs.at(words));
    }
};

/** Measure both sides per storm size on a plain (static) system. */
Oracle
calibrate()
{
    SpecSystem s = makeStorm(SystemConfig{});
    // Warm-up: NxP stack setup, decode caches, page translations.
    timedCall(s, "shard_sum", kBufWords);
    timedCall(s, "shard_sum__host", kBufWords);
    Oracle o;
    for (std::uint64_t words : kSizes) {
        o.devUs[words] = timedCall(s, "shard_sum", words);
        o.hostUs[words] = timedCall(s, "shard_sum__host", words);
    }
    delete s.sys;
    return o;
}

struct StormResult
{
    std::vector<double> penaltyUs; //!< Per call, lat - oracle best.
    double meanPenalty = 0;
    double p99Penalty = 0;
    Tick wallTicks = 0;
    std::uint64_t launched = 0;
    std::uint64_t committedHost = 0;
    std::uint64_t committedNxp = 0;
    std::uint64_t squashed = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t wastedTicks = 0;
    bool specSilent = false; //!< Dump had zero flick.spec.* lines.
};

/** Run one seeded break-even storm, speculation on or off. */
StormResult
runStorm(const Params &p, const Oracle &o, bool spec_on,
         std::uint64_t seed)
{
    SystemConfig cfg =
        SystemConfig{}.withPlacement(PlacementKind::profileGuided);
    if (spec_on) {
        SpecConfig sc;
        sc.confidenceThresholdPct = p.threshold;
        cfg.withSpeculation(sc);
    }
    SpecSystem s = makeStorm(cfg);
    // Same warm-up as the oracle run: one-time NxP stack setup and
    // decode-cache fills must not be billed as misprediction penalty.
    timedCall(s, "shard_sum", kBufWords);
    timedCall(s, "shard_sum__host", kBufWords);
    StormResult r;
    Tick t0 = s.sys->now();
    std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
    double sum = 0;
    for (std::uint64_t i = 0; i < p.calls; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        std::uint64_t words = kSizes[(x >> 33) % kNumSizes];
        double lat = timedCall(s, "shard_sum", words);
        r.penaltyUs.push_back(lat - o.bestUs(words));
        sum += r.penaltyUs.back();
    }
    r.wallTicks = s.sys->now() - t0;
    r.meanPenalty = sum / (double)p.calls;
    r.p99Penalty = p99(r.penaltyUs);
    const StatGroup &st = s.sys->debug().engine().stats();
    r.launched = st.get("spec.launched");
    r.committedHost = st.get("spec.committed_host");
    r.committedNxp = st.get("spec.committed_nxp");
    r.squashed = st.get("spec.squashed");
    r.conflicts = st.get("spec.conflicts");
    r.wastedTicks = st.get("spec.wasted_ticks");
    std::ostringstream dump;
    s.sys->dumpStats(dump);
    r.specSilent = dump.str().find("flick.spec.") == std::string::npos;
    delete s.sys;
    return r;
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
        p.calls = 48;
        p.seeds = 2;
    }
    p.calls = flagValue(argc, argv, "calls", p.calls);
    p.seeds = flagValue(argc, argv, "seeds", p.seeds);
    p.threshold =
        (unsigned)flagValue(argc, argv, "threshold", p.threshold);
    p.epsilonUs =
        (unsigned)flagValue(argc, argv, "epsilon", p.epsilonUs);
    std::string json = flagString(argc, argv, "json", "");

    // Phase 1: the oracle.
    Oracle o = calibrate();
    std::vector<std::vector<std::string>> orows;
    for (std::uint64_t words : kSizes)
        orows.push_back({strfmt("%llu", (unsigned long long)words),
                         fmtUs(o.hostUs.at(words)),
                         fmtUs(o.devUs.at(words)),
                         o.hostUs.at(words) < o.devUs.at(words)
                             ? "host"
                             : "nxp"});
    printTable("Oracle calibration: device-resident shard_sum per size",
               {"words", "host", "nxp", "best"}, orows);

    // Phase 2: seeded storms, speculation on vs off.
    bool ok = true;
    std::vector<double> onAll, offAll;
    double onMeanSum = 0, offMeanSum = 0;
    std::uint64_t launched = 0, committedHost = 0, committedNxp = 0;
    std::uint64_t squashed = 0, conflicts = 0;
    double wastedRatioSum = 0;
    std::vector<std::vector<std::string>> srows;
    for (std::uint64_t i = 0; i < p.seeds; ++i) {
        std::uint64_t seed = 21 + i;
        StormResult on = runStorm(p, o, true, seed);
        StormResult off = runStorm(p, o, false, seed);
        onAll.insert(onAll.end(), on.penaltyUs.begin(),
                     on.penaltyUs.end());
        offAll.insert(offAll.end(), off.penaltyUs.begin(),
                      off.penaltyUs.end());
        onMeanSum += on.meanPenalty;
        offMeanSum += off.meanPenalty;
        launched += on.launched;
        committedHost += on.committedHost;
        committedNxp += on.committedNxp;
        squashed += on.squashed;
        conflicts += on.conflicts;
        double wasted =
            (double)on.wastedTicks / (double)on.wallTicks;
        wastedRatioSum += wasted;
        srows.push_back(
            {strfmt("%llu", (unsigned long long)seed),
             fmtUs(on.meanPenalty), fmtUs(on.p99Penalty),
             fmtUs(off.meanPenalty), fmtUs(off.p99Penalty),
             strfmt("%llu", (unsigned long long)on.launched),
             strfmt("%llu/%llu", (unsigned long long)on.committedHost,
                    (unsigned long long)on.committedNxp),
             strfmt("%.2f", wasted)});
        if (on.launched != on.committedHost + on.squashed) {
            std::fprintf(stderr,
                         "FAIL: seed %llu spec counter algebra: "
                         "launched %llu != committed_host %llu + "
                         "squashed %llu\n",
                         (unsigned long long)seed,
                         (unsigned long long)on.launched,
                         (unsigned long long)on.committedHost,
                         (unsigned long long)on.squashed);
            ok = false;
        }
        if (!off.specSilent) {
            std::fprintf(stderr,
                         "FAIL: seed %llu speculation-off run dumped "
                         "flick.spec.* lines\n",
                         (unsigned long long)seed);
            ok = false;
        }
    }
    printTable(
        strfmt("Break-even storm: %llu calls/seed, threshold %u%%, "
               "misprediction penalty vs oracle best side",
               (unsigned long long)p.calls, p.threshold),
        {"seed", "on mean", "on p99", "off mean", "off p99", "races",
         "commit h/n", "wasted"},
        srows);

    double onP99 = p99(onAll);
    double offP99 = p99(offAll);
    double onMean = onMeanSum / (double)p.seeds;
    double offMean = offMeanSum / (double)p.seeds;
    double wastedRatio = wastedRatioSum / (double)p.seeds;
    double bound = (double)p.epsilonUs;
    std::printf("\nAggregate penalty: on p99 %s (bound %s), off p99 "
                "%s, on mean %s, off mean %s, wasted ratio %.2f\n",
                fmtUs(onP99).c_str(), fmtUs(bound).c_str(),
                fmtUs(offP99).c_str(), fmtUs(onMean).c_str(),
                fmtUs(offMean).c_str(), wastedRatio);

    if (launched == 0) {
        std::fprintf(stderr, "FAIL: the storm never launched a race\n");
        ok = false;
    }
    if (onP99 > bound) {
        std::fprintf(stderr,
                     "FAIL: speculation-on p99 misprediction penalty "
                     "%.1fus exceeds oracle best side + epsilon "
                     "(%.1fus)\n",
                     onP99, bound);
        ok = false;
    }
    if (onP99 >= offP99) {
        std::fprintf(stderr,
                     "FAIL: speculation-on p99 penalty %.1fus does "
                     "not beat speculation-off %.1fus (racing did not "
                     "cut the misprediction tail)\n",
                     onP99, offP99);
        ok = false;
    }
    if (wastedRatio >= 1.0) {
        std::fprintf(stderr,
                     "FAIL: wasted-work ratio %.2f is not bounded "
                     "under 1.0\n",
                     wastedRatio);
        ok = false;
    }

    if (!json.empty()) {
        std::ofstream os(json);
        if (!os) {
            std::fprintf(stderr, "FAIL: cannot write %s\n",
                         json.c_str());
            return 1;
        }
        os << "{\n  \"calls\": " << p.calls << ", \"seeds\": " << p.seeds
           << ", \"threshold_pct\": " << p.threshold
           << ", \"epsilon_us\": " << p.epsilonUs << ",\n  \"oracle\": [";
        bool first = true;
        for (std::uint64_t words : kSizes) {
            os << (first ? "" : ",") << "\n    {\"words\": " << words
               << ", \"host_us\": " << o.hostUs.at(words)
               << ", \"nxp_us\": " << o.devUs.at(words) << "}";
            first = false;
        }
        os << "\n  ],\n  \"p99_penalty_us_on\": " << onP99
           << ", \"p99_penalty_us_off\": " << offP99
           << ",\n  \"mean_penalty_us_on\": " << onMean
           << ", \"mean_penalty_us_off\": " << offMean
           << ",\n  \"races\": " << launched
           << ", \"committed_host\": " << committedHost
           << ", \"committed_nxp\": " << committedNxp
           << ", \"squashed\": " << squashed
           << ", \"conflicts\": " << conflicts
           << ",\n  \"wasted_ratio\": " << wastedRatio << "\n}\n";
        std::printf("wrote %s\n", json.c_str());
    }

    return ok ? 0 : 1;
}
