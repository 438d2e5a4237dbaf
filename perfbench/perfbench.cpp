/**
 * @file
 * Host-speed benchmark driver: runs one workload against the public
 * FlickSystem API for a CPU-time budget and writes its raw samples as
 * JSON. run.py builds this program, runs it and turns the samples into
 * the metrics named in BENCHMARK.json.
 *
 *   perfbench --workload roundtrip|bfs|storm --seed N --seconds S
 *             --trace 0|1 --out FILE [--spans FILE]
 *
 * Every repetition builds a fresh system and runs the same fixed work,
 * so per-repetition rates are comparable and counters repeat exactly.
 * With --trace 1, odd repetitions record spans around the benchmark's
 * calls into the simulator (written to --spans at exit) and the
 * microbenchmarks of layers.cc run after the repetitions.
 */

#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>

#include "calibration.hh"
#include "harness.hh"
#include "layers.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** Spans kept in memory at most; later repetitions run untraced. */
constexpr std::size_t maxSpans = 200000;

/** Share of a traced run's budget given to the microbenchmarks. */
constexpr double layerShare = 0.25;

/** Fewest repetitions a run makes, whatever the budget. */
constexpr unsigned minReps = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string out;
    std::string spans;
};

bool
parse(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--out")
            a.out = v;
        else if (k == "--spans")
            a.spans = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && !a.out.empty() &&
           a.seconds > 0;
}

void
writeSamples(std::ostream &os, const std::vector<double> &v)
{
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << v[i];
    os << ']';
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    try {
        if (!parse(argc, argv, a))
            throw std::invalid_argument("usage");
    } catch (const std::exception &) {
        std::fprintf(stderr,
                     "usage: perfbench --workload roundtrip|bfs|storm "
                     "--seed N --seconds S --trace 0|1 --out FILE "
                     "[--spans FILE]\n");
        return 2;
    }
    std::unique_ptr<Workload> w = makeWorkload(a.workload, a.seed);
    if (!w) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }

    // The first run of the calibration kernel pays for cold caches and
    // page faults; keep it out of the samples.
    referenceKernelSeconds();

    Spans spans;
    Calibrator cal(spans);
    std::vector<Rep> reps;
    double budget = a.trace ? a.seconds * (1 - layerShare) : a.seconds;
    double start = cpuSeconds();
    while (reps.size() < minReps || cpuSeconds() - start < budget) {
        // Alternate untraced and traced repetitions, so drift in the
        // host's speed affects both alike.
        bool traced = a.trace && reps.size() % 2 == 1 &&
                      spans.size() < maxSpans;
        spans.setOn(traced);
        cal.beginRep();
        reps.push_back(w->rep(spans, cal));
        Rep &r = reps.back();
        r.runS -= cal.spentSeconds();
        r.refS = cal.meanSeconds();
        r.traced = traced;
    }
    spans.setOn(false);

    std::map<std::string, std::vector<double>> layers;
    if (a.trace)
        layers = runLayers(a.seconds * layerShare);

    // Result checks beyond each call's own: every repetition reproduces
    // the recorded simulated results of the default seed, and repeats
    // the first repetition's counters and results exactly.
    std::uint64_t attempted = 0, failed = 0;
    std::map<std::string, std::uint64_t> ref = w->reference(a.seed);
    std::set<std::string> mismatches;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        attempted += r.attempted;
        failed += r.failed;
        for (const auto &kv : ref) {
            ++attempted;
            auto it = r.simResults.find(kv.first);
            if (it == r.simResults.end() || it->second != kv.second) {
                ++failed;
                mismatches.insert(
                    kv.first + " = " +
                    (it == r.simResults.end() ? std::string("missing")
                                              : std::to_string(it->second)) +
                    ", recorded " + std::to_string(kv.second));
            }
        }
        ++attempted;
        if (r.counts != reps[0].counts || r.simResults != reps[0].simResults) {
            ++failed;
            mismatches.insert("a repetition's counters or simulated "
                              "results differ from the first one's");
        }
    }
    for (const std::string &m : mismatches)
        std::fprintf(stderr, "perfbench: check failed: %s\n", m.c_str());

    if (a.trace && !a.spans.empty() && !spans.writeJson(a.spans)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans.c_str());
        return 1;
    }

    std::ofstream os(a.out);
    os.precision(17);
    os << "{\"workload\":";
    jsonString(os, a.workload);
    os << ",\"seed\":" << a.seed << ",\"attempted\":" << attempted
       << ",\"failed\":" << failed << ",\"peak_rss_mb\":" << peakRssMb()
       << ",\"reference_nominal_s\":" << referenceNominalSeconds
       << ",\"ticks_per_second\":" << flick::sec(1)
       << ",\"counts\":";
    jsonCounts(os, reps[0].counts);
    os << ",\"sim\":";
    jsonCounts(os, reps[0].simResults);
    os << ",\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const Rep &r = reps[i];
        os << (i ? "," : "") << "\n{\"setup_s\":" << r.setupS
           << ",\"run_s\":" << r.runS << ",\"ref_s\":" << r.refS
           << ",\"traced\":" << (r.traced ? "true" : "false")
           << ",\"paper_err_pct\":";
        writeSamples(os, r.paperErrPct);
        os << '}';
    }
    os << "],\"layers\":{";
    bool first = true;
    for (const auto &kv : layers) {
        os << (first ? "" : ",") << '\n';
        first = false;
        jsonString(os, kv.first);
        os << ':';
        writeSamples(os, kv.second);
    }
    os << "}}\n";
    if (!os) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", a.out.c_str());
        return 1;
    }
    return 0;
}
