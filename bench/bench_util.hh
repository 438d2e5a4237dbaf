/**
 * @file
 * Shared helpers for the reproduction benchmarks: paper-style table
 * printing and common measurement loops.
 *
 * Every bench binary regenerates one table or figure from the paper's
 * evaluation (Section V) and prints the same rows/series the paper
 * reports, measured in *simulated* time on the modelled platform.
 * EXPERIMENTS.md records paper-vs-measured for each.
 */

#ifndef FLICK_BENCH_BENCH_UTIL_HH
#define FLICK_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "flick/system.hh"
#include "workloads/microbench.hh"

namespace flick::bench
{

/** Print a titled, column-aligned table. */
inline void
printTable(const std::string &title,
           const std::vector<std::string> &headers,
           const std::vector<std::vector<std::string>> &rows)
{
    std::vector<std::size_t> width(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        width[c] = headers[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            width[c] = std::max(width[c], row[c].size());

    std::printf("\n=== %s ===\n", title.c_str());
    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            std::printf("%-*s  ", static_cast<int>(width[c]),
                        row[c].c_str());
        std::printf("\n");
    };
    print_row(headers);
    std::size_t total = 0;
    for (std::size_t c = 0; c < headers.size(); ++c)
        total += width[c] + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto &row : rows)
        print_row(row);
}

/** Format microseconds with one decimal. */
inline std::string
fmtUs(double us_value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1fus", us_value);
    return buf;
}

/** Format seconds with one decimal. */
inline std::string
fmtSec(double s)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1fs", s);
    return buf;
}

/** Format seconds as milliseconds with one decimal. */
inline std::string
fmtMs(double s)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1fms", s * 1e3);
    return buf;
}

/** Format a ratio like "2.6x". */
inline std::string
fmtX(double x)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2fx", x);
    return buf;
}

/**
 * Nearest-rank 99th percentile of @p v: the smallest sample with at
 * least 99% of the samples at or below it. 0 for no samples.
 */
inline double
p99(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    return v[std::min(v.size() - 1, (v.size() * 99 + 99) / 100 - 1)];
}

/**
 * Average Host-NxP-Host round trip over @p calls no-op migrations
 * (the Section V-A methodology), excluding first-call stack setup.
 */
inline double
measureHostNxpHostUs(FlickSystem &sys, Process &proc, int calls)
{
    // Warm-up: one-time NxP stack allocation.
    sys.submit(proc, CallSpec("nxp_noop")).wait();
    Tick t0 = sys.now();
    for (int i = 0; i < calls; ++i)
        sys.submit(proc, CallSpec("nxp_noop")).wait();
    return ticksToUs(sys.now() - t0) / calls;
}

/**
 * Average NxP-Host-NxP round trip: the NxP calls an immediately
 * returning host function @p calls times; the outer host->NxP round
 * trip is subtracted, as in the paper.
 */
inline double
measureNxpHostNxpUs(FlickSystem &sys, Process &proc, int calls)
{
    sys.submit(proc, CallSpec("nxp_noop")).wait();
    Tick t0 = sys.now();
    sys.submit(proc, CallSpec("nxp_calls_host")
                         .withArgs({static_cast<std::uint64_t>(calls)}))
        .wait();
    Tick total = sys.now() - t0;
    Tick t1 = sys.now();
    sys.submit(proc, CallSpec("nxp_calls_host").withArgs({0})).wait();
    Tick outer = sys.now() - t1;
    return ticksToUs(total - outer) / calls;
}

/** Parse "--name=value" style integer flags. */
inline std::uint64_t
flagValue(int argc, char **argv, const std::string &name,
          std::uint64_t fallback)
{
    std::string prefix = "--" + name + "=";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            return std::stoull(arg.substr(prefix.size()));
    }
    return fallback;
}

/** Parse "--name=value" style string flags. */
inline std::string
flagString(int argc, char **argv, const std::string &name,
           const std::string &fallback)
{
    std::string prefix = "--" + name + "=";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind(prefix, 0) == 0)
            return arg.substr(prefix.size());
    }
    return fallback;
}

} // namespace flick::bench

#endif // FLICK_BENCH_BENCH_UTIL_HH
