/**
 * @file
 * Shared pieces of the host-speed benchmark: the process CPU clock, the
 * counter snapshot read from FlickSystem::dumpStats(), the span recorder
 * of the traced run, and the raw-sample record one workload repetition
 * produces. run.py turns these raw samples into the reported metrics.
 */

#ifndef FLICK_PERFBENCH_HARNESS_HH
#define FLICK_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "flick/system.hh"

namespace perfbench
{

/** Process CPU time in seconds (the simulator is single-threaded). */
double cpuSeconds();

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * Named counters gathered from dumpStats() and the public accessors.
 * Keys are the benchmark's per-layer names (sim.events, mem.dma.bytes,
 * ...); minus() gives the counts of one measured phase.
 */
using Counts = std::map<std::string, std::uint64_t>;

/** Snapshot every counter the benchmark reports from @p sys. */
Counts snapshot(flick::FlickSystem &sys);

/** @p after - @p before, key by key. */
Counts minus(const Counts &after, const Counts &before);

/**
 * Spans recorded around the benchmark's own calls into the simulator.
 * Each span has an id, the id of the span that caused it (0 for a
 * root) and the id of the call (or repetition) it belongs to. Spans are
 * kept in memory and written out at exit as Chrome/Perfetto JSON, the
 * format Tracer::dumpJson emits. A disabled recorder records nothing.
 */
class Spans
{
  public:
    struct Record
    {
        const char *name;
        std::uint64_t id;
        std::uint64_t parent;
        std::uint64_t callId;
        double start; //!< Host seconds since the recorder was made.
        double end;
    };

    /** RAII span: opened by the constructor, closed by the destructor. */
    class Scope
    {
      public:
        Scope(Spans &spans, const char *name, std::uint64_t call_id);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &_spans;
        std::size_t _index;
        std::uint64_t _savedParent;
    };

    Spans();
    Spans(const Spans &) = delete;
    Spans &operator=(const Spans &) = delete;

    /** Record spans from now on (true) or not (false). */
    void setOn(bool on) { _on = on; }

    /** A fresh call id for a group of spans. */
    std::uint64_t newCall() { return ++_lastCall; }

    std::size_t size() const { return _records.size(); }

    /** Write every recorded span; returns false on an I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    double sinceStart() const;

    bool _on = false;
    std::chrono::steady_clock::time_point _t0;
    std::uint64_t _lastId = 0;
    std::uint64_t _lastCall = 0;
    std::uint64_t _current = 0; //!< Innermost open span (the parent).
    std::vector<Record> _records;
};

/** One repetition of a workload: fresh set-up, then a fixed measured run. */
struct Rep
{
    double setupS = 0;  //!< CPU seconds of construction, load, upload.
    double runS = 0;    //!< CPU seconds of the measured phase.
    double refS = 0;    //!< CPU seconds of the calibration kernel.
    bool traced = false;
    Counts counts;      //!< Counter deltas over the measured phase.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Simulated results, compared against the recorded reference. */
    std::map<std::string, std::uint64_t> simResults;
    /** Relative error (%) against the paper; absent when unvalidated. */
    std::vector<double> paperErrPct;
};

/** Minimal JSON emission helpers. */
void jsonString(std::ostream &os, const std::string &s);
void jsonCounts(std::ostream &os, const std::map<std::string,
                                                std::uint64_t> &m);

} // namespace perfbench

#endif // FLICK_PERFBENCH_HARNESS_HH
