/**
 * @file
 * Host-speed calibration. The benchmark shares its machine with other
 * work, and the machine's speed drifts by tens of percent over seconds.
 * A fixed reference kernel, independent of the simulator and shaped
 * like its hot paths (predecoded-handler dispatch, hash lookups,
 * string-keyed counters, an event heap of std::function callbacks), is
 * timed right before and after every repetition. Scaling the
 * repetition's CPU time by nominal / measured kernel time cancels most
 * of the drift; run.py reports both the raw and the scaled figures.
 */

#ifndef FLICK_PERFBENCH_CALIBRATION_HH
#define FLICK_PERFBENCH_CALIBRATION_HH

#include "harness.hh"

namespace perfbench
{

/**
 * CPU seconds one run of the reference kernel takes on the reference
 * host (a 4-vCPU Intel Xeon VM); scaled host seconds are expressed at
 * that speed.
 */
constexpr double referenceNominalSeconds = 0.0015;

/** Run the reference kernel once; returns the CPU seconds it took. */
double referenceKernelSeconds();

/**
 * Interleaves the reference kernel with a repetition's measured phase.
 * Workloads call checkpoint() between their calls into the simulator;
 * every `interval` CPU seconds it runs the kernel once. The machine's
 * speed drifts within a repetition too, so sampling it through the
 * measured phase tracks the drift far better than sampling around it.
 */
class Calibrator
{
  public:
    static constexpr double interval = 0.025;

    explicit Calibrator(Spans &spans) : _spans(spans) {}

    /** Start a repetition: reset the sums and take a first sample. */
    void beginRep();

    /** Sample the kernel if `interval` has passed since the last one. */
    void checkpoint();

    /** Mean kernel time over the repetition's samples. */
    double meanSeconds() const { return _sum / _samples; }

    /** CPU seconds spent in the kernel since beginRep(). */
    double spentSeconds() const { return _spent; }

  private:
    void sample();

    Spans &_spans;
    double _last = 0;
    double _sum = 0;
    double _spent = 0;
    unsigned _samples = 0;
};

} // namespace perfbench

#endif // FLICK_PERFBENCH_CALIBRATION_HH
