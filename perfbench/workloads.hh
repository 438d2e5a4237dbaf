/**
 * @file
 * The benchmark's three workloads. Each repetition builds a fresh
 * FlickSystem (timed as set-up), runs a fixed amount of simulated work
 * (timed as the measured phase), and checks every call's result against
 * the workload's reference model. With a fresh system per repetition,
 * every repetition of one seed is the same simulation: its counters and
 * simulated results repeat exactly.
 */

#ifndef FLICK_PERFBENCH_WORKLOADS_HH
#define FLICK_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "calibration.hh"
#include "harness.hh"

namespace perfbench
{

/** The seed whose simulated results the benchmark records. */
constexpr std::uint64_t defaultSeed = 1;

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Run one repetition, recording spans into @p spans when it is on
     * and calling @p cal.checkpoint() throughout the measured phase.
     */
    virtual Rep rep(Spans &spans, Calibrator &cal) = 0;

    /**
     * The simulated results recorded for the default seed, which every
     * repetition at that seed must reproduce exactly. Empty when the
     * workload does not depend on the seed's recorded values.
     */
    virtual std::map<std::string, std::uint64_t>
    reference(std::uint64_t seed) const = 0;
};

/** "roundtrip", "bfs" or "storm"; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace perfbench

#endif // FLICK_PERFBENCH_WORKLOADS_HH
