/**
 * @file
 * Microbenchmarks of single simulator modules, each timing calls into
 * the module's public functions with inputs shaped like the workloads.
 */

#ifndef FLICK_PERFBENCH_LAYERS_HH
#define FLICK_PERFBENCH_LAYERS_HH

#include <map>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench
{

/**
 * Run every microbenchmark within about @p budget CPU seconds. Keys are
 * the per-layer metric names; values are samples, in ns per operation
 * (`*_ns`) or simulated MIPS (`isa.*.mips`).
 */
std::map<std::string, std::vector<double>> runLayers(double budget);

} // namespace perfbench

#endif // FLICK_PERFBENCH_LAYERS_HH
