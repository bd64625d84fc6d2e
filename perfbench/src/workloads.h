/**
 * @file
 * The benchmark's workloads. Each takes the run options, generates its
 * inputs from the seed, measures for the requested time and fills a
 * Report with either the end-to-end metrics (untraced) or the per-layer
 * metrics (traced run).
 */
#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/** ServingSystem::Run of one long Poisson trace (FLUX.1-dev, 8xH100). */
Report RunReplayLong(const RunOptions& options);

/** ServingSystem::Run of many short MMPP traces with GPU failures
 * (SD3-Medium, 4xA40). */
Report RunReplayBurst(const RunOptions& options);

/** ServingRuntime Submit -> completion: open loop, then closed loop. */
Report RunRuntimeSubmit(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H
