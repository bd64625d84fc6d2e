/**
 * @file
 * Exhaustive step-level scheduler (Appendix B, Table 6).
 *
 * Enumerates the complete decision space the paper's exact baseline
 * explores: for every diffusion step of every request, all feasible
 * sequence-parallel degrees AND all physical GPU subsets of that size
 * (the permutation dimension responsible for the factorial blow-up).
 * Branch-and-bound on (requests met, total GPU time) with a wall-clock
 * timeout. This exists to demonstrate why the round-based DP is
 * necessary: three requests on eight GPUs already exceed a 60 s
 * budget, while TetriServe's DP plans in well under 10 ms.
 */
#ifndef TETRI_EXACT_EXHAUSTIVE_H
#define TETRI_EXACT_EXHAUSTIVE_H

#include <vector>

#include "costmodel/latency_table.h"
#include "util/types.h"

namespace tetri::exact {

/** One request as seen by the offline exact solver. */
struct ExactRequest {
  costmodel::Resolution resolution = costmodel::Resolution::k256;
  TimeUs arrival_us = 0;
  TimeUs deadline_us = 0;
  int steps = 1;
};

/** Outcome of one exact solve. */
struct ExactResult {
  /** Requests meeting their deadline in the best schedule found. */
  int met = 0;
  /** GPU-seconds of the best schedule (tie-break objective). */
  double gpu_seconds = 0.0;
  /** True if the search hit the timeout before completing. */
  bool timed_out = false;
  /** Wall-clock spent searching, seconds. */
  double wall_seconds = 0.0;
  /** Search nodes expanded. */
  std::int64_t nodes = 0;
};

/**
 * Exhaustively search step-level schedules.
 * @param table profiled step times.
 * @param num_gpus cluster size N (power of two, <= 8 advisable).
 * @param requests the queue snapshot to schedule.
 * @param timeout_seconds wall-clock budget; the best-so-far schedule
 *        is returned with timed_out = true when exceeded.
 */
ExactResult SolveExhaustive(const costmodel::LatencyTable& table,
                            int num_gpus,
                            const std::vector<ExactRequest>& requests,
                            double timeout_seconds);

}  // namespace tetri::exact

#endif  // TETRI_EXACT_EXHAUSTIVE_H
