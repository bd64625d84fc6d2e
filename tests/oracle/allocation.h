/**
 * @file
 * Oracles for deadline-aware allocation (core/allocation.h).
 *
 *  - RoundAwarePlan / RoundAwareLowerBoundUs: table forms of the
 *    round-aware planner. The production planner builds per-resolution
 *    RoundDegreeInfo once per round window and answers every request
 *    from it (and from the staircase precomputed over it). These
 *    rebuild the degree info from the latency table on every call and
 *    run the direct candidate scan, which is how the seed planner
 *    priced a request.
 *  - ExhaustivePlan: an exact DP over (steps x degrees) that checks
 *    the two-degree optimality argument behind FindPlan.
 */
#ifndef TETRI_ORACLE_ALLOCATION_H
#define TETRI_ORACLE_ALLOCATION_H

#include "core/allocation.h"

namespace tetri::oracle {

/**
 * Round-aware minimal-GPU-time plan straight from the latency table.
 * @param table profiled step times.
 * @param res request resolution.
 * @param remaining_steps steps left (> 0).
 * @param slack_us time until the (VAE-adjusted) deadline.
 * @param round_us the scheduler round length tau.
 */
core::AllocationPlan RoundAwarePlan(const costmodel::LatencyTable& table,
                                    costmodel::Resolution res,
                                    int remaining_steps, double slack_us,
                                    double round_us);

/** Survival lower bound LB_i straight from the latency table. */
double RoundAwareLowerBoundUs(const costmodel::LatencyTable& table,
                              costmodel::Resolution res,
                              int remaining_steps, double round_us);

/**
 * Exact DP over (steps x degrees) minimizing GPU time under the slack,
 * with time discretized to @p buckets. Slow.
 */
core::AllocationPlan ExhaustivePlan(const costmodel::LatencyTable& table,
                                    costmodel::Resolution res,
                                    int remaining_steps, double slack_us,
                                    int buckets = 2000);

}  // namespace tetri::oracle

#endif  // TETRI_ORACLE_ALLOCATION_H
