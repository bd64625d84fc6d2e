/**
 * @file
 * Deadline-aware GPU allocation (§4.2.1).
 *
 * For a request with identical remaining steps, find the per-step GPU
 * allocation multiset minimizing total GPU time subject to the sum of
 * step times fitting in the remaining slack:
 *
 *     min sum_j A_ij * T(A_ij)   s.t.  sum_j T(A_ij) <= slack.
 *
 * Because all steps of a request cost the same, an optimal plan needs
 * at most two distinct degrees (the LP vertex argument; verified
 * against an exhaustive DP in tests). FindPlan enumerates two-degree
 * mixes in O(K^2).
 */
#ifndef TETRI_CORE_ALLOCATION_H
#define TETRI_CORE_ALLOCATION_H

#include <vector>

#include "costmodel/latency_table.h"
#include "util/types.h"

namespace tetri::core {

/** A run of steps at one parallelism degree. */
struct AllocationSegment {
  int degree = 0;
  int steps = 0;
};

/** The per-request output of deadline-aware allocation. */
struct AllocationPlan {
  /**
   * Step counts per degree, ascending by degree. Empty if no steps
   * remain. When infeasible, holds the fastest-degree fallback plan.
   */
  std::vector<AllocationSegment> segments;
  /** True if the plan's total time fits the slack. */
  bool feasible = false;
  /** Sum of degree * T(degree) over all steps, GPU-microseconds. */
  double gpu_time_us = 0.0;
  /** Sum of step times, microseconds. */
  double exec_time_us = 0.0;

  /** Steps scheduled at a given degree (0 if absent). */
  int StepsAtDegree(int degree) const;
  int TotalSteps() const;
};

/** Per-degree effective step cost used by the planner. */
struct DegreeCost {
  int degree = 0;
  /** Effective per-step wall time (may include round quantization). */
  double step_time_us = 0.0;
  /** GPU time charged per step (degree * reserved time). */
  double gpu_time_us = 0.0;
};

/**
 * Two-degree minimal-GPU-time plan over explicit per-degree costs.
 * @param costs one entry per candidate degree (ascending by degree).
 * @param remaining_steps steps left (> 0).
 * @param slack_us time until the (VAE-adjusted) deadline.
 */
AllocationPlan FindPlanWithCosts(const std::vector<DegreeCost>& costs,
                                 int remaining_steps, double slack_us);

/**
 * Two-degree minimal-GPU-time plan using raw profiled step times.
 * @param table profiled step times.
 * @param res request resolution.
 * @param remaining_steps steps left (> 0).
 * @param slack_us time until the (VAE-adjusted) deadline.
 */
AllocationPlan FindPlan(const costmodel::LatencyTable& table,
                        costmodel::Resolution res, int remaining_steps,
                        double slack_us);

/**
 * Per-degree inputs of round-aware planning: the profiled step time
 * and the whole steps fitting one round. These depend only on
 * (resolution, round length), so TetriScheduler computes them once
 * per resolution per round window and replans every queued request
 * against the shared copy instead of re-reading the latency table per
 * entry.
 */
struct RoundDegreeInfo {
  int degree = 0;
  /** Profiled step time at this degree, microseconds. */
  double step_us = 0.0;
  /** floor(round_us / step_us): whole steps per round (0 if a step
   * spills past the round). */
  int steps_per_round = 0;
};

/**
 * Fill @p out (cleared first) with one RoundDegreeInfo per feasible
 * degree of @p table, in table degree order.
 */
void BuildRoundDegreeInfo(const costmodel::LatencyTable& table,
                          costmodel::Resolution res, double round_us,
                          std::vector<RoundDegreeInfo>* out);

/**
 * Round-aware minimal-GPU-time plan over prebuilt degree info (the
 * production planner of TetriScheduler). Because the round packer
 * admits at most one allocation per request per round, a two-degree
 * mix executes as whole rounds of the fast degree followed by whole
 * rounds of the slow degree, with only the very last segment finishing
 * mid-round. This costing charges that quantization honestly — a
 * 1-step leftover segment costs a full extra round of wall-clock —
 * which FindPlan's continuous model misprices near the deadline.
 * Writes into @p out, reusing its segment capacity.
 *
 * @param info per-degree costs for the request's resolution.
 * @param remaining_steps steps left (> 0).
 * @param slack_us time until the (VAE-adjusted) deadline.
 * @param round_us the scheduler round length tau.
 */
void RoundAwarePlanInto(const std::vector<RoundDegreeInfo>& info,
                        int remaining_steps, double slack_us,
                        double round_us, AllocationPlan* out);

/**
 * Tightest achievable residual completion time under round
 * quantization: min over degrees of full rounds plus a mid-round
 * finishing tail. Used as the survival lower bound LB_i.
 */
double RoundAwareLowerBoundUs(const std::vector<RoundDegreeInfo>& info,
                              int remaining_steps, double round_us);

/** One candidate mix of the round-aware planner: `slow_steps` at
 * info[slow_idx] finishing after `fast_steps` at info[fast_idx]. */
struct PlanCandidate {
  int slow_idx = 0;
  int slow_steps = 0;
  int fast_idx = 0;
  int fast_steps = 0;
  /** Wall-clock of the mix under round quantization. */
  double duration_us = 0.0;
  /** GPU time of the mix. */
  double gpu_time_us = 0.0;
};

/**
 * Precomputed answer of RoundAwarePlanInto as a function of slack.
 *
 * For fixed (degree info, remaining steps, round length) the planner's
 * candidate set is slack-independent; slack only gates which
 * candidates are feasible. The winner is therefore a step function of
 * slack whose breakpoints are the distinct candidate durations.
 * BuildPlanStaircase records the candidates, the breakpoints and the
 * definitely-late fallback. A breakpoint's winner is resolved the
 * first time a lookup lands in it, by a faithful re-scan of the
 * candidate list (same enumeration order, same epsilon comparator),
 * and is kept as a materialized plan, so ResolveRoundPlan answers any
 * slack with a binary search yet reproduces RoundAwarePlanInto bit for
 * bit.
 */
struct PlanStaircase {
  bool built = false;
  /** All candidates in the planner's enumeration order. */
  std::vector<PlanCandidate> candidates;
  /** Sorted distinct candidate durations (feasibility breakpoints). */
  std::vector<double> thresholds;
  /**
   * plans[0] is the definitely-late fallback (slack below every
   * threshold); plans[i + 1] is the plan chosen when slack lies in
   * [thresholds[i], thresholds[i+1]), with no segments until a lookup
   * first resolves it. Sized once per build and heap-owned, so a
   * returned reference survives later lookups and moves of the
   * staircase itself (the scheduler's memo vector grows while entries
   * hold pointers into it).
   */
  std::vector<AllocationPlan> plans;
};

/**
 * Prepare the staircase for (info, remaining_steps, round_us): the
 * candidates, breakpoints and fallback. No breakpoint is resolved.
 */
void BuildPlanStaircase(const std::vector<RoundDegreeInfo>& info,
                        int remaining_steps, double round_us,
                        PlanStaircase* out);

/**
 * Answer a RoundAwarePlanInto query from a built staircase in
 * O(log candidates), resolving the breakpoint the slack lands in on
 * first use. A slack below thresholds.front() returns plans[0], and
 * only such a slack does. @p info must be the vector the staircase
 * was built from.
 * Returns exactly the plan RoundAwarePlanInto would produce, in place:
 * the reference stays valid until the staircase is rebuilt.
 */
const AllocationPlan& ResolveRoundPlan(
    PlanStaircase* staircase, const std::vector<RoundDegreeInfo>& info,
    double slack_us);

}  // namespace tetri::core

#endif  // TETRI_CORE_ALLOCATION_H
