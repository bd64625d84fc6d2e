/**
 * @file
 * Round packing via group knapsack (Algorithm 1, §4.2.2).
 *
 * Per round, every request contributes a group of options: `none`
 * (consume no GPUs, make no progress) plus one option per candidate
 * allocation that can complete at least one step within the round.
 * Each option has a width (its GPU count) and a binary survival value:
 * whether the request is *not definitely late* at the next round start
 * under the conservative lower bound LB = remaining_steps * T_min.
 * The DP maximizes survivors under the GPU capacity; ties prefer
 * running more requests, then consuming fewer GPUs (GPU-hour economy).
 * This is TetriServe's only Stage-2 packer: TetriScheduler calls
 * PackRoundInto directly with an arena it owns.
 */
#ifndef TETRI_PACKERS_DP_PACKER_H
#define TETRI_PACKERS_DP_PACKER_H

#include <vector>

#include "util/types.h"

namespace tetri::packers {

/** One runnable option of a request for the current round. */
struct PackOption {
  int degree = 0;
  /** Steps completing this round at this degree (q_i^m > 0). */
  int steps = 0;
  /** Survival indicator sv_i(o). */
  bool survives = false;
  /**
   * GPU-work accomplished by the option (steps * degree * step time).
   * Used as the tie-break between equal-survivor packings: banking
   * the steepest plan segments early is robust to later contention.
   */
  double work = 0.0;
};

/** A request's option group. */
struct PackGroup {
  RequestId id = kInvalidRequest;
  std::vector<PackOption> options;
  /** sv_i(none): survival when idling this round. */
  bool survives_if_idle = false;
};

/** Chosen option per group. */
struct PackResult {
  /** Index into group.options, or -1 for `none`. Parallel to input. */
  std::vector<int> choice;
  int survivors = 0;
  int gpus_used = 0;
  int running = 0;
  double work = 0.0;
};

/**
 * Accumulated work values are sums of weight * q * T_min terms, so two
 * packings covering the same options in different orders can differ by
 * floating-point rounding noise. All tie-breaking on work goes through
 * this predicate: values within a relative 1e-9 band are equal, so the
 * DP, any independent oracle, and any replayed accumulation order
 * agree on which packings tie.
 */
bool WorkNearlyEqual(double a, double b);

/**
 * The packing comparator shared by the DP and its test oracles:
 * survivors descending, then work descending (epsilon ties via
 * WorkNearlyEqual), then width ascending. Returns true when
 * (survivors_a, work_a, width_a) is strictly better.
 */
bool PackValueBetter(int survivors_a, double work_a, int width_a,
                     int survivors_b, double work_b, int width_b);

/**
 * Reusable DP arena for PackRoundInto. Holds the flat value row pair
 * and the full parent tables as single contiguous allocations that
 * are only regrown when (groups, capacity) exceeds every previous
 * round's shape — a steady-state Plan() call performs no DP
 * allocations.
 */
struct PackScratch {
  /** Ensure capacity for @p num_groups groups and @p capacity GPUs. */
  void Reserve(int num_groups, int capacity);

  // Rolling value rows, (capacity + 1) entries each (structure of
  // arrays: reachability is survivors >= 0; cells above the row's
  // reach are stale).
  std::vector<int> survivors[2];
  std::vector<double> work[2];
  std::vector<int> width[2];
  // Full (num_groups + 1) x (capacity + 1) reconstruction tables.
  std::vector<int> parent;
  std::vector<int> parent_c;
};

/**
 * Solve the per-round group knapsack over the first @p num_groups
 * entries of @p groups (a reusable buffer may hold stale tails) and
 * @p capacity GPUs, writing the chosen option per group into
 * @p result and reusing its choice-vector capacity. Row i is written
 * and scanned only up to its reach, min(capacity, sum of the widest
 * option of groups 0..i), so a shallow or narrow call leaves the
 * arena's wider cells stale and never reads them.
 * O(R * reach * max|options|) time, O(R * capacity) space.
 */
void PackRoundInto(const PackGroup* groups, int num_groups, int capacity,
                   PackScratch* scratch, PackResult* result);

}  // namespace tetri::packers

#endif  // TETRI_PACKERS_DP_PACKER_H
