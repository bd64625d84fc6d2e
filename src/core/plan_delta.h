/**
 * @file
 * Incremental round replanning state (the "PlanDelta" layer).
 *
 * TetriServe replans every round from scratch, but between consecutive
 * rounds only a handful of requests arrive, finish, fail, or degrade.
 * With TetriOptions::incremental_replan on, TetriScheduler carries the
 * Stage-1 allocation answers and the Stage-2 DP value rows across
 * rounds and recomputes only what a round's delta actually touched.
 * (The pure memo caches — staircases, lower bounds, step times — are
 * keyed on (table, tau) and persist across rounds in every mode.)
 *
 * The contract is **bit-identical or full replan**: every reuse below
 * is justified by an exact invariant (a staircase interval that
 * provably contains the new slack, a byte-equal DP group prefix), and
 * whenever an invalidation rule cannot prove reuse safe — a changed
 * latency table, mutated options, a different free-GPU set, a round
 * window change, or a schedulable order the merge walk cannot align —
 * the round falls back to a full replan. The replan differential
 * harness (tests/replan_differential_test.cc) asserts the resulting
 * plans are bit-for-bit identical to from-scratch planning across
 * randomized delta sequences.
 */
#ifndef TETRI_CORE_PLAN_DELTA_H
#define TETRI_CORE_PLAN_DELTA_H

#include <array>
#include <cstdint>
#include <vector>

#include "core/allocation.h"
#include "packers/dp_packer.h"
#include "serving/request.h"
#include "serving/scheduler.h"
#include "util/types.h"

namespace tetri::core {

/**
 * Why a round could not reuse the previous round's state. One counter
 * per rule; a single full replan may fire several rules at once (e.g.
 * Reconfigure swapping both table and options).
 */
enum class ReplanReason : int {
  /** No previous planned round to reuse (first round, or state was
   * explicitly invalidated). */
  kColdStart = 0,
  /** The caller changed the round window tau = round_end - now. */
  kTauChanged,
  /** set_table / Reconfigure swapped the latency table. */
  kTableChanged,
  /** Reconfigure changed planning options (packer, allow_non_pow2,
   * batching knobs, ...). */
  kOptionsChanged,
  /** GPU health changed: the free-GPU mask or the topology object
   * differs from the last planned round (failures, recoveries, or
   * dispatch occupancy). */
  kHealthChanged,
  /** The schedulable sequence is not strictly sorted by
   * (deadline, id), so the merge walk cannot align it with the cached
   * slots. */
  kOrderDrift,
  kNumReasons,
};

inline constexpr int kNumReplanReasons =
    static_cast<int>(ReplanReason::kNumReasons);

/** Stable display name ("cold_start", "table_changed", ...). */
const char* ReplanReasonName(ReplanReason reason);

/**
 * What one planned round changed relative to the previous one, as
 * derived by the merge walk and the per-slot validity checks. Reset at
 * the start of every incremental Plan() call.
 */
struct PlanDelta {
  /** Requests present now that had no slot last round. */
  int arrivals = 0;
  /** Slots whose request left the queue (finished/dropped/running). */
  int removals = 0;
  /** Carried slots replanned because RemainingSteps changed. */
  int steps_changed = 0;
  /** Carried slots replanned because degree_cap changed (SP
   * degradation) or is active. */
  int cap_changed = 0;
  /** Carried slots replanned because the new slack left the cached
   * staircase interval. */
  int window_crossed = 0;
  /** Slots whose Stage-1 allocation was reused verbatim. */
  int slots_reused = 0;
  /** Slots planned fresh this round (for any reason). */
  int slots_replanned = 0;
  /** True when an invalidation rule forced a from-scratch round. */
  bool full_replan = false;
};

/** Cumulative replan accounting, exposed via
 * TetriScheduler::replan_stats(). */
struct ReplanStats {
  /** Rounds planned with incremental_replan on. */
  std::uint64_t rounds = 0;
  /** Rounds that went through the incremental path. */
  std::uint64_t incremental_rounds = 0;
  /** Rounds forced back to a from-scratch replan. */
  std::uint64_t full_replans = 0;
  /** Per-rule trigger counts (indexed by ReplanReason). */
  std::array<std::uint64_t, kNumReplanReasons> reasons{};
  std::uint64_t slots_reused = 0;
  std::uint64_t slots_replanned = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t removals = 0;
  std::uint64_t steps_changed = 0;
  std::uint64_t cap_changed = 0;
  std::uint64_t window_crossed = 0;
  /** DP value rows reused / recomputed across incremental rounds. */
  std::uint64_t dp_rows_reused = 0;
  std::uint64_t dp_rows_total = 0;
  /** Rounds answered from the plan memo: an empty delta with every
   * global input unchanged re-emits the cached plan verbatim. */
  std::uint64_t memo_hits = 0;
};

/**
 * Cached Stage-1 answer for one request, carried across rounds. The
 * alloc is reusable while every input of the staircase lookup is
 * provably unchanged: same (table, tau) — guarded globally — same
 * resolution and remaining steps, no degree cap, and a clamped slack
 * still inside [window_lo, window_hi), the staircase interval the
 * cached winner was materialized from (within one interval the lookup
 * is a constant function of slack, so reuse is bitwise exact).
 */
struct ReplanSlot {
  RequestId id = kInvalidRequest;
  /** Raw deadline: with id, the merge key; static per request. */
  TimeUs deadline_us = 0;
  costmodel::Resolution resolution = costmodel::Resolution::k256;
  int rem = 0;
  int degree_cap = 0;
  /** Merge-walk outcome this round: matched a previous-round slot. */
  bool carried = false;
  /** alloc/window hold a staircase answer (never set for capped or
   * fallback-path plans). */
  bool alloc_valid = false;
  /** Clamped-slack interval the cached alloc is exact on. */
  double window_lo = 0.0;
  double window_hi = 0.0;
  /** Placement-preservation inputs (Stage 6 reads them), mirrored so
   * the plan memo can prove the request is byte-identical to the
   * round the cached plan was computed from. Refreshed every round. */
  GpuMask last_mask = 0;
  int last_degree = 0;
  AllocationPlan alloc;
};

/**
 * All cross-round replanning state owned by one TetriScheduler. The
 * slot arrays are double-buffered: `slots` holds the previous planned
 * round in schedulable order, `next_slots` is rebuilt each round by
 * the merge walk (carried slots are swapped over, so their heap
 * buffers migrate and a steady-state round allocates nothing).
 */
struct ReplanState {
  /** True once a round has been planned and state is reusable. */
  bool warm = false;
  double tau = -1.0;
  GpuMask free_gpus = 0;
  const void* topology = nullptr;
  /** Generations of the table/options the cached state was built
   * against (TetriScheduler bumps its own on Reconfigure). */
  std::uint64_t table_gen = 0;
  std::uint64_t options_gen = 0;

  /** Previous round's slots, schedulable order; live prefix num_slots. */
  std::vector<ReplanSlot> slots;
  int num_slots = 0;
  /** This round's slots being assembled (swapped into `slots` at the
   * end of Plan). */
  std::vector<ReplanSlot> next_slots;

  /** Previous round's Stage-2 groups (live prefix prev_num_groups) and
   * the capacity they were packed at, for the DP clean-prefix check. */
  std::vector<packers::PackGroup> prev_groups;
  int prev_num_groups = 0;
  int prev_capacity = -1;

  PlanDelta delta;
  ReplanStats stats;

  /** Planning instant of the last planned round, and the plan it
   * emitted. When a later round derives an empty delta at the same
   * instant with the same free set, topology, table, and options, the
   * whole pipeline is a deterministic function of byte-identical
   * inputs — the cached plan IS the answer, no recompute needed. */
  TimeUs now = 0;
  bool plan_cached = false;
  serving::RoundPlan cached_plan;

  /**
   * Size next_slots for @p num_entries fresh (non-carried) slots: the
   * full-replan layout. Resets the per-round delta.
   */
  void ResetSlots(int num_entries);
};

/**
 * Merge-walk this round's schedulable sequence against the cached
 * slots on the static key (deadline_us, id), both strictly ascending.
 * Carried slots are swapped into state->next_slots[i] with
 * carried=true; new positions get carried=false. Fills
 * state->delta.arrivals/removals. Returns false — with next_slots in
 * an unspecified but safe state — when the schedulable sequence is not
 * strictly increasing on the key, in which case the caller must fall
 * back to a full replan (ReplanReason::kOrderDrift).
 */
bool DeriveRoundDelta(const std::vector<serving::Request*>& schedulable,
                      ReplanState* state);

/** Byte-wise equality of two Stage-2 groups (id, idle survival, and
 * every option field; `work` compared exactly). The DP clean-prefix
 * rule: equal groups at equal positions and capacity leave the DP
 * value rows bitwise unchanged. */
inline bool
SamePackGroup(const packers::PackGroup& a, const packers::PackGroup& b)
{
  if (a.id != b.id || a.survives_if_idle != b.survives_if_idle ||
      a.options.size() != b.options.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.options.size(); ++i) {
    const packers::PackOption& x = a.options[i];
    const packers::PackOption& y = b.options[i];
    if (x.degree != y.degree || x.steps != y.steps ||
        x.survives != y.survives || x.work != y.work) {
      return false;
    }
  }
  return true;
}

}  // namespace tetri::core

#endif  // TETRI_CORE_PLAN_DELTA_H
