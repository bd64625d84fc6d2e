/**
 * @file
 * TetriServe's deadline-aware round-based scheduler (§4) — the paper's
 * primary contribution. Each round it:
 *
 *  1. runs deadline-aware GPU allocation (allocation.h) to get each
 *     pending request's minimal-GPU-hour candidate allocations;
 *  2. packs requests with the group-knapsack DP (packers/dp_packer.h,
 *     Algorithm 1), maximizing the number of requests that are not
 *     definitely late at the next round start;
 *  3. merges small same-resolution selections via selective
 *     continuous batching (§5);
 *  4. gives already-late requests one best-effort GPU;
 *  5. work-conservingly admits unselected requests and elastically
 *     scales selected ones onto idle GPUs (§4.2.3);
 *  6. places assignments with GPU placement preservation (§4.2.3).
 *
 * Every mechanism is individually switchable for the Table 5 ablation.
 */
#ifndef TETRI_CORE_TETRI_SCHEDULER_H
#define TETRI_CORE_TETRI_SCHEDULER_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/allocation.h"
#include "packers/dp_packer.h"
#include "serving/scheduler.h"

namespace tetri::core {

/** Feature switches and tuning knobs. */
struct TetriOptions {
  /** Denoising steps per round at the reference resolution (§6.4). */
  int step_granularity = 5;
  /** Keep requests on their previous GPU set when possible. */
  bool placement_preservation = true;
  /** Use idle GPUs for extra admissions and scale-ups. */
  bool elastic_scale_up = true;
  /** Merge small same-resolution steps into batches. */
  bool selective_batching = true;
  /** Largest continuous batch formed. */
  int max_batch = 4;
  /** Only resolutions up to this are batched (small inputs only). */
  costmodel::Resolution batch_max_resolution =
      costmodel::Resolution::k512;
  /**
   * Fraction of each request's SLO budget reserved as slop for
   * execution jitter and re-sharding stalls when planning.
   */
  double deadline_margin_frac = 0.015;
  /**
   * Fraction of raw GPU capacity assumed reachable by packing when
   * testing EDF prefix feasibility (overload control). Below 1.0 to
   * account for packing fragmentation and round quantization.
   */
  double overload_utilization = 0.95;
  /**
   * Ablation knob: plan with the continuous-time cost model
   * (FindPlan) instead of round-aware costing (RoundAwarePlanInto).
   * The continuous model misprices end-of-round idle bubbles and
   * orphan segments; bench_ablation_alloc quantifies the damage.
   */
  bool use_continuous_planner = false;
};

/** The TetriServe policy. */
class TetriScheduler : public serving::Scheduler {
 public:
  /**
   * @param table profiled step-latency table the policy plans with.
   * @param options feature switches (defaults reproduce the paper).
   */
  explicit TetriScheduler(const costmodel::LatencyTable* table,
                          TetriOptions options = TetriOptions{});

  std::string Name() const override;
  serving::SchedulingMode Mode() const override {
    return serving::SchedulingMode::kRoundBased;
  }
  TimeUs RoundDurationUs() const override { return round_us_; }

  serving::RoundPlan Plan(const serving::ScheduleContext& ctx) override;

  /**
   * The planner. Refills @p out in place: its `assignments` vector and
   * the previous round's `requests` buffers are reused (the latter
   * through a pool, since the assignment count changes from round to
   * round), so a warm call into the caller's previous plan allocates
   * nothing.
   */
  void PlanInto(const serving::ScheduleContext& ctx,
                serving::RoundPlan* out) override;

  /**
   * Attach the decision-trace sink (§trace): every Plan() then emits
   * the round span, per-request allocation candidates, stage-tagged
   * plan choices, overload sheds, and degrade events. All emission is
   * behind one pointer test, off the hot path when unset, and purely
   * observational — plans are bit-identical with tracing on or off.
   */
  void set_trace(trace::TraceSink* sink) override { trace_ = sink; }

  /** Rounds planned so far (the `round` field of emitted events). */
  std::int32_t rounds_planned() const { return round_seq_ + 1; }

  const TetriOptions& options() const { return options_; }

  /**
   * Swap the latency table and/or planning options mid-run. Re-derives
   * the round duration and rebinds every table-keyed cache. The same
   * validation as construction applies.
   */
  void Reconfigure(const costmodel::LatencyTable* table,
                   const TetriOptions& options);
  /** Reconfigure keeping the current options. */
  void set_table(const costmodel::LatencyTable* table) {
    Reconfigure(table, options_);
  }
  /** Reconfigure keeping the current table. */
  void set_options(const TetriOptions& options) {
    Reconfigure(table_, options);
  }

  /**
   * Round duration rule (§4.2.2): granularity x the step time of the
   * reference resolution (1024px) at its most GPU-efficient degree.
   */
  static TimeUs ComputeRoundDuration(const costmodel::LatencyTable& table,
                                     int step_granularity);

 private:
  /** Working entry for one schedulable request within Plan. */
  struct Entry {
    serving::Request* request = nullptr;
    /** Stage-1 answer, read in place: a staircase plan, or `owned`. */
    const AllocationPlan* alloc = nullptr;
    /**
     * Stage-1 answer of a degree-capped retry or the continuous
     * planner, which no staircase holds; its segment buffer is reused
     * across rounds.
     */
    AllocationPlan owned;
    double deadline_eff_us = 0.0;  // effective deadline, once per round
    double slack_us = 0.0;         // deadline_eff_us - now
    bool late = false;       // definitely late already
    int chosen_degree = 0;   // 0 = not selected
    int chosen_steps = 0;
  };

  /** Working assignment before placement. */
  struct Pending {
    std::vector<Entry*> members;
    int degree = 0;
    int steps = 0;
    /**
     * Degree and step count when the pending was created — the floor
     * Stage-6 placement rolls elastic scale-ups back to when a
     * fragmented free set cannot place the scaled degree.
     */
    int base_degree = 0;
    int base_steps = 0;
    /** Stage-4 lane member: droppable when placement cannot fit it. */
    bool best_effort = false;
  };

  /** One (resolution, degree, batch) cell of the round-cell table. */
  struct RoundCell {
    double step_us = 0.0;     // profiled mean step time
    int steps_per_round = 0;  // floor(tau / step_us)
  };

  /**
   * Stage-1 late verdict of one (resolution, remaining steps) key: its
   * staircase's lowest breakpoint and definitely-late fallback. A key
   * whose staircase is not built yet holds -inf, which no clamped
   * slack is below, so its lookup falls through and builds it.
   */
  struct LateCell {
    double min_slack_us = -std::numeric_limits<double>::infinity();
    const AllocationPlan* fallback = nullptr;  // &staircase.plans[0]
  };

  /**
   * Reusable planning arena (§4.2.2 "cheap enough to rerun every
   * round" made literal): entry/group/pending buffers, the (table,
   * tau)-keyed memos and the Stage-2 DP arena. Buffers only grow;
   * once the queue-depth high-water mark is reached, a Plan() call
   * performs no heap allocation beyond the emitted RoundPlan itself,
   * and a PlanInto() call into the previous round's plan none at all.
   */
  struct PlanScratch {
    std::vector<Entry> entries;
    // Entries Stage 1 did not find definitely late, in schedulable
    // order: the only ones Stages 1.5 and 2 visit.
    std::vector<int> live;
    std::vector<packers::PackGroup> groups;  // active prefix: num_groups
    std::vector<int> group_entry;   // group index -> entry index
    std::vector<Pending> pendings;  // active prefix: num_pendings
    std::vector<Entry*> edf;
    std::vector<Entry*> admitted;
    std::vector<std::size_t> order;
    std::vector<GpuMask> masks;
    std::array<std::vector<RoundDegreeInfo>,
               costmodel::kNumResolutions>
        degree_info;
    std::array<bool, costmodel::kNumResolutions> degree_info_ready{};
    // Memo of RoundAwareLowerBoundUs(res, steps), negative where not
    // yet computed: Stage 2 evaluates the bound for every
    // (option, residual) pair and the same residuals recur across
    // requests and rounds.
    std::array<std::vector<double>, costmodel::kNumResolutions> lb_memo;
    // Stage-1 planner staircases, indexed [resolution][remaining
    // steps]. A staircase depends only on (table, tau, res, steps), so
    // it persists across rounds while tau is stable — the common case,
    // since the engine drives fixed-length rounds — turning the
    // planner's O(degrees^2 * steps) candidate scan per request into a
    // binary search. Breakpoints resolve on first lookup and entries
    // point at the resolved plans, which live in each staircase's heap
    // storage and so survive growth of these vectors. staircase_tau
    // guards this and every other tau-keyed memo against callers that
    // change the round window between Plan() calls.
    std::array<std::vector<PlanStaircase>, costmodel::kNumResolutions>
        staircases;
    // Late verdicts, [resolution][remaining steps], filled as each
    // staircase is built: a definitely-late request costs one compare.
    std::array<std::vector<LateCell>, costmodel::kNumResolutions>
        late_cells;
    double staircase_tau = -1.0;
    // Round-cell table, [resolution][log2 degree][batch - 1] over the
    // table's degrees and batches, filled whenever tau or the table
    // changes.
    std::vector<RoundCell> round_cells;
    int cell_degrees = 0;
    int cell_batches = 0;
    // Degree info filtered to a request's degree_cap (degraded-SP
    // failure retries). Per-request, so it cannot share the
    // per-resolution cache or the staircase; rebuilt on demand for the
    // rare capped request.
    std::vector<RoundDegreeInfo> capped_info;
    packers::PackScratch pack;
    packers::PackResult packed;
    // Request-id buffers recycled from the plan PlanInto refills; each
    // holds at least max_batch ids, enough for any assignment.
    std::vector<std::vector<RequestId>> request_buffers;
  };

  /** Shared construction/Reconfigure validation and cache rebinding. */
  void ApplyConfig();

  const costmodel::LatencyTable* table_;
  TetriOptions options_;
  TimeUs round_us_;
  PlanScratch scratch_;
  trace::TraceSink* trace_ = nullptr;
  /** Ordinal of the round being planned; -1 before the first. */
  std::int32_t round_seq_ = -1;
};

}  // namespace tetri::core

#endif  // TETRI_CORE_TETRI_SCHEDULER_H
