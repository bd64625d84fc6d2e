#include "core/tetri_scheduler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <type_traits>

#include "cluster/allocator.h"
#include "util/check.h"

namespace tetri::core {

using costmodel::Resolution;
using serving::Request;

namespace {

/** Marks an lb_memo cell not yet computed; real bounds are >= 0. */
constexpr double kLowerBoundUnset = -1.0;

}  // namespace

TetriScheduler::TetriScheduler(const costmodel::LatencyTable* table,
                               TetriOptions options)
    : table_(table),
      options_(options),
      round_us_(ComputeRoundDuration(*table, options.step_granularity))
{
  ApplyConfig();
}

void
TetriScheduler::ApplyConfig()
{
  TETRI_CHECK(table_ != nullptr);
  TETRI_CHECK(options_.step_granularity >= 1);
  TETRI_CHECK(options_.max_batch >= 1);
  round_us_ = ComputeRoundDuration(*table_, options_.step_granularity);
  // Every planner memo is keyed by (table, tau); poisoning the tau
  // guard forces a rebuild on the next round even if tau is unchanged,
  // which covers a table swap at equal round duration.
  scratch_.staircase_tau = -1.0;
}

void
TetriScheduler::Reconfigure(const costmodel::LatencyTable* table,
                            const TetriOptions& options)
{
  TETRI_CHECK(table != nullptr);
  table_ = table;
  options_ = options;
  ApplyConfig();
}

std::string
TetriScheduler::Name() const
{
  std::string name = "TetriServe";
  if (!options_.placement_preservation) name += "-NoPlace";
  if (!options_.elastic_scale_up) name += "-NoElastic";
  if (!options_.selective_batching) name += "-NoBatch";
  return name;
}

TimeUs
TetriScheduler::ComputeRoundDuration(const costmodel::LatencyTable& table,
                                     int step_granularity)
{
  // tau is anchored to the reference (1024px) resolution at its most
  // GPU-efficient degree so heterogeneous step lengths pack into a
  // round with few leftover bubbles (§4.2.2 "Round Duration").
  const Resolution ref = Resolution::k1024;
  const double ref_step =
      table.StepTimeUs(ref, table.MostEfficientDegree(ref));
  // Truncation predates the one-rounding-rule lint; switching to
  // RoundUs would move the tau grid and every plan golden with it.
  return static_cast<TimeUs>(step_granularity * ref_step);  // NOLINT(tetri-rounding)
}

serving::RoundPlan
TetriScheduler::Plan(const serving::ScheduleContext& ctx)
{
  serving::RoundPlan plan;
  PlanInto(ctx, &plan);
  return plan;
}

void
TetriScheduler::PlanInto(const serving::ScheduleContext& ctx,
                         serving::RoundPlan* out)
{
  for (serving::Assignment& a : out->assignments) {
    scratch_.request_buffers.push_back(std::move(a.requests));
  }
  out->assignments.clear();
  const double tau = static_cast<double>(ctx.round_end - ctx.now);
  const int capacity = cluster::Popcount(ctx.free_gpus);
  if (capacity == 0 || ctx.schedulable->empty()) return;

  // Decision trace (§trace): every emission site below is behind this
  // one pointer test, so an untraced Plan() pays nothing. The round
  // ordinal advances per planned round either way, keeping numbering
  // stable when a sink attaches mid-run.
  ++round_seq_;
  auto emit = [&](trace::TraceEvent ev) {
    ev.time_us = ctx.now;
    ev.round = round_seq_;
    trace_->OnEvent(ev);
  };
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kRoundBegin;
    ev.dur_us = ctx.round_end - ctx.now;
    ev.mask = ctx.free_gpus;
    ev.value = static_cast<double>(capacity);
    emit(ev);
  }

  const int num_entries = static_cast<int>(ctx.schedulable->size());

  // The memo caches below — staircases, late verdicts, degree info,
  // lower bounds and round cells — are pure functions of (table, tau),
  // so they persist across rounds. A tau change resets them here;
  // ApplyConfig poisons the tau guard, which covers a table swap at
  // equal tau.
  if (scratch_.staircase_tau != tau) {
    for (auto& per_res : scratch_.staircases) {
      for (PlanStaircase& s : per_res) s.built = false;
    }
    // Late cells point into staircase plans a rebuild may reallocate.
    for (auto& cells : scratch_.late_cells) cells.clear();
    scratch_.degree_info_ready.fill(false);
    for (auto& memo : scratch_.lb_memo) memo.clear();
    const std::vector<int>& degrees = table_->degrees();
    scratch_.cell_degrees = static_cast<int>(degrees.size());
    scratch_.cell_batches = table_->max_batch();
    scratch_.round_cells.clear();
    for (Resolution res : costmodel::kAllResolutions) {
      for (int di = 0; di < scratch_.cell_degrees; ++di) {
        TETRI_CHECK(degrees[di] == 1 << di);
        for (int bs = 1; bs <= scratch_.cell_batches; ++bs) {
          const double step = table_->StepTimeUs(res, degrees[di], bs);
          scratch_.round_cells.push_back(
              RoundCell{step, static_cast<int>(std::floor(tau / step))});
        }
      }
    }
    scratch_.staircase_tau = tau;
  }

  auto degree_info = [&](Resolution res)
      -> const std::vector<RoundDegreeInfo>& {
    const int ri = costmodel::ResolutionIndex(res);
    if (!scratch_.degree_info_ready[ri]) {
      BuildRoundDegreeInfo(*table_, res, tau, &scratch_.degree_info[ri]);
      scratch_.degree_info_ready[ri] = true;
    }
    return scratch_.degree_info[ri];
  };
  // Profiled step time of a (resolution, degree, batch) cell and the
  // whole steps it fits into one round, as one flat-table read. The
  // checks are those of LatencyTable::StepTimeUs: a profiled
  // power-of-two degree and a profiled batch.
  auto round_cell = [&](Resolution res, int degree,
                        int batch) -> const RoundCell& {
    TETRI_CHECK(degree >= 1 && std::has_single_bit(
                                   static_cast<unsigned>(degree)));
    const int di = std::countr_zero(static_cast<unsigned>(degree));
    TETRI_CHECK(di < scratch_.cell_degrees);
    TETRI_CHECK(batch >= 1 && batch <= scratch_.cell_batches);
    const std::size_t idx =
        (static_cast<std::size_t>(costmodel::ResolutionIndex(res)) *
             scratch_.cell_degrees +
         di) *
            scratch_.cell_batches +
        (batch - 1);
    TETRI_CHECK(idx < scratch_.round_cells.size());
    return scratch_.round_cells[idx];
  };
  // Stage-1 planner answers via the staircase: candidates are
  // enumerated once per (resolution, remaining steps) and each
  // feasibility breakpoint is scanned once, for as long as tau is
  // stable; every later request with the same key is a binary search
  // that returns the plan in place. Building a staircase also records
  // its late verdict.
  static_assert(std::is_nothrow_move_constructible_v<PlanStaircase>,
                "entries point into staircase plans across memo growth");
  auto stage1_plan = [&](Resolution res, int rem,
                         double slack_us) -> const AllocationPlan& {
    const int ri = costmodel::ResolutionIndex(res);
    auto& per_res = scratch_.staircases[ri];
    if (static_cast<int>(per_res.size()) <= rem) {
      per_res.resize(rem + 1);
    }
    PlanStaircase& s = per_res[rem];
    const std::vector<RoundDegreeInfo>& info = degree_info(res);
    if (!s.built) {
      BuildPlanStaircase(info, rem, tau, &s);
      auto& late = scratch_.late_cells[ri];
      if (static_cast<int>(late.size()) <= rem) late.resize(rem + 1);
      late[rem] = LateCell{s.thresholds.front(), &s.plans.front()};
    }
    return ResolveRoundPlan(&s, info, slack_us);
  };
  auto lower_bound = [&](Resolution res, int steps) {
    if (steps <= 0) return 0.0;
    const int ri = costmodel::ResolutionIndex(res);
    auto& memo = scratch_.lb_memo[ri];
    if (static_cast<int>(memo.size()) <= steps) {
      memo.resize(steps + 1, kLowerBoundUnset);
    }
    if (memo[steps] == kLowerBoundUnset) {
      memo[steps] = RoundAwareLowerBoundUs(degree_info(res), steps, tau);
    }
    return memo[steps];
  };

  // ---- Stage 1: deadline-aware GPU allocation (§4.2.1) ----
  if (static_cast<int>(scratch_.entries.size()) < num_entries) {
    scratch_.entries.resize(num_entries);
  }
  std::array<double, costmodel::kNumResolutions> vae_us;
  for (Resolution res : costmodel::kAllResolutions) {
    vae_us[costmodel::ResolutionIndex(res)] = table_->VaeDecodeUs(res);
  }
  scratch_.live.clear();
  for (int ei = 0; ei < num_entries; ++ei) {
    Entry& entry = scratch_.entries[ei];
    Request* req = (*ctx.schedulable)[ei];
    const Resolution res = req->meta.resolution;
    const int ri = costmodel::ResolutionIndex(res);
    entry.request = req;
    entry.chosen_degree = 0;
    entry.chosen_steps = 0;
    // Effective deadline: VAE decode is sequential after the last
    // step, and a small margin absorbs jitter plus re-sharding stalls
    // the cost model excludes from deadline accounting (§5).
    const double budget =
        static_cast<double>(req->meta.deadline_us - req->meta.arrival_us);
    entry.deadline_eff_us = static_cast<double>(req->meta.deadline_us) -
                            vae_us[ri] -
                            options_.deadline_margin_frac * budget;
    entry.slack_us = entry.deadline_eff_us - static_cast<double>(ctx.now);
    const int rem = req->RemainingSteps();
    TETRI_CHECK(rem > 0);
    const double slack_c = std::max(entry.slack_us, 0.0);
    if (req->degree_cap > 0) {
      // Degraded-SP failure retry: plan against the capped degree set
      // only. The shared cache and staircase are keyed by
      // (resolution, steps) and cannot express a per-request cap, so
      // the direct planner runs over freshly filtered info; uncapped
      // requests are untouched.
      BuildRoundDegreeInfo(*table_, res, tau, &scratch_.capped_info);
      std::erase_if(scratch_.capped_info,
                    [cap = req->degree_cap](const RoundDegreeInfo& d) {
                      return d.degree > cap;
                    });
      RoundAwarePlanInto(scratch_.capped_info, rem, slack_c, tau,
                         &entry.owned);
      entry.alloc = &entry.owned;
    } else if (options_.use_continuous_planner) {
      entry.owned = FindPlan(*table_, res, rem, slack_c);
      entry.alloc = &entry.owned;
    } else {
      // Late verdict: ResolveRoundPlan returns the fallback plans[0]
      // exactly when the slack is below the staircase's lowest
      // breakpoint, so one compare against that breakpoint answers a
      // definitely-late request without the lookup.
      const std::vector<LateCell>& late = scratch_.late_cells[ri];
      if (rem < static_cast<int>(late.size()) &&
          slack_c < late[rem].min_slack_us) {
        entry.alloc = late[rem].fallback;
      } else {
        entry.alloc = &stage1_plan(res, rem, slack_c);
      }
    }
    entry.late = !entry.alloc->feasible;
    if (!entry.late) scratch_.live.push_back(ei);
    if (trace_ != nullptr) {
      if (req->degree_cap > 0) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kDegrade;
        ev.reason = trace::TraceReason::kDegreeCap;
        ev.request = req->meta.id;
        ev.degree = req->degree_cap;
        ev.value = entry.slack_us;
        emit(ev);
      }
      for (const AllocationSegment& seg : entry.alloc->segments) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kPlanCandidate;
        ev.request = req->meta.id;
        ev.degree = seg.degree;
        ev.steps = seg.steps;
        ev.value = entry.slack_us;
        emit(ev);
      }
    }
  }

  // ---- Stage 1.5: EDF overload control ----
  // The survival bound is per-request optimistic: two requests can
  // each look salvageable while their joint GPU-work provably exceeds
  // the capacity available before their deadlines. Scan in deadline
  // order; whenever the cumulative minimal GPU-work of a prefix
  // overruns capacity * horizon, demote the largest-work member of
  // the prefix to the best-effort lane so the rest can actually make
  // their deadlines.
  {
    scratch_.edf.clear();
    for (int ei : scratch_.live) {
      scratch_.edf.push_back(&scratch_.entries[ei]);
    }
    // The scan needs *effective*-deadline order. Arrival/raw-deadline
    // order (the schedulable order) is not that: VAE decode time and
    // the margin fraction are resolution- and budget-dependent, so a
    // large-resolution request can come earlier effectively while
    // later nominally. Sort explicitly; ties break on request id to
    // keep planning deterministic.
    std::sort(scratch_.edf.begin(), scratch_.edf.end(),
              [](const Entry* a, const Entry* b) {
                if (a->slack_us != b->slack_us) {
                  return a->slack_us < b->slack_us;
                }
                return a->request->meta.id < b->request->meta.id;
              });
    scratch_.admitted.clear();
    double work_us = 0.0;  // GPU-us of admitted prefix
    for (Entry* entry : scratch_.edf) {
      scratch_.admitted.push_back(entry);
      work_us += entry->alloc->gpu_time_us;
      const double horizon = entry->slack_us;
      while (work_us >
                 capacity * horizon * options_.overload_utilization &&
             !scratch_.admitted.empty()) {
        auto victim = std::max_element(
            scratch_.admitted.begin(), scratch_.admitted.end(),
            [](const Entry* a, const Entry* b) {
              return a->alloc->gpu_time_us < b->alloc->gpu_time_us;
            });
        if (trace_ != nullptr) {
          trace::TraceEvent ev;
          ev.kind = trace::TraceEventKind::kShed;
          ev.reason = trace::TraceReason::kDeadlineInfeasible;
          ev.request = (*victim)->request->meta.id;
          ev.value = (*victim)->slack_us;
          emit(ev);
        }
        (*victim)->late = true;
        work_us -= (*victim)->alloc->gpu_time_us;
        scratch_.admitted.erase(victim);
      }
    }
  }

  // ---- Stage 2: round packing DP (Algorithm 1) ----
  scratch_.group_entry.clear();
  int num_groups = 0;
  for (int ei : scratch_.live) {
    Entry& entry = scratch_.entries[ei];
    if (entry.late) continue;  // demoted by Stage 1.5
    const Request& req = *entry.request;
    const Resolution res = req.meta.resolution;
    const int rem = req.RemainingSteps();
    const double deadline_eff = entry.deadline_eff_us;
    const double next_round = static_cast<double>(ctx.round_end);

    if (static_cast<int>(scratch_.groups.size()) <= num_groups) {
      scratch_.groups.emplace_back();
    }
    packers::PackGroup& group = scratch_.groups[num_groups];
    group.options.clear();
    group.id = req.meta.id;
    const double lb_rem = lower_bound(res, rem);
    group.survives_if_idle = next_round + lb_rem <= deadline_eff;

    // Laxity: rounds this request can afford to idle before the
    // survival bound trips. The tie-break weight decays with laxity
    // (least-laxity-first), so under contention the requests closest
    // to becoming definitely late receive GPUs first, while relaxed
    // ones defer to the work-conserving elastic stage.
    const double laxity_us = deadline_eff - next_round - lb_rem;
    const double laxity_rounds =
        std::max(0.0, std::floor(laxity_us / tau));
    const double weight = 1.0 / (1.0 + laxity_rounds);
    const double t_min = lb_rem / rem;  // per-step progress value

    for (const AllocationSegment& seg : entry.alloc->segments) {
      // The plan is recomputed from scratch every round, so an option
      // may run more steps at its degree than the segment nominally
      // holds; only the remaining step count caps it.
      const int q =
          std::min(rem, round_cell(res, seg.degree, 1).steps_per_round);
      if (q <= 0) continue;  // discard q == 0 options (Algorithm 1)
      packers::PackOption opt;
      opt.degree = seg.degree;
      opt.steps = q;
      opt.survives = next_round + lower_bound(res, rem - q) <= deadline_eff;
      // Progress measured in residual-lower-bound reduction (q steps,
      // each worth T_min), urgency-weighted.
      opt.work = weight * static_cast<double>(q) * t_min;
      group.options.push_back(opt);
    }
    ++num_groups;
    scratch_.group_entry.push_back(ei);
  }

  // Working assignments before placement, in reusable slots.
  int num_pendings = 0;
  int used_gpus = 0;  // running sum of pending degrees
  auto append_pending = [&](Entry* member, int degree, int steps,
                            bool best_effort) {
    if (static_cast<int>(scratch_.pendings.size()) <= num_pendings) {
      scratch_.pendings.emplace_back();
    }
    Pending& p = scratch_.pendings[num_pendings++];
    p.members.clear();
    p.members.push_back(member);
    p.degree = degree;
    p.steps = steps;
    p.base_degree = degree;
    p.base_steps = steps;
    p.best_effort = best_effort;
    used_gpus += degree;
  };

  packers::PackRoundInto(scratch_.groups.data(), num_groups, capacity,
                         &scratch_.pack, &scratch_.packed);
  const packers::PackResult& packed = scratch_.packed;
  for (int gi = 0; gi < num_groups; ++gi) {
    if (packed.choice[gi] < 0) continue;
    const packers::PackOption& opt =
        scratch_.groups[gi].options[packed.choice[gi]];
    Entry& entry = scratch_.entries[scratch_.group_entry[gi]];
    entry.chosen_degree = opt.degree;
    entry.chosen_steps = opt.steps;
    append_pending(&entry, opt.degree, opt.steps, /*best_effort=*/false);
    if (trace_ != nullptr) {
      trace::TraceEvent ev;
      ev.kind = trace::TraceEventKind::kPlanChoice;
      ev.reason = trace::TraceReason::kPacked;
      ev.request = entry.request->meta.id;
      ev.degree = opt.degree;
      ev.steps = opt.steps;
      ev.batch = 1;
      ev.value = entry.slack_us;
      emit(ev);
    }
  }

  // ---- Stage 4: best-effort lane for definitely-late requests ----
  for (int ei = 0; ei < num_entries; ++ei) {
    Entry& entry = scratch_.entries[ei];
    if (!entry.late) continue;
    if (used_gpus >= capacity) break;
    const Resolution res = entry.request->meta.resolution;
    const int rem = entry.request->RemainingSteps();
    const int steps =
        std::clamp(round_cell(res, 1, 1).steps_per_round, 1, rem);
    append_pending(&entry, 1, steps, /*best_effort=*/true);
    entry.chosen_degree = 1;
    entry.chosen_steps = steps;
    if (trace_ != nullptr) {
      trace::TraceEvent ev;
      ev.kind = trace::TraceEventKind::kPlanChoice;
      ev.reason = trace::TraceReason::kBestEffort;
      ev.request = entry.request->meta.id;
      ev.degree = 1;
      ev.steps = steps;
      ev.batch = 1;
      ev.value = entry.slack_us;
      emit(ev);
    }
  }

  // ---- Stage 5a/5b: work-conserving admission + selective
  // continuous batching (§4.2.3, §5) ----
  // Unselected requests are admitted onto idle GPUs at their
  // cheapest plan degree. When no GPUs are left, a small-resolution
  // request may instead JOIN an already-selected assignment of the
  // same resolution as a continuous-batch guest: it gains a round of
  // progress it would otherwise not get, and the merge is admitted
  // only if every member still meets its deadline at the slower
  // batched pace (the paper's "only if SLOs are not compromised"
  // test).
  auto try_batch_join = [&](Entry& entry) {
    if (!options_.selective_batching) return false;
    const Request* guest = entry.request;
    const Resolution res = guest->meta.resolution;
    if (costmodel::ResolutionIndex(res) >
        costmodel::ResolutionIndex(options_.batch_max_resolution)) {
      return false;
    }
    for (int pi = 0; pi < num_pendings; ++pi) {
      Pending& host = scratch_.pendings[pi];
      if (host.members.front()->request->meta.resolution != res) continue;
      if (guest->degree_cap > 0 && host.degree > guest->degree_cap) {
        continue;  // degraded retry may not ride a wider group
      }
      const int new_bs = static_cast<int>(host.members.size() + 1);
      if (new_bs > std::min(options_.max_batch, table_->max_batch())) {
        continue;
      }
      const RoundCell& batched = round_cell(res, host.degree, new_bs);
      const double t_batched = batched.step_us;
      const int q_round = batched.steps_per_round;
      int q = q_round;
      for (const Entry* member : host.members) {
        q = std::min(q, member->request->RemainingSteps());
      }
      q = std::min(q, guest->RemainingSteps());
      // A nearly-finished member would cap the batch below a full
      // round of work, idling the group; skip such merges.
      if (q < std::max(1, q_round)) continue;
      auto safe = [&](const Entry& member) {
        // Pace headroom so jitter and round quantization do not push
        // batch members over their deadlines.
        return member.request->RemainingSteps() * t_batched <=
               0.8 * member.slack_us;
      };
      bool all_safe = safe(entry);
      for (const Entry* member : host.members) {
        if (!safe(*member)) all_safe = false;
      }
      if (!all_safe) continue;
      host.members.push_back(&entry);
      host.steps = q;
      entry.chosen_degree = host.degree;
      entry.chosen_steps = q;
      if (trace_ != nullptr) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kPlanChoice;
        ev.reason = trace::TraceReason::kBatchJoin;
        ev.request = guest->meta.id;
        ev.degree = host.degree;
        ev.steps = q;
        ev.batch = new_bs;
        ev.value = entry.slack_us;
        emit(ev);
      }
      return true;
    }
    return false;
  };

  if (options_.elastic_scale_up || options_.selective_batching) {
    for (int gi = 0; gi < num_groups; ++gi) {
      Entry& entry = scratch_.entries[scratch_.group_entry[gi]];
      if (entry.chosen_degree != 0) continue;
      const Resolution res = entry.request->meta.resolution;
      const int rem = entry.request->RemainingSteps();
      const int free = capacity - used_gpus;
      // Cheapest plan degree that fits; spill one step if the round
      // is shorter than even one step (tiny-granularity guard).
      bool admitted = false;
      if (options_.elastic_scale_up && free > 0) {
        for (const AllocationSegment& seg : entry.alloc->segments) {
          if (seg.degree > free) continue;
          const int q =
              std::clamp(round_cell(res, seg.degree, 1).steps_per_round,
                         1, std::min(seg.steps, rem));
          append_pending(&entry, seg.degree, q, /*best_effort=*/false);
          entry.chosen_degree = seg.degree;
          entry.chosen_steps = q;
          admitted = true;
          if (trace_ != nullptr) {
            trace::TraceEvent ev;
            ev.kind = trace::TraceEventKind::kPlanChoice;
            ev.reason = trace::TraceReason::kElastic;
            ev.request = entry.request->meta.id;
            ev.degree = seg.degree;
            ev.steps = q;
            ev.batch = 1;
            ev.value = entry.slack_us;
            emit(ev);
          }
          break;
        }
      }
      if (!admitted) try_batch_join(entry);
    }
  }

  if (options_.elastic_scale_up) {
    // ---- Stage 5c: elastic scale-up of running assignments ----
    while (true) {
      const int free = capacity - used_gpus;
      if (free <= 0) break;
      Pending* best = nullptr;
      double best_benefit = 0.0;
      int best_new_steps = 0;
      for (int pi = 0; pi < num_pendings; ++pi) {
        Pending& p = scratch_.pendings[pi];
        const int next_degree = p.degree * 2;
        int degree_limit = table_->max_degree();
        for (const Entry* member : p.members) {
          if (member->request->degree_cap > 0) {
            degree_limit =
                std::min(degree_limit, member->request->degree_cap);
          }
        }
        if (next_degree > degree_limit) continue;
        if (p.degree > free) continue;  // needs p.degree extra GPUs
        const Resolution res = p.members.front()->request->meta.resolution;
        const int bs = static_cast<int>(p.members.size());
        const double t_old = round_cell(res, p.degree, bs).step_us;
        const RoundCell& scaled = round_cell(res, next_degree, bs);
        const double t_new = scaled.step_us;
        if (t_new >= t_old) continue;  // must actually benefit
        int q = scaled.steps_per_round;
        for (const Entry* member : p.members) {
          q = std::min(q, member->request->RemainingSteps());
        }
        q = std::max(q, 1);
        const double benefit = (t_old - t_new) * q;
        if (benefit > best_benefit) {
          best_benefit = benefit;
          best = &p;
          best_new_steps = q;
        }
      }
      if (best == nullptr) break;
      used_gpus += best->degree;
      best->degree *= 2;
      best->steps = best_new_steps;
      if (trace_ != nullptr) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kPlanChoice;
        ev.reason = trace::TraceReason::kScaleUp;
        ev.request = best->members.front()->request->meta.id;
        ev.degree = best->degree;
        ev.steps = best->steps;
        ev.batch = static_cast<std::int32_t>(best->members.size());
        emit(ev);
      }
    }
  }

  // Audit Stage 4/5's running GPU counter against a recount of the
  // pendings it summarizes (pendings <= GPUs, so this is cheap).
  {
    int recount = 0;
    for (int pi = 0; pi < num_pendings; ++pi) {
      recount += scratch_.pendings[pi].degree;
    }
    TETRI_CHECK(recount == used_gpus && used_gpus <= capacity);
  }

  // ---- Stage 6: placement with preservation (§4.2.3) ----
  cluster::GpuAllocator allocator(ctx.topology);
  allocator.SetFree(ctx.free_gpus);
  scratch_.masks.assign(num_pendings, 0);
  if (options_.placement_preservation) {
    for (int pi = 0; pi < num_pendings; ++pi) {
      const Pending& p = scratch_.pendings[pi];
      const Request& lead = *p.members.front()->request;
      if (p.members.size() == 1 && lead.last_degree == p.degree &&
          lead.last_mask != 0 &&
          allocator.TryAllocateExact(lead.last_mask)) {
        scratch_.masks[pi] = lead.last_mask;
      }
    }
  }
  // Largest groups first to keep blocks aligned.
  scratch_.order.clear();
  for (int pi = 0; pi < num_pendings; ++pi) {
    if (scratch_.masks[pi] == 0) {
      scratch_.order.push_back(static_cast<std::size_t>(pi));
    }
  }
  std::sort(scratch_.order.begin(), scratch_.order.end(),
            [&](std::size_t a, std::size_t b) {
              return scratch_.pendings[a].degree >
                     scratch_.pendings[b].degree;
            });
  for (std::size_t pi : scratch_.order) {
    Pending& p = scratch_.pendings[pi];
    const Request& lead = *p.members.front()->request;
    const GpuMask prefer =
        options_.placement_preservation ? lead.last_mask : 0;
    std::optional<GpuMask> mask = allocator.Allocate(p.degree, prefer);
    // Stages 4/5 size degrees against the free-GPU *count*; the
    // allocator places against the free *set*. If a degree that fit
    // by count cannot be placed (fragmentation, or a preservation
    // grab that split the free set), degrade gracefully instead of
    // aborting the round: roll elastic scale-ups back one doubling at
    // a time toward the pending's packed base, and as a last resort
    // drop it — the request stays queued and replans next round.
    const Resolution res = lead.meta.resolution;
    const int bs = static_cast<int>(p.members.size());
    while (!mask.has_value() && p.degree > p.base_degree) {
      p.degree /= 2;
      if (p.degree == p.base_degree) {
        p.steps = p.base_steps;
      } else {
        // Intermediate rollback degree: recompute the round's step
        // budget the way Stage 5c would have at this degree.
        int q = round_cell(res, p.degree, bs).steps_per_round;
        for (const Entry* member : p.members) {
          q = std::min(q, member->request->RemainingSteps());
        }
        p.steps = std::max(q, 1);
      }
      if (trace_ != nullptr) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kPlanChoice;
        ev.reason = trace::TraceReason::kRollback;
        ev.request = lead.meta.id;
        ev.degree = p.degree;
        ev.steps = p.steps;
        ev.batch = static_cast<std::int32_t>(p.members.size());
        emit(ev);
      }
      mask = allocator.Allocate(p.degree, prefer);
    }
    if (!mask.has_value()) {
      if (trace_ != nullptr) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kShed;
        ev.reason = trace::TraceReason::kFragmented;
        ev.request = lead.meta.id;
        ev.degree = p.degree;
        ev.batch = static_cast<std::int32_t>(p.members.size());
        emit(ev);
      }
      continue;  // dropped: masks[pi] stays 0 and Emit skips it
    }
    scratch_.masks[pi] = *mask;
  }

  // ---- Emit ----
  std::vector<serving::Assignment>& assignments = out->assignments;
  assignments.reserve(num_pendings);
  for (int pi = 0; pi < num_pendings; ++pi) {
    if (scratch_.masks[pi] == 0) continue;
    const Pending& p = scratch_.pendings[pi];
    serving::Assignment& assignment = assignments.emplace_back();
    if (!scratch_.request_buffers.empty()) {
      assignment.requests = std::move(scratch_.request_buffers.back());
      scratch_.request_buffers.pop_back();
      assignment.requests.clear();
    }
    assignment.requests.reserve(std::max(
        p.members.size(), static_cast<std::size_t>(options_.max_batch)));
    for (const Entry* member : p.members) {
      assignment.requests.push_back(member->request->meta.id);
    }
    assignment.mask = scratch_.masks[pi];
    assignment.max_steps = p.steps;
  }
  if (trace_ != nullptr) {
    GpuMask placed = 0;
    for (const serving::Assignment& a : assignments) {
      placed |= a.mask;
    }
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kRoundEnd;
    ev.mask = placed;
    ev.steps = static_cast<std::int32_t>(assignments.size());
    ev.value = static_cast<double>(cluster::Popcount(placed)) /
               static_cast<double>(capacity);
    emit(ev);
  }
}

}  // namespace tetri::core
