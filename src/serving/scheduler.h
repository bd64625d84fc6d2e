/**
 * @file
 * The scheduling interface every policy implements — TetriServe's
 * round-based DP scheduler as well as the xDiT-style fixed-SP and RSSP
 * baselines. A policy is invoked with a snapshot of schedulable
 * requests and free GPUs and returns a plan of assignments; the
 * execution engine carries the plan out in virtual time.
 */
#ifndef TETRI_SERVING_SCHEDULER_H
#define TETRI_SERVING_SCHEDULER_H

#include <string>
#include <vector>

#include "cluster/topology.h"
#include "costmodel/latency_table.h"
#include "serving/request.h"
#include "trace/sink.h"

namespace tetri::serving {

/**
 * One unit of dispatched work: run @p max_steps denoising steps for
 * each listed request on the GPU set @p mask. More than one request
 * means the steps execute as a continuous batch (§5). All members must
 * share a resolution, and max_steps must not exceed any member's
 * remaining step count.
 */
struct Assignment {
  std::vector<RequestId> requests;
  GpuMask mask = 0;
  int max_steps = 0;
};

/** The set of assignments produced by one scheduler invocation. */
struct RoundPlan {
  std::vector<Assignment> assignments;
};

/** How the serving loop invokes a policy. */
enum class SchedulingMode {
  /** Invoked at fixed round boundaries (TetriServe). */
  kRoundBased,
  /** Invoked on arrivals and completions (non-preemptive baselines). */
  kEventDriven,
};

/** Read-only snapshot handed to Scheduler::Plan. */
struct ScheduleContext {
  TimeUs now = 0;
  /** End of the current round (now + tau); far future in event mode. */
  TimeUs round_end = 0;
  /** GPUs not executing anything at @p now. */
  GpuMask free_gpus = 0;
  /** Arrived, non-running requests sorted by (deadline, id). */
  const std::vector<Request*>* schedulable = nullptr;
  const cluster::Topology* topology = nullptr;
  const costmodel::LatencyTable* table = nullptr;
};

/** Scheduling policy interface. */
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /** Display name used in bench output. */
  virtual std::string Name() const = 0;

  virtual SchedulingMode Mode() const = 0;

  /** Round length; only meaningful for kRoundBased policies. */
  virtual TimeUs RoundDurationUs() const { return 0; }

  /** Decide what to run now. Must only use GPUs in ctx.free_gpus. */
  virtual RoundPlan Plan(const ScheduleContext& ctx) = 0;

  /**
   * Plan() into @p out, which holds the caller's previous plan (or
   * nothing). A policy that can refill the previous plan's buffers in
   * place overrides this, so a serving loop that keeps one RoundPlan
   * for a whole run does not allocate a plan per round; the default
   * replaces @p out with Plan()'s answer.
   */
  virtual void PlanInto(const ScheduleContext& ctx, RoundPlan* out) {
    *out = Plan(ctx);
  }

  /**
   * Attach a decision-trace sink (nullable, not owned). Policies that
   * emit per-round decision events (see trace/sink.h) override this;
   * the default ignores it, so baselines stay trace-free. The serving
   * loop installs the run's sink before the first Plan() call and
   * clears it when the run ends.
   */
  virtual void set_trace(trace::TraceSink* sink) { (void)sink; }
};

}  // namespace tetri::serving

#endif  // TETRI_SERVING_SCHEDULER_H
