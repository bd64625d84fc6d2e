/**
 * @file
 * The end-to-end serving loop: wires the simulator, request tracker,
 * execution engine, latent manager, and a pluggable scheduling policy,
 * then replays a workload trace to completion and reports per-request
 * outcomes plus system-level accounting. This is the harness every
 * experiment in EXPERIMENTS.md runs through.
 *
 * Construction profiles the latency table offline (§4.2.1); schedulers
 * are built against that table and passed to Run(), so one system can
 * evaluate many policies on identical profiled costs.
 */
#ifndef TETRI_SERVING_SYSTEM_H
#define TETRI_SERVING_SYSTEM_H

#include <functional>
#include <memory>
#include <string>

#include "costmodel/latency_table.h"
#include "metrics/metrics.h"
#include "serving/scheduler.h"
#include "serving/timeline.h"
#include "trace/sink.h"
#include "workload/trace.h"

namespace tetri::audit {
class Auditor;
}  // namespace tetri::audit

namespace tetri::sim {
class Simulator;
}  // namespace tetri::sim

namespace tetri::serving {

class ExecutionEngine;
class RequestTracker;
class LatentManager;

/**
 * Live components of one Run(), handed to ServingConfig::on_run_setup
 * so an external subsystem (tetri::chaos) can schedule fault events
 * against the same simulator, engine, and tracker without the serving
 * layer depending on it. Pointers are valid only for the duration of
 * that run.
 */
struct RunContext {
  sim::Simulator* simulator = nullptr;
  ExecutionEngine* engine = nullptr;
  RequestTracker* tracker = nullptr;
  LatentManager* latents = nullptr;
  const workload::Trace* trace = nullptr;
  const cluster::Topology* topology = nullptr;
  const costmodel::LatencyTable* table = nullptr;
  /** The run's observer (trace sink, auditor, or both); null when
   * neither is set. Chaos emits its degrade/drop decision events
   * here. */
  trace::TraceSink* trace_sink = nullptr;
  /** Serving-loop drop policy, for deadline-aware retry decisions. */
  double drop_timeout_factor = 10.0;
};

/** Run-level knobs independent of the scheduling policy. */
struct ServingConfig {
  /**
   * A queued request is abandoned once its latency would exceed this
   * multiple of its SLO budget (keeps overloaded baselines bounded;
   * dropped requests are excluded from latency CDFs as in Fig. 9).
   */
  double drop_timeout_factor = 10.0;
  /** Jitter / profiling seed. */
  std::uint64_t seed = 7;
  /** Samples per cell when profiling the latency table. */
  int profile_samples = 20;
  /** Largest batch profiled and allowed. */
  int max_batch = 8;
  /** Record the full execution timeline (Gantt data) in the result. */
  bool record_timeline = false;
  /**
   * External auditor (nullable, not owned): a trace sink whose
   * checkers read the run's event stream. It receives every event the
   * trace sink below does except the scheduler's decision trace.
   * Install the checkers you want before Run() and use a fresh
   * auditor per run — checker state (busy sets, lifecycle maps) is
   * per-run. When null and the build sets -DTETRI_AUDIT, Run()
   * installs the full checker suite internally and panics on any
   * violation, making every serving run self-verifying.
   */
  audit::Auditor* auditor = nullptr;
  /**
   * External trace sink wired into every component of the run
   * (nullable, not owned): the simulator's event queue, the engine's
   * execution spans, the scheduler's decision events, the tracker's
   * and latent manager's lifecycle events, the serving loop's round
   * plans, and chaos fault/recovery events all emit here. Tracing is
   * a pure observer — enabling it never changes the simulated
   * schedule — and costs one pointer test per emission site when
   * null (the default). With an auditor set too, each event goes to
   * this sink first, then to the auditor, so the auditor changes
   * nothing this sink sees. Use a trace::Tracer to fan out to
   * ring-buffer / Perfetto sinks.
   */
  trace::TraceSink* trace = nullptr;
  /**
   * Invoked once per Run() after every component is wired but before
   * the event loop starts; fault injectors attach here. Chaos events
   * enqueue after the arrival/round events of the same timestamp, so
   * replays are deterministic. Zero overhead when empty (the default).
   */
  std::function<void(const RunContext&)> on_run_setup;
};

/** Outcome of one serving run. */
struct ServingResult {
  std::vector<metrics::RequestRecord> records;
  double busy_gpu_us = 0.0;
  TimeUs makespan_us = 0;
  int num_scheduler_calls = 0;
  /** Host wall-clock spent inside Scheduler::PlanInto (Table 6 / §4.2),
   * timed in util::CycleStopwatch ticks and converted once per run. */
  double scheduler_wall_us_total = 0.0;
  double scheduler_wall_us_max = 0.0;
  TimeUs latent_transfer_us = 0;
  int num_latent_transfers = 0;
  int num_assignments = 0;
  int num_dropped = 0;
  int num_cancelled = 0;
  double reconfig_stall_us = 0.0;
  int num_reconfigs = 0;
  /** Failure/retry accounting (all zero when chaos is disabled). */
  metrics::RecoveryCounters recovery;
  /** Populated when ServingConfig::record_timeline is set. */
  Timeline timeline;
  /** Invariant violations observed by the run's auditor (0 if none). */
  std::uint64_t audit_violations = 0;
  /** Digest of the violations (empty when clean or unaudited). */
  std::string audit_summary;

  metrics::SarSummary Sar() const { return metrics::ComputeSar(records); }
  double GpuUtilization(int num_gpus) const;
};

/** Drives traces through policies on one simulated node. */
class ServingSystem {
 public:
  /**
   * Profiles the per-step latency table for (model, topology) at
   * construction, mirroring the paper's offline profiling pass.
   */
  ServingSystem(const cluster::Topology* topology,
                const costmodel::ModelConfig* model,
                ServingConfig config = ServingConfig{});

  /** Replay @p trace under @p scheduler. Deterministic per seed. */
  ServingResult Run(Scheduler* scheduler, const workload::Trace& trace);

  /** The profiled table; build schedulers against this. */
  const costmodel::LatencyTable& table() const { return table_; }
  const costmodel::StepCostModel& cost() const { return cost_; }
  const cluster::Topology& topology() const { return *topology_; }

 private:
  const cluster::Topology* topology_;
  const costmodel::ModelConfig* model_;
  ServingConfig config_;
  costmodel::StepCostModel cost_;
  costmodel::LatencyTable table_;
};

}  // namespace tetri::serving

#endif  // TETRI_SERVING_SYSTEM_H
