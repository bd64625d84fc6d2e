/**
 * @file
 * Stand-alone concurrent serving runtime (DESIGN.md §12, §14): the
 * scheduler as a service, outside the discrete-event simulator.
 *
 * Thread architecture:
 *
 *   producers --Push--> [FairAdmissionQueue] --DRR drain--+
 *                                                         v
 *   workers  <--tasks-- [dispatch queue] <-- planner thread
 *      |                                          ^
 *      +---------- completion mailbox ------------+
 *                         ^
 *   watchdog thread ------+  (crash/hang requeues, worker respawn)
 *
 * Exactly one planner thread owns all scheduling state (request
 * store, free-GPU mask, the Scheduler itself), so TetriScheduler's
 * single-threaded PlanScratch arena runs unchanged and unlocked.
 * Each planner round: drain completions, drain admissions fairly
 * across tenants, apply the feasibility gate and drop policy to ONE
 * schedulable snapshot, invoke Scheduler::Plan on the survivors
 * against the monotonic clock (util::WallTimer), and hand the
 * resulting assignments to the worker pool. Workers simulate each
 * assignment's execution span (optionally dilated in host time), run
 * the chaos hooks, and post completions back to the planner's
 * mailbox — workers never touch scheduling state.
 *
 * The planner blocks on its CondVar whenever it has nothing timed to
 * do; Submit and every completion signal it. The only *timed* waits
 * are the drop-deadline and retry-backoff timers, computed from the
 * planner's own request store — there is no poll interval.
 *
 * Failure model (DESIGN.md §14): every dispatched task is entered in
 * an in-flight registry keyed by its dispatch sequence number. A
 * worker that completes a task must first erase its registry entry;
 * the watchdog requeues crashed/hung tasks by erasing the entry
 * itself. Whoever erases the entry owns the completion — the loser
 * counts a stale completion and posts nothing, so a late worker can
 * never double-credit a request the watchdog already requeued.
 * Requeued members retry with exponential backoff and a halved
 * SP-degree cap (chaos::RetryPolicy) until the retry budget is spent,
 * then drop with DropReason::kRetryBudget, counted as `failed`. The
 * drain invariant completed + dropped + failed == admitted holds
 * under every chaos schedule; audit::RequestConservationChecker
 * enforces it when an audit::Auditor is added to the trace::Tracer
 * passed as RuntimeOptions::trace.
 *
 * Graceful drain protocol (ordering matters and is pinned by tests):
 *  1. Close the admission queue — later Submit calls return kClosed;
 *     already-accepted submissions remain drainable.
 *  2. The planner keeps planning until no request is active and no
 *     assignment is in flight, then signals drained and exits. The
 *     watchdog stays alive through this phase so a crash during
 *     drain still gets requeued.
 *  3. The watchdog stops; the dispatch queue closes; workers finish
 *     their queued tasks and exit; every thread is joined before
 *     Drain returns.
 *
 * All shared state goes through the annotated util::Mutex wrappers, so
 * -Werror=thread-safety checks the lock discipline, and every queue
 * transition emits tetri::trace events when a sink is attached.
 */
#ifndef TETRI_RUNTIME_RUNTIME_H
#define TETRI_RUNTIME_RUNTIME_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chaos/chaos.h"
#include "cluster/topology.h"
#include "costmodel/latency_table.h"
#include "metrics/metrics.h"
#include "metrics/shared_histogram.h"
#include "runtime/admission_queue.h"
#include "runtime/fair_queue.h"
#include "runtime/runtime_chaos.h"
#include "serving/request.h"
#include "serving/scheduler.h"
#include "trace/sink.h"
#include "util/mutex.h"
#include "util/rounding.h"
#include "util/thread_annotations.h"
#include "util/wallclock.h"

namespace tetri::runtime {

/** Terminal record of one request, delivered via on_complete. */
struct Completion {
  RequestId id = kInvalidRequest;
  TenantId tenant = kDefaultTenant;
  metrics::Outcome outcome = metrics::Outcome::kUnfinished;
  metrics::DropReason drop_reason = metrics::DropReason::kNone;
  /** Runtime-clock microseconds at admission and at the terminal
   * transition (monotonic, starts at runtime construction). */
  TimeUs admitted_us = 0;
  TimeUs finished_us = 0;
  int steps_done = 0;
};

/** Runtime configuration. */
struct RuntimeOptions {
  /** Per-tenant front-door buffer size; overload behaviour is
   * `overflow`. A single-tenant runtime therefore behaves exactly
   * like the old global queue of this capacity. */
  std::size_t queue_capacity = 8192;
  OverflowPolicy overflow = OverflowPolicy::kShed;
  /** Declared tenants and weights; unknown tenants are registered on
   * first Submit with weight 1. */
  std::vector<TenantSpec> tenants;
  /** Max requests admitted per planner round (0 = all queued). */
  std::size_t admit_batch_limit = 0;
  /** Worker threads consuming dispatch plans. */
  int num_workers = 2;
  /**
   * Minimum host time between planner rounds. 0 plans as soon as work
   * arrives; a positive value paces rounds on the monotonic clock the
   * way the simulator's round grid paces virtual time.
   */
  double round_interval_us = 0.0;
  /**
   * Host-time dilation of simulated execution spans: a worker holds an
   * assignment's GPUs for span_us * execution_time_scale host
   * microseconds. 0 (default) completes instantly — the control-plane
   * benchmarking mode, where only scheduling work is on the clock.
   */
  double execution_time_scale = 0.0;
  /** Same drop policy as ServingConfig: abandon a queued request once
   * its latency exceeds this multiple of its SLO budget. */
  double drop_timeout_factor = 10.0;
  /** Seeded runtime fault injection (seed 0 = off). Crashes require
   * the watchdog to be enabled. */
  RuntimeChaosConfig chaos;
  /** Retry policy applied to aborted/crashed/hung assignments. */
  chaos::RetryPolicy retry;
  /** Base of the exponential retry backoff (doubles per attempt,
   * jittered in [0.5x, 1.5x) from an id+attempt-derived stream). */
  double backoff_base_us = 200.0;
  /** Watchdog sweep cadence; 0 disables the watchdog thread. */
  double watchdog_interval_us = 2000.0;
  /** Requeue an in-flight task this long past its expected (undilated
   * by stragglers) execution span; 0 disables hang detection. */
  double worker_hang_timeout_us = 0.0;
  /** Flag a planner heartbeat older than this as a stall; 0 disables
   * stall detection. */
  double planner_stall_timeout_us = 20000.0;
  /** Reject requests at admission whose effective deadline is already
   * infeasible given the queue-delay estimate (DropReason
   * kInfeasible). */
  bool feasibility_gate = true;
  /** Sustained queue-delay EWMA above this halves the SP-degree cap
   * of scheduled requests (graceful degradation before shedding);
   * 0 disables. */
  double degrade_queue_delay_us = 0.0;
  /**
   * Chaos hook (nullable): invoked by the worker before completing an
   * assignment; returning true aborts it — no steps are credited and
   * the members are requeued for replanning, mirroring the engine's
   * GPU-failure abort path. Runs on worker threads; must be
   * thread-safe. Seeded injection via `chaos` composes with this.
   */
  std::function<bool(const serving::Assignment&)> chaos_should_abort;
  /**
   * Terminal-state callback (nullable): one call per request that
   * finishes, drops, or sheds... runs on the planner thread, so it
   * must not call back into the runtime. Shed submissions are NOT
   * reported here (Submit already returned kShed synchronously).
   */
  std::function<void(const Completion&)> on_complete;
  /** Trace sink (nullable, not owned). Worker threads and the
   * watchdog emit concurrently, so attach an internally-synchronized
   * sink such as trace::Tracer. The planner emits the request
   * lifecycle (kAdmit, kTransition, kRunEnd) here too: to audit a
   * runtime, add an audit::Auditor to that Tracer, which serialises
   * every emitter. */
  trace::TraceSink* trace = nullptr;
};

/** Watchdog / failure-path counters (RecoveryCounters analogue). */
struct RuntimeRecoveryCounters {
  std::uint64_t worker_crashes = 0;
  std::uint64_t workers_replaced = 0;
  std::uint64_t hung_tasks = 0;
  std::uint64_t backoff_retries = 0;
  std::uint64_t watchdog_fires = 0;
  std::uint64_t planner_stalls = 0;
  std::uint64_t stale_completions = 0;
};

/** Aggregate counters; one consistent snapshot via stats(). */
struct RuntimeStats {
  AdmissionCounters admission;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  /** Retry-budget exhaustion and deadline-aware retry drops. Kept
   * separate from `dropped` so completed + dropped + failed ==
   * admitted partitions terminals by happy/overload/failure path. */
  std::uint64_t failed = 0;
  std::uint64_t aborted_assignments = 0;
  std::uint64_t requeues = 0;
  std::uint64_t rounds = 0;
  std::uint64_t assignments = 0;
  /** Admission-time feasibility-gate rejections (subset of dropped). */
  std::uint64_t infeasible_rejects = 0;
  /** Rounds planned under a degraded global SP cap. */
  std::uint64_t degraded_rounds = 0;
  /** Requests admitted but not yet terminal. */
  std::uint64_t active = 0;
  RuntimeRecoveryCounters recovery;
};

/** Per-tenant slice of the runtime's counters. */
struct TenantRuntimeStats {
  TenantId id = kDefaultTenant;
  int weight = 1;
  TenantCounters admission;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t failed = 0;
  /** Queue delay (admission to first dispatch), host microseconds. */
  metrics::Histogram queue_delay_us;
};

/**
 * The concurrent serving runtime. Construction starts the planner,
 * worker, and watchdog threads; Drain() (or destruction) closes the
 * front door and joins them. The Scheduler is not owned and must
 * outlive the runtime; it is only ever invoked from the planner
 * thread.
 */
class ServingRuntime {
 public:
  ServingRuntime(serving::Scheduler* scheduler,
                 const cluster::Topology* topology,
                 const costmodel::LatencyTable* table,
                 RuntimeOptions options = RuntimeOptions{});

  /** Drains (if not already) and joins every thread. */
  ~ServingRuntime();

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /**
   * Submit one request from any thread on behalf of @p tenant.
   * @p budget_us is the SLO budget relative to now; the runtime
   * stamps arrival from its monotonic clock and assigns the id
   * returned in @p out_id (untouched unless admitted). Blocks only
   * under OverflowPolicy::kBlock on a full tenant sub-queue.
   */
  AdmitOutcome Submit(TenantId tenant, costmodel::Resolution resolution,
                      int num_steps, TimeUs budget_us,
                      RequestId* out_id = nullptr);

  /** Single-tenant convenience overload (kDefaultTenant). */
  AdmitOutcome Submit(costmodel::Resolution resolution, int num_steps,
                      TimeUs budget_us, RequestId* out_id = nullptr) {
    return Submit(kDefaultTenant, resolution, num_steps, budget_us,
                  out_id);
  }

  /** Like Submit but never blocks: a full sub-queue sheds even under
   * OverflowPolicy::kBlock. */
  AdmitOutcome TrySubmit(TenantId tenant,
                         costmodel::Resolution resolution, int num_steps,
                         TimeUs budget_us, RequestId* out_id = nullptr);

  /**
   * Graceful shutdown: close the front door, wait for every admitted
   * request to reach a terminal state, then stop and join all
   * threads. Idempotent; called by the destructor.
   */
  void Drain();

  /** Monotonic runtime clock, microseconds since construction. */
  TimeUs NowUs() const { return util::RoundUs(clock_.ElapsedUs()); }

  /** Consistent snapshot of the aggregate counters. */
  RuntimeStats stats() const;

  /** Per-tenant counters + queue-delay histograms, in registration
   * order. */
  std::vector<TenantRuntimeStats> tenant_stats() const;

  /** Host-microsecond latency of Scheduler::Plan calls, aggregated
   * across rounds (log-spaced buckets; percentiles via Snapshot). */
  const metrics::SharedHistogram& plan_latency_us() const {
    return plan_latency_us_;
  }

  /** The seeded chaos schedule (empty when chaos is off). */
  const RuntimeChaos& chaos() const { return chaos_; }

  const RuntimeOptions& options() const { return options_; }

 private:
  /** One unit handed to the worker pool. */
  struct DispatchTask {
    /** Dispatch sequence number; the chaos schedule and the in-flight
     * registry are keyed by it. */
    std::uint64_t seq = 0;
    serving::Assignment assignment;
    /** Simulated execution span of the whole assignment. */
    TimeUs span_us = 0;
  };

  /** What a worker (or the watchdog, on its behalf) reports back. */
  struct CompletionMsg {
    std::uint64_t seq = 0;
    serving::Assignment assignment;
    TimeUs span_us = 0;
    bool aborted = false;
    /** Synthesized by the watchdog for a crashed/hung task. */
    bool from_watchdog = false;
  };

  /** Registry entry for a dispatched-but-unreported task. */
  struct InflightRecord {
    serving::Assignment assignment;
    TimeUs span_us = 0;
    /** Host deadline for hang detection; < 0 until a worker picks the
     * task up (a queued task cannot hang). */
    double hang_deadline_us = -1.0;
    /** Worker slot executing the task, -1 while queued. */
    int worker = -1;
  };

  enum WorkerState : int {
    kWorkerRunning = 0,
    kWorkerCrashed = 1,
    kWorkerExited = 2,
  };

  /** One worker thread and its liveness flag. unique_ptr keeps the
   * atomic address-stable across vector growth. */
  struct WorkerSlot {
    std::thread thread;
    std::atomic<int> state{kWorkerRunning};
  };

  void PlannerLoop();
  void WorkerLoop(int worker);
  void WatchdogLoop();
  void WatchdogSweep();
  /** Requeue one registry-erased task through the planner mailbox. */
  void PostWatchdogRequeue(std::uint64_t seq, InflightRecord record);

  // Planner-thread-only helpers (no locks: all state they touch is
  // owned by the single planner thread).
  void ApplyCompletion(const CompletionMsg& msg);
  void AdmitPending(std::vector<workload::TraceRequest>* pending);
  void PlanOnce(TimeUs now);
  /** Host-us until the next drop-deadline or backoff expiry among
   * queued requests (0 when one is already due); +infinity when
   * nothing is timed. */
  double NextEventDelayUs(TimeUs now) const;
  /** Optimistic lower bound on residual execution time. */
  TimeUs MinResidualSpanUs(costmodel::Resolution res, int steps) const;
  void FinishRequest(serving::Request& request, TimeUs now);
  void DropRequest(serving::Request& request, TimeUs now,
                   metrics::DropReason reason, bool count_failed = false);
  void RemoveRequest(RequestId id, metrics::Outcome outcome,
                     metrics::DropReason reason, TimeUs now,
                     bool count_failed);
  /** Emit kTransition when a sink is attached. */
  void TraceTransition(RequestId id, serving::RequestState from,
                       serving::RequestState to, TimeUs now);
  /** Tenant queue-delay histogram, created on first use. */
  metrics::SharedHistogram& TenantDelayHistogram(TenantId tenant);

  serving::Scheduler* scheduler_;
  const cluster::Topology* topology_;
  const costmodel::LatencyTable* table_;
  RuntimeOptions options_;
  util::WallTimer clock_;
  RuntimeChaos chaos_;

  FairAdmissionQueue admissions_;

  /** Serializes Drain callers; joining a thread twice is UB. */
  util::Mutex drain_mu_;
  bool drained_ TETRI_GUARDED_BY(drain_mu_) = false;

  // --- planner wake channel + worker->planner mailbox ---
  mutable util::Mutex planner_mu_;
  util::CondVar planner_cv_;
  util::CondVar drained_cv_;
  std::vector<CompletionMsg> mailbox_ TETRI_GUARDED_BY(planner_mu_);
  bool work_pending_ TETRI_GUARDED_BY(planner_mu_) = false;
  bool draining_ TETRI_GUARDED_BY(planner_mu_) = false;
  bool planner_done_ TETRI_GUARDED_BY(planner_mu_) = false;

  // --- planner -> worker dispatch queue ---
  mutable util::Mutex dispatch_mu_;
  util::CondVar dispatch_cv_;
  std::deque<DispatchTask> dispatch_ TETRI_GUARDED_BY(dispatch_mu_);
  bool dispatch_closed_ TETRI_GUARDED_BY(dispatch_mu_) = false;

  // --- in-flight task registry (planner/worker/watchdog) ---
  mutable util::Mutex inflight_mu_;
  std::unordered_map<std::uint64_t, InflightRecord> inflight_
      TETRI_GUARDED_BY(inflight_mu_);

  // --- watchdog control ---
  util::Mutex watchdog_mu_;
  util::CondVar watchdog_cv_;
  bool watchdog_stop_ TETRI_GUARDED_BY(watchdog_mu_) = false;

  // --- aggregate counters (any-thread readers via stats()) ---
  mutable util::Mutex stats_mu_;
  RuntimeStats stats_ TETRI_GUARDED_BY(stats_mu_);

  // --- per-tenant terminal counters + delay histograms ---
  struct TenantAgg {
    std::uint64_t completed = 0;
    std::uint64_t dropped = 0;
    std::uint64_t failed = 0;
    std::unique_ptr<metrics::SharedHistogram> queue_delay;
  };
  mutable util::Mutex tenant_mu_;
  std::unordered_map<TenantId, TenantAgg> tenant_agg_
      TETRI_GUARDED_BY(tenant_mu_);
  std::unordered_map<TenantId, int> tenant_weight_
      TETRI_GUARDED_BY(tenant_mu_);

  metrics::SharedHistogram plan_latency_us_;

  /** Ids are assigned at Submit from any producer thread. */
  std::atomic<RequestId> next_id_{0};

  /** Planner liveness, read by the watchdog. */
  std::atomic<TimeUs> planner_heartbeat_us_{0};
  std::atomic<bool> planner_waiting_{false};

  /** One entry of the persistent queued list: the (deadline, id) sort
   * key — immutable for a request's lifetime — plus the stable
   * Request pointer the schedulable snapshot needs. */
  struct QueuedRef {
    TimeUs deadline_us = 0;
    RequestId id = kInvalidRequest;
    serving::Request* request = nullptr;
  };

  /** Insert @p request into `queued_` at its sorted position. */
  void QueueInsert(serving::Request* request);
  /** Remove @p request from `queued_` if present (no-op otherwise:
   * terminal transitions out of kRunning were never queued). */
  void QueueErase(const serving::Request& request);

  // --- planner-thread-only scheduling state ---
  /** Active requests; node-based map so Request* stays stable for
   * ScheduleContext::schedulable. Terminal requests are erased, so the
   * store holds the working set, not everything ever admitted. */
  std::unordered_map<RequestId, serving::Request> active_;
  /** Retry-backoff gates: request not plannable before this time. */
  std::unordered_map<RequestId, TimeUs> not_before_;
  /**
   * All kQueued requests, kept sorted by (deadline, id) — maintained
   * incrementally at every state transition (admission, dispatch,
   * requeue, terminal) instead of rebuilt and re-sorted per planner
   * tick. The tick filters this carried list into `snapshot_`, so the
   * scheduler always receives its queue in deadline order without
   * paying a sort per tick.
   */
  std::vector<QueuedRef> queued_;
  /** GPUs not executing anything (planner's view). */
  GpuMask free_gpus_ = 0;
  std::vector<workload::TraceRequest> pending_;
  std::vector<CompletionMsg> completions_;
  std::vector<serving::Request*> snapshot_;
  std::int32_t round_seq_ = -1;
  std::uint64_t task_seq_ = 0;
  std::uint64_t plan_iter_ = 0;
  /** EWMA of admission-to-first-dispatch delay, host us. */
  double queue_delay_ewma_ = 0.0;
  /** Degraded global SP cap (0 = uncapped). */
  int global_degree_cap_ = 0;

  // --- watchdog-thread-only state ---
  /** Planner heartbeat already flagged as stalled (dedup). */
  TimeUs last_stall_heartbeat_ = -1;

  std::vector<std::unique_ptr<WorkerSlot>> workers_;
  std::thread watchdog_;
  std::thread planner_;
};

}  // namespace tetri::runtime

#endif  // TETRI_RUNTIME_RUNTIME_H
