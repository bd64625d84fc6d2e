/**
 * @file
 * Execution Engine (§3): the distributed pool of GPU workers, modeled
 * in virtual time. Dispatching an assignment occupies its GPU set,
 * charges any latent transfer, executes the requested number of steps
 * with measured jitter on the *actual* placement (so a badly placed
 * A40 pair really pays the PCIe price), and fires completion events.
 *
 * The engine is also the failure boundary for tetri::chaos: FailGpus
 * kills a GPU set mid-round — in-flight assignments touching it are
 * aborted (no steps credited, partial GPU time recorded as lost),
 * their members requeued with remaining steps, their communicators
 * collapsed — and the failed GPUs disappear from FreeMask until
 * RecoverGpus. Per-GPU straggler factors and client cancellation are
 * modeled here too, so every fault is an ordinary simulator event.
 */
#ifndef TETRI_SERVING_ENGINE_H
#define TETRI_SERVING_ENGINE_H

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/process_group.h"
#include "costmodel/placement_price.h"
#include "costmodel/step_cost.h"
#include "serving/latent_manager.h"
#include "serving/timeline.h"
#include "serving/request_tracker.h"
#include "serving/scheduler.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tetri::serving {

/** One assignment killed mid-flight by a GPU failure. */
struct AbortReport {
  TimeUs now = 0;
  /** GPU set the assignment was running on. */
  GpuMask mask = 0;
  /** The newly failed GPUs that triggered the abort. */
  GpuMask failed_gpus = 0;
  int degree = 0;
  /** Steps the round would have credited; none were. */
  int planned_steps = 0;
  /** Members, already transitioned back to kQueued (or kCancelled if
   * a cancellation was pending). */
  std::vector<RequestId> requests;
};

/** Simulated GPU worker pool. */
class ExecutionEngine {
 public:
  ExecutionEngine(sim::Simulator* simulator,
                  const costmodel::StepCostModel* cost,
                  RequestTracker* tracker, LatentManager* latents,
                  std::uint64_t seed);

  /**
   * Attach an audit sink notified of dispatches and completions
   * (nullptr disables). Does not take ownership.
   */
  void set_audit(audit::AuditSink* sink) { audit_ = sink; }

  /**
   * Attach a trace sink recording execution spans — dispatch, member,
   * per-step, complete, abort — plus fault instants (nullptr
   * disables). Does not take ownership. Tracing is a pure observer:
   * enabling it draws no extra randomness and changes no behaviour.
   */
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }

  /** Called when an assignment's GPUs are released. */
  void set_on_assignment_done(std::function<void(TimeUs)> cb) {
    on_assignment_done_ = std::move(cb);
  }

  /** Called when a request finishes its last step (pre-VAE). */
  void set_on_request_done(std::function<void(Request&)> cb) {
    on_request_done_ = std::move(cb);
  }

  /** Called after an assignment is aborted by FailGpus; members are
   * already requeued, so the handler can apply a retry policy. */
  void set_on_assignment_aborted(
      std::function<void(const AbortReport&)> cb) {
    on_assignment_aborted_ = std::move(cb);
  }

  /** Called when a cancellation takes effect on a request. */
  void set_on_request_cancelled(std::function<void(Request&)> cb) {
    on_request_cancelled_ = std::move(cb);
  }

  /** Attach an execution-log recorder (nullptr disables). */
  void set_timeline(Timeline* timeline) { timeline_ = timeline; }

  /** GPUs currently executing. */
  GpuMask busy_mask() const { return busy_; }
  /** GPUs currently failed. */
  GpuMask failed_mask() const { return failed_; }
  GpuMask FreeMask() const {
    return cost_->topology().all_gpus() & ~busy_ & ~failed_;
  }

  /**
   * Start executing an assignment at the current virtual time. The
   * mask must be disjoint from busy and failed GPUs; every member
   * must be in kQueued state with enough remaining steps.
   */
  void Dispatch(const Assignment& assignment);

  /**
   * Kill a GPU set at the current virtual time: every in-flight
   * assignment touching it aborts (partial work lost, members
   * requeued with their remaining steps), its process groups
   * collapse, and the GPUs leave FreeMask until RecoverGpus. @p mask
   * must not intersect already-failed GPUs.
   */
  void FailGpus(GpuMask mask);

  /** Return failed GPUs to service. @p mask must be failed. */
  void RecoverGpus(GpuMask mask);

  /**
   * Client-side cancellation. A queued request cancels immediately; a
   * running one finishes its in-flight round (that work is already
   * paid for) and cancels at round completion. @return false if the
   * request was already terminal.
   */
  bool Cancel(RequestId id);

  /**
   * Slow one worker down by @p factor >= 1 (straggler injection; 1.0
   * restores full speed). An assignment runs at the pace of its
   * slowest member GPU.
   */
  void SetStragglerFactor(int gpu, double factor);
  /** Slowest member's factor; walks the mask's bits, no allocation. */
  double StragglerFactor(GpuMask mask) const;

  /**
   * The placement price table Dispatch charges from (exposed for
   * tests): one analytic StepTimeOnMaskUs per (resolution, batch,
   * degree, bottleneck class) cell, bit-identical to calling it on
   * the dispatched mask.
   */
  costmodel::PlacementPriceTable& prices() { return prices_; }

  /** Total GPU-busy microseconds accumulated (for utilization). */
  double busy_gpu_us() const { return busy_gpu_us_; }

  /** GPU-microseconds of aborted (uncredited) partial rounds. */
  double lost_gpu_us() const { return lost_gpu_us_; }

  int num_gpu_failures() const { return num_gpu_failures_; }
  int num_gpu_recoveries() const { return num_gpu_recoveries_; }
  int num_aborted_assignments() const { return num_aborted_; }

  /** Number of assignments executed. */
  int num_assignments() const { return num_assignments_; }

  /** Re-sharding / communicator-switch stall totals. */
  double reconfig_stall_us() const { return reconfig_stall_us_; }
  int num_reconfigs() const { return num_reconfigs_; }

  const cluster::ProcessGroupCache& process_groups() const {
    return pg_cache_;
  }

 private:
  /** Marks an InFlight slot that holds no assignment. */
  static constexpr std::uint64_t kFreeSlot = ~std::uint64_t{0};

  /** Registry entry for an assignment between dispatch and completion;
   * everything an abort needs to unwind the dispatch-time accounting. */
  struct InFlight {
    /** Dispatch sequence number, or kFreeSlot. */
    std::uint64_t id = kFreeSlot;
    Assignment assignment;
    TimeUs start_us = 0;
    TimeUs end_us = 0;
    int steps = 0;
    TimeUs exec_span_us = 0;
    TimeUs transfer_us = 0;
    std::ptrdiff_t timeline_index = -1;
  };

  /** The slot holding flight @p id (kFreeSlot: any free slot), or
   * nullptr. Linear: there is at most one flight per GPU. */
  InFlight* FindFlight(std::uint64_t id);
  /** Move @p slot's flight into retiring_ and free the slot, so the
   * callbacks that follow may dispatch into it. */
  void Retire(InFlight* slot);
  void CompleteById(std::uint64_t id);
  void Complete(const Assignment& assignment, int steps,
                TimeUs exec_span_us);
  void Abort(const InFlight& flight, GpuMask failed_now);
  void FinishRequest(Request& request);
  void CancelNow(Request& request);

  sim::Simulator* simulator_;
  const costmodel::StepCostModel* cost_;
  RequestTracker* tracker_;
  LatentManager* latents_;
  costmodel::PlacementPriceTable prices_;
  Rng rng_;
  cluster::ProcessGroupCache pg_cache_;
  GpuMask busy_ = 0;
  GpuMask failed_ = 0;
  double busy_gpu_us_ = 0.0;
  double lost_gpu_us_ = 0.0;
  int num_assignments_ = 0;
  int num_gpu_failures_ = 0;
  int num_gpu_recoveries_ = 0;
  int num_aborted_ = 0;
  double reconfig_stall_us_ = 0.0;
  int num_reconfigs_ = 0;
  /** Per-GPU slowdown factors (straggler injection), >= 1.0 nominal. */
  std::vector<double> straggler_;
  /** Dispatch scratch, reused so steady-state dispatch does not
   * allocate: the members' tracker entries, and (when tracing) the
   * per-step end offsets. */
  std::vector<Request*> members_;
  std::vector<TimeUs> step_ends_;
  /** In-flight assignment slots. A freed slot keeps its request
   * buffer for the next dispatch, so steady-state dispatch does not
   * allocate. FailGpus aborts in id order, which keeps it
   * deterministic. */
  std::vector<InFlight> flights_;
  /** The flight being completed or aborted. */
  InFlight retiring_;
  /** FailGpus scratch: ids of the flights to abort. */
  std::vector<std::uint64_t> abort_ids_;
  std::uint64_t next_flight_id_ = 0;
  Timeline* timeline_ = nullptr;
  audit::AuditSink* audit_ = nullptr;
  trace::TraceSink* trace_ = nullptr;
  std::function<void(TimeUs)> on_assignment_done_;
  std::function<void(Request&)> on_request_done_;
  std::function<void(const AbortReport&)> on_assignment_aborted_;
  std::function<void(Request&)> on_request_cancelled_;
};

}  // namespace tetri::serving

#endif  // TETRI_SERVING_ENGINE_H
