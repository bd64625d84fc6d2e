/**
 * @file
 * Notification interface between the runtime and the audit layer.
 *
 * Components that want to be auditable (the simulator, the execution
 * engine, the request tracker, the latent manager, the serving loop)
 * hold a nullable `AuditSink*` and emit a notification at every
 * observable action. The audit library implements the sink and runs
 * pluggable invariant checkers over the stream; production code pays
 * one pointer test per notification when no sink is installed.
 *
 * The interface deliberately speaks in primitive types (ids, masks,
 * ints) rather than serving-layer enums so that low-level modules such
 * as tetri::sim can include it without depending on higher layers.
 * Enum-typed values (request states, resolutions) cross the boundary
 * as their integer representation.
 *
 * Payload lists are spans over buffers the emitter owns and reuses for
 * the whole run; they are valid only for the duration of the hook, so
 * a sink that needs them later must copy.
 */
#ifndef TETRI_AUDIT_SINK_H
#define TETRI_AUDIT_SINK_H

#include <span>

#include "util/types.h"

namespace tetri::audit {

/** One assignment of a scheduler round plan, as seen by the auditor. */
struct AssignmentAudit {
  GpuMask mask = 0;
  int num_requests = 0;
  int max_steps = 0;
};

/** Snapshot of one scheduler invocation and the plan it returned. */
struct RoundAudit {
  TimeUs now = 0;
  /** End of the planning window (now + tau for round-based modes). */
  TimeUs round_end = 0;
  /** GPUs the scheduler was allowed to use. */
  GpuMask free_gpus = 0;
  /** Every GPU of the node; plans must stay inside this universe. */
  GpuMask all_gpus = 0;
  std::span<const AssignmentAudit> assignments;
};

/** One batch member of a dispatched assignment. */
struct MemberAudit {
  RequestId id = kInvalidRequest;
  int remaining_steps = 0;
  /** costmodel::Resolution as an int. */
  int resolution = -1;
};

/** An assignment entering execution on the engine. */
struct DispatchAudit {
  TimeUs now = 0;
  GpuMask mask = 0;
  int steps = 0;
  std::span<const MemberAudit> members;
};

/** An assignment leaving execution (its GPUs are released). */
struct CompleteAudit {
  TimeUs now = 0;
  GpuMask mask = 0;
  /** Denoising steps actually executed for every member. */
  int steps = 0;
  std::span<const RequestId> requests;
};

/** Receives runtime notifications; all hooks default to no-ops. */
class AuditSink {
 public:
  virtual ~AuditSink() = default;

  // --- simulator ---
  /** An event was pushed at absolute time @p at while the clock read
   * @p now. */
  virtual void OnEventScheduled(TimeUs now, TimeUs at) {
    (void)now;
    (void)at;
  }
  /** The clock advanced from @p prev to @p now by firing an event. */
  virtual void OnEventFired(TimeUs prev, TimeUs now) {
    (void)prev;
    (void)now;
  }

  // --- scheduler / serving loop ---
  virtual void OnRoundPlan(const RoundAudit& round) { (void)round; }

  // --- execution engine ---
  virtual void OnDispatch(const DispatchAudit& dispatch) {
    (void)dispatch;
  }
  virtual void OnAssignmentComplete(const CompleteAudit& complete) {
    (void)complete;
  }
  /** An in-flight assignment was killed by a GPU failure; its GPUs are
   * released and its members requeued. @p steps is the planned step
   * count that will NOT be credited. */
  virtual void OnAssignmentAborted(const CompleteAudit& aborted) {
    (void)aborted;
  }

  // --- fault injection (tetri::chaos) ---
  virtual void OnGpuFailed(GpuMask mask, TimeUs now) {
    (void)mask;
    (void)now;
  }
  virtual void OnGpuRecovered(GpuMask mask, TimeUs now) {
    (void)mask;
    (void)now;
  }

  /** The serving loop drained every event; end-of-run invariants
   * (e.g. request conservation) are checked here. */
  virtual void OnRunEnd(TimeUs now) { (void)now; }

  // --- request lifecycle (states are serving::RequestState as int) ---
  virtual void OnRequestAdmitted(RequestId id, TimeUs arrival_us,
                                 TimeUs deadline_us, int num_steps) {
    (void)id;
    (void)arrival_us;
    (void)deadline_us;
    (void)num_steps;
  }
  virtual void OnRequestTransition(RequestId id, int from_state,
                                   int to_state, TimeUs now) {
    (void)id;
    (void)from_state;
    (void)to_state;
    (void)now;
  }

  // --- latent manager ---
  virtual void OnLatentAssign(RequestId id, GpuMask mask, TimeUs now) {
    (void)id;
    (void)mask;
    (void)now;
  }
  virtual void OnLatentRelease(RequestId id, TimeUs now) {
    (void)id;
    (void)now;
  }
};

}  // namespace tetri::audit

#endif  // TETRI_AUDIT_SINK_H
