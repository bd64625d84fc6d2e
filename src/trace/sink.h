/**
 * @file
 * The one observer interface of the runtime.
 *
 * Components that want to be observable (the scheduler, the execution
 * engine, the simulator, the request tracker, the latent manager, the
 * serving loop, the concurrent runtime, tetri::chaos) hold a nullable
 * `TraceSink*` and emit a flat TraceEvent at every observable decision,
 * state change or span boundary. Two libraries implement the sink: the
 * trace library (a fan-out Tracer, an in-memory ring buffer with a
 * query API, a Chrome/Perfetto exporter) and the audit library, whose
 * invariant checkers read the same stream. Production code pays one
 * pointer test per emission site when no sink is installed (the
 * emitting block, including event construction, is skipped entirely).
 *
 * The header deliberately speaks in primitive types (ids, masks, ints,
 * one double) so that low-level modules such as tetri::sim can include
 * it without depending on higher layers. Enum-typed values (request
 * states, resolutions) travel as their integer representation. Events
 * are trivially copyable, comparable, and serializable — the
 * byte-identical-replay determinism contract (DESIGN.md §10) relies on
 * all three.
 */
#ifndef TETRI_TRACE_SINK_H
#define TETRI_TRACE_SINK_H

#include <cstdint>

#include "util/types.h"

namespace tetri::trace {

/**
 * What happened. Field semantics per kind are documented inline; any
 * field not mentioned keeps its default.
 */
enum class TraceEventKind : std::uint8_t {
  // --- scheduler (tetri::core decision trace) ---
  /** A Plan() invocation began: dur=window, mask=free GPUs,
   * value=capacity. */
  kRoundBegin,
  /** One feasible allocation candidate for a request: degree/steps
   * from the allocation segment, value=slack_us at decision time. */
  kPlanCandidate,
  /** A request was (re)committed to this round's plan: degree, steps,
   * batch=group size, reason says which stage decided (kPacked,
   * kBestEffort, kElastic, kBatchJoin, kScaleUp, kRollback). */
  kPlanChoice,
  /** A request was shed from the round: reason kDeadlineInfeasible
   * (EDF overload control, value=slack_us) or kFragmented (placement
   * could not seat it). It stays queued and replans next round. */
  kShed,
  /** A request plans against a halved SP-degree set: degree=cap,
   * reason kDegreeCap. Emitted by the scheduler when honouring the
   * cap and by chaos when imposing it after an abort. */
  kDegrade,
  /** Plan() returned: steps=#assignments, mask=union of placed GPU
   * sets, value=pack utilization in [0,1]. */
  kRoundEnd,

  // --- serving loop (the plan each scheduler returned) ---
  /** A PlanInto call returned: dur=planning window (round end - now),
   * mask=GPUs the scheduler was allowed to use, steps=#assignments,
   * value=every GPU of the node (a GpuMask held exactly). One
   * kRoundAssignment per assignment follows. */
  kRoundPlan,
  /** One assignment of the preceding kRoundPlan: mask=its GPU set,
   * batch=#requests, steps=max steps. */
  kRoundAssignment,

  // --- execution engine (spans) ---
  /** An assignment entered execution: dur=full span (transfer + exec),
   * degree, steps, batch, value=transfer+stall us. */
  kDispatch,
  /** One batch member of a dispatch: request, mask=the dispatch's
   * GPU set, steps=remaining before this round, value=resolution
   * (costmodel::Resolution as an int). */
  kMember,
  /** One denoising step: dur=step span, steps=step index within the
   * round. Steps begin after the transfer/stall prefix and the last
   * one ends exactly at the dispatch span's end. */
  kStep,
  /** An assignment's GPUs were released normally: steps=credited. */
  kComplete,
  /** An assignment was killed mid-flight: reason kGpuFailure,
   * steps=planned (uncredited), value=lost GPU-us. The dispatch/step
   * spans keep their planned extents; this event marks truncation. */
  kAbort,

  // --- request lifecycle (tracker, serving loop, engine, runtime) ---
  /** A request arrived: steps=total, value=slack_us at admission
   * (deadline - now), so the deadline is time_us + value. */
  kAdmit,
  /** A request changed state: degree=from state, steps=to state
   * (serving::RequestState as an int). */
  kTransition,
  /** A request was abandoned: reason kTimeout (serving-loop drop
   * policy), kRetryBudget / kDeadlineInfeasible (chaos retry policy),
   * value=deadline_us. */
  kDrop,
  /** A client cancellation took effect. */
  kCancel,
  /** A request finished its last step: value=completion_us (includes
   * the sequential VAE decode). */
  kFinish,

  // --- latent manager ---
  /** A request's latent moves to (or is created on) mask. */
  kLatentAssign,
  /** A finished, dropped or cancelled request's latent is freed. */
  kLatentRelease,

  // --- simulator (event-queue spans) ---
  /** An event was pushed: dur=at-now, value=at. */
  kEventScheduled,
  /** The clock advanced by firing an event: value=previous now. */
  kEventFired,

  // --- fault injection ---
  kGpuFail,
  kGpuRecover,
  /** value=straggler factor. */
  kStragglerStart,
  kStragglerEnd,

  /** The serving loop drained every event. Keep it last: the audit
   * layer sizes its per-kind routing table from it. */
  kRunEnd,
};

/** Why it happened (kind-specific; kNone when self-evident). */
enum class TraceReason : std::uint8_t {
  kNone,
  /** Serving-loop drop policy: latency exceeded the timeout factor. */
  kTimeout,
  /** Chaos retry policy: abort/requeue budget exhausted. */
  kRetryBudget,
  /** Definitely late: EDF overload shed, or residual work provably
   * cannot land before the drop deadline. */
  kDeadlineInfeasible,
  /** Degraded-SP failure retry: planning against a capped degree. */
  kDegreeCap,
  /** Selected by the round-packing DP (Algorithm 1). */
  kPacked,
  /** Stage-4 best-effort lane for definitely-late requests. */
  kBestEffort,
  /** Work-conserving admission onto idle GPUs. */
  kElastic,
  /** Joined an existing assignment as a continuous-batch guest. */
  kBatchJoin,
  /** Elastic scale-up doubled the assignment's degree. */
  kScaleUp,
  /** Placement rolled a scale-up back toward its packed base. */
  kRollback,
  /** The free set was too fragmented to seat the assignment. */
  kFragmented,
  /** A GPU failure aborted the assignment. */
  kGpuFailure,
};

/**
 * One structured trace record. Flat POD — no heap members — so events
 * are trivially copyable, default-comparable, and cheap to buffer.
 * `seq` is stamped by the Tracer (see trace.h): a strictly increasing
 * global sequence number that makes cross-component ordering explicit
 * and survives concurrent emission under RunWorkers.
 */
struct TraceEvent {
  std::uint64_t seq = 0;
  TimeUs time_us = 0;
  /** Span length; 0 for instant events. */
  TimeUs dur_us = 0;
  TraceEventKind kind = TraceEventKind::kRoundBegin;
  TraceReason reason = TraceReason::kNone;
  RequestId request = kInvalidRequest;
  GpuMask mask = 0;
  /** Scheduler round ordinal; -1 outside a round context. */
  std::int32_t round = -1;
  std::int32_t degree = 0;
  std::int32_t steps = 0;
  std::int32_t batch = 0;
  /** Kind-specific scalar (slack, utilization, factor, ...). */
  double value = 0.0;

  bool operator==(const TraceEvent&) const = default;
};

/** Receives trace events; implementations live in tetri::trace and
 * tetri::audit. */
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

}  // namespace tetri::trace

#endif  // TETRI_TRACE_SINK_H
