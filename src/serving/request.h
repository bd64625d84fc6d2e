/**
 * @file
 * Runtime state of a request inside the serving system. Extends the
 * immutable trace entry with execution progress, placement history
 * (for GPU placement preservation), and accounting needed by the
 * metrics layer.
 */
#ifndef TETRI_SERVING_REQUEST_H
#define TETRI_SERVING_REQUEST_H

#include <algorithm>
#include <cstdint>

#include "metrics/metrics.h"
#include "util/rounding.h"
#include "workload/trace.h"

namespace tetri::serving {

/** Lifecycle of a request. */
enum class RequestState {
  kQueued,     ///< arrived, waiting for GPUs
  kRunning,    ///< an assignment is executing its steps
  kFinished,   ///< all steps + VAE decode done
  kDropped,    ///< timed out far past its deadline and abandoned
  kCancelled,  ///< withdrawn by the client before finishing
};

/**
 * The scheduling fields of a workload::TraceRequest: everything the
 * serving layer and the runtime read. The prompt stays with the trace
 * (the caching front end and trace I/O read it there), so admitting a
 * request copies no string.
 */
struct RequestMeta {
  RequestId id = kInvalidRequest;
  TimeUs arrival_us = 0;
  TimeUs deadline_us = 0;
  costmodel::Resolution resolution = costmodel::Resolution::k256;
  int num_steps = 0;
  TenantId tenant = kDefaultTenant;

  RequestMeta() = default;
  /** The scheduling fields of @p trace. Implicit: a trace entry is how
   * a request's metadata is normally given. */
  RequestMeta(const workload::TraceRequest& trace)
      : id(trace.id),
        arrival_us(trace.arrival_us),
        deadline_us(trace.deadline_us),
        resolution(trace.resolution),
        num_steps(trace.num_steps),
        tenant(trace.tenant)
  {
  }
};

/** Mutable serving-side request record. */
struct Request {
  /** Marks a request no RequestTracker has admitted. */
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  RequestMeta meta;
  RequestState state = RequestState::kQueued;

  int steps_done = 0;

  /** GPU set used by the most recent assignment (0 if none yet). */
  GpuMask last_mask = 0;
  /** Degree of the most recent assignment. */
  int last_degree = 0;
  /**
   * GPU set holding the request's latent (LatentManager); 0 before the
   * first assignment and after Forget. Not last_mask: an abort clears
   * last_mask but the latent keeps its last placement.
   */
  GpuMask latent_mask = 0;
  /** Index of the RequestTracker entry that owns this record; set by
   * RequestTracker::Admit and read only by the tracker. */
  std::uint32_t tracker_slot = kNoSlot;

  /** Accounting for metrics. */
  double gpu_time_us = 0.0;
  double degree_step_sum = 0.0;
  TimeUs completion_us = metrics::RequestRecord::kNeverCompleted;
  TimeUs first_start_us = -1;

  /** Failure recovery (tetri::chaos). */
  int failure_retries = 0;
  /** Max SP degree the scheduler may plan; 0 = uncapped. Set by the
   * degraded-SP retry policy after an abort so the retry needs a
   * smaller (easier to find) healthy GPU set. */
  int degree_cap = 0;
  /** Client cancellation seen while kRunning; applied at round end. */
  bool cancel_requested = false;
  metrics::DropReason drop_reason = metrics::DropReason::kNone;

  int RemainingSteps() const { return meta.num_steps - steps_done; }
  bool Arrived(TimeUs now) const { return meta.arrival_us <= now; }
  bool Active() const {
    return state == RequestState::kQueued ||
           state == RequestState::kRunning;
  }

  /** Convert to the immutable metrics record. */
  metrics::RequestRecord ToRecord() const;
};

/**
 * The instant a queued request is abandoned: arrival plus
 * @p drop_timeout_factor x its SLO budget, rounded once through
 * util::RoundUs and clamped so a deadline before arrival (negative
 * budget) drops at the first opportunity instead of in the past. The
 * one drop rule of the simulated serving loop and the runtime.
 */
inline TimeUs
DropAtUs(const Request& request, double drop_timeout_factor)
{
  const TimeUs budget = request.meta.deadline_us - request.meta.arrival_us;
  return request.meta.arrival_us +
         std::max<TimeUs>(0, util::RoundUs(drop_timeout_factor *
                                           static_cast<double>(budget)));
}

}  // namespace tetri::serving

#endif  // TETRI_SERVING_REQUEST_H
