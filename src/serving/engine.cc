#include "serving/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"
#include "util/jitter.h"

namespace tetri::serving {

ExecutionEngine::ExecutionEngine(sim::Simulator* simulator,
                                 const costmodel::StepCostModel* cost,
                                 RequestTracker* tracker,
                                 LatentManager* latents,
                                 std::uint64_t seed)
    : simulator_(simulator),
      cost_(cost),
      tracker_(tracker),
      latents_(latents),
      prices_(cost),
      rng_(seed),
      pg_cache_(&cost->topology(), cost->params().pg_warmup_us,
                cost->params().pg_buffer_mib),
      straggler_(static_cast<std::size_t>(cost->topology().num_gpus()),
                 1.0)
{
  TETRI_CHECK(simulator_ && cost_ && tracker_ && latents_);
  // Startup warmup of the compact default group set (§5); charged to
  // startup, not to any request.
  pg_cache_.WarmAll(
      cluster::ProcessGroupCache::DefaultWarmSet(cost->topology()));
}

void
ExecutionEngine::Dispatch(const Assignment& assignment)
{
  TETRI_CHECK(!assignment.requests.empty());
  TETRI_CHECK(assignment.mask != 0);
  TETRI_CHECK_MSG((assignment.mask & busy_) == 0,
                  "dispatch on busy GPUs "
                      << cluster::MaskToString(assignment.mask & busy_));
  TETRI_CHECK_MSG(
      (assignment.mask & failed_) == 0,
      "dispatch on failed GPUs "
          << cluster::MaskToString(assignment.mask & failed_));
  TETRI_CHECK(assignment.max_steps >= 1);

  const int batch = static_cast<int>(assignment.requests.size());
  const int degree = cluster::Popcount(assignment.mask);
  const TimeUs now = simulator_->Now();

  // Resolve every member once; the loops below reuse the references.
  // Tracker references are stable (request_tracker.h), and nothing in
  // this function re-enters Dispatch.
  members_.clear();
  for (RequestId id : assignment.requests) {
    members_.push_back(&tracker_->Get(id));
  }

  // Validate members and compute the executable step count.
  const costmodel::Resolution res = members_.front()->meta.resolution;
  int steps = assignment.max_steps;
  for (const Request* req : members_) {
    TETRI_CHECK_MSG(req->state == RequestState::kQueued,
                    "request " << req->meta.id << " not schedulable");
    TETRI_CHECK_MSG(req->meta.resolution == res,
                    "batched requests must share a resolution");
    TETRI_CHECK(req->RemainingSteps() >= 1);
    steps = std::min(steps, req->RemainingSteps());
  }
  TETRI_CHECK(steps >= 1);

  // Re-sharding stall: switching a request onto a different GPU set
  // costs a communicator switch, plus NCCL warmup if the group is
  // cold. Placement preservation exists to avoid exactly this.
  TimeUs stall_us = 0;
  bool any_reshard = false;
  for (const Request* req : members_) {
    if (req->last_mask != 0 && req->last_mask != assignment.mask) {
      any_reshard = true;
    }
  }
  if (degree > 1) {
    stall_us += pg_cache_.EnsureWarm(assignment.mask);
  }
  if (any_reshard) {
    stall_us +=
        static_cast<TimeUs>(cost_->params().reconfig_stall_us);
    ++num_reconfigs_;
  }
  reconfig_stall_us_ += static_cast<double>(stall_us);

  // Latent transfers for all members proceed in parallel; the slowest
  // one gates the start of the first step.
  TimeUs transfer_us = 0;
  for (Request* req : members_) {
    transfer_us = std::max(
        transfer_us, latents_->OnAssignment(*req, assignment.mask, 1, now));
    tracker_->Transition(*req, RequestState::kRunning, now);
    req->last_mask = assignment.mask;
    req->last_degree = degree;
    if (req->first_start_us < 0) req->first_start_us = now;
  }
  transfer_us += stall_us;

  // Execute `steps` jittered steps on the actual placement, priced
  // from the placement table (the analytic model runs once per cell).
  // A sequence-parallel group synchronizes every step, so the whole
  // assignment runs at the pace of its slowest (straggling) member.
  const double mean_us =
      prices_.StepTimeUs(res, batch, assignment.mask) *
      StragglerFactor(assignment.mask);
  const double cv = prices_.JitterCv(res, degree);
  // One rounding rule for the assignment's wall-clock span: exec time
  // is converted to integer microseconds exactly once (llround), and
  // every consumer — the completion event, the timeline entry, the
  // busy-GPU accumulator, and per-request GPU time — uses that same
  // value. Truncating here while accumulating the raw double into
  // busy_gpu_us_ would let utilization's numerator drift from the sum
  // of timeline spans by up to a microsecond per dispatch. Per-step
  // boundaries are only materialized when a sink is attached; the rng
  // draws are identical either way, so attaching one cannot perturb
  // the simulated schedule.
  const TimeUs exec_span_us = util::JitteredSpanUs(
      &rng_, mean_us, cv, steps, trace_ != nullptr ? &step_ends_ : nullptr);
  busy_ |= assignment.mask;
  ++num_assignments_;
  busy_gpu_us_ +=
      static_cast<double>(degree) *
      static_cast<double>(exec_span_us + transfer_us);

  const TimeUs end = now + transfer_us + exec_span_us;

  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kDispatch;
    ev.time_us = now;
    ev.dur_us = end - now;
    ev.mask = assignment.mask;
    ev.degree = degree;
    ev.steps = steps;
    ev.batch = batch;
    ev.value = static_cast<double>(transfer_us);
    trace_->OnEvent(ev);
    for (const Request* req : members_) {
      trace::TraceEvent member;
      member.kind = trace::TraceEventKind::kMember;
      member.time_us = now;
      member.request = req->meta.id;
      member.mask = assignment.mask;
      member.degree = degree;
      member.steps = req->RemainingSteps();
      member.batch = batch;
      member.value = static_cast<double>(static_cast<int>(res));
      trace_->OnEvent(member);
    }
    // Step spans tile [now + transfer, end] exactly: boundaries are
    // llround'ed prefix sums of the same per-step draws, so the last
    // boundary IS exec_span_us (one-rounding-rule) and the dispatch
    // span encloses every step span — the nesting invariant
    // trace_test pins.
    TimeUs prev = 0;
    for (int s = 0; s < steps; ++s) {
      trace::TraceEvent step;
      step.kind = trace::TraceEventKind::kStep;
      step.time_us = now + transfer_us + prev;
      step.dur_us = step_ends_[static_cast<std::size_t>(s)] - prev;
      step.mask = assignment.mask;
      step.degree = degree;
      step.steps = s;
      step.batch = batch;
      trace_->OnEvent(step);
      prev = step_ends_[static_cast<std::size_t>(s)];
    }
  }

  std::ptrdiff_t timeline_index = -1;
  if (timeline_ != nullptr) {
    timeline_index = static_cast<std::ptrdiff_t>(timeline_->size());
    TimelineEntry entry;
    entry.start_us = now;
    entry.end_us = end;
    entry.mask = assignment.mask;
    entry.degree = degree;
    entry.batch = batch;
    entry.steps = steps;
    entry.resolution = res;
    entry.requests = assignment.requests;
    timeline_->Add(std::move(entry));
  }

  // Register the flight so FailGpus can find and abort it; the
  // completion event no-ops if the flight is gone by then. Copying
  // into a reused slot keeps its request buffer.
  InFlight* flight = FindFlight(kFreeSlot);
  if (flight == nullptr) flight = &flights_.emplace_back();
  const std::uint64_t flight_id = next_flight_id_++;
  flight->id = flight_id;
  flight->assignment = assignment;
  flight->start_us = now;
  flight->end_us = end;
  flight->steps = steps;
  flight->exec_span_us = exec_span_us;
  flight->transfer_us = transfer_us;
  flight->timeline_index = timeline_index;
  simulator_->ScheduleAt(end,
                         [this, flight_id]() { CompleteById(flight_id); });
}

ExecutionEngine::InFlight*
ExecutionEngine::FindFlight(std::uint64_t id)
{
  for (InFlight& flight : flights_) {
    if (flight.id == id) return &flight;
  }
  return nullptr;
}

void
ExecutionEngine::Retire(InFlight* slot)
{
  std::swap(retiring_, *slot);
  slot->id = kFreeSlot;
}

void
ExecutionEngine::CompleteById(std::uint64_t id)
{
  InFlight* flight = FindFlight(id);
  if (flight == nullptr) return;  // aborted by a GPU failure
  Retire(flight);
  Complete(retiring_.assignment, retiring_.steps, retiring_.exec_span_us);
}

void
ExecutionEngine::Complete(const Assignment& assignment, int steps,
                          TimeUs exec_span_us)
{
  const int degree = cluster::Popcount(assignment.mask);
  const int batch = static_cast<int>(assignment.requests.size());
  busy_ &= ~assignment.mask;

  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kComplete;
    ev.time_us = simulator_->Now();
    ev.mask = assignment.mask;
    ev.degree = degree;
    ev.steps = steps;
    ev.batch = batch;
    trace_->OnEvent(ev);
  }

  for (RequestId id : assignment.requests) {
    Request& req = tracker_->Get(id);
    TETRI_CHECK(req.state == RequestState::kRunning);
    req.steps_done += steps;
    req.gpu_time_us +=
        static_cast<double>(degree) *
        static_cast<double>(exec_span_us) / batch;
    req.degree_step_sum += static_cast<double>(degree) * steps;
    if (req.RemainingSteps() == 0) {
      FinishRequest(req);
    } else if (req.cancel_requested) {
      CancelNow(req);
    } else {
      tracker_->Transition(req, RequestState::kQueued, simulator_->Now());
    }
  }

  if (on_assignment_done_) on_assignment_done_(simulator_->Now());
}

void
ExecutionEngine::FailGpus(GpuMask mask)
{
  TETRI_CHECK(mask != 0);
  TETRI_CHECK((mask & ~cost_->topology().all_gpus()) == 0);
  TETRI_CHECK_MSG((mask & failed_) == 0,
                  "GPUs failed twice without recovering: "
                      << cluster::MaskToString(mask & failed_));
  const TimeUs now = simulator_->Now();
  failed_ |= mask;
  ++num_gpu_failures_;
  // Process-group collapse: a dead worker tears down every
  // communicator it participates in; survivors re-warm on demand.
  pg_cache_.Invalidate(mask);
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kGpuFail;
    ev.time_us = now;
    ev.mask = mask;
    trace_->OnEvent(ev);
  }

  abort_ids_.clear();
  for (const InFlight& flight : flights_) {
    if (flight.id != kFreeSlot && (flight.assignment.mask & mask) != 0) {
      abort_ids_.push_back(flight.id);
    }
  }
  std::sort(abort_ids_.begin(), abort_ids_.end());
  for (std::uint64_t id : abort_ids_) {
    Retire(FindFlight(id));
    Abort(retiring_, mask);
  }
  if (!abort_ids_.empty() && on_assignment_done_) on_assignment_done_(now);
}

void
ExecutionEngine::RecoverGpus(GpuMask mask)
{
  TETRI_CHECK(mask != 0);
  TETRI_CHECK_MSG(
      (mask & failed_) == mask,
      "recovering GPUs that were not failed: "
          << cluster::MaskToString(mask & ~failed_));
  failed_ &= ~mask;
  ++num_gpu_recoveries_;
  const TimeUs now = simulator_->Now();
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kGpuRecover;
    ev.time_us = now;
    ev.mask = mask;
    trace_->OnEvent(ev);
  }
  // Capacity came back: let an event-driven serving loop replan.
  if (on_assignment_done_) on_assignment_done_(now);
}

void
ExecutionEngine::Abort(const InFlight& flight, GpuMask failed_now)
{
  const Assignment& assignment = flight.assignment;
  const int degree = cluster::Popcount(assignment.mask);
  const TimeUs now = simulator_->Now();
  busy_ &= ~assignment.mask;

  // Unwind the dispatch-time accounting down to the span that really
  // occupied the GPUs (one-rounding-rule: busy_gpu_us keeps matching
  // the sum of degree x recorded timeline spans), and book the
  // partial, uncredited round as lost GPU time.
  busy_gpu_us_ -= static_cast<double>(degree) *
                  static_cast<double>(flight.end_us - now);
  lost_gpu_us_ += static_cast<double>(degree) *
                  static_cast<double>(now - flight.start_us);
  ++num_aborted_;
  if (timeline_ != nullptr && flight.timeline_index >= 0) {
    timeline_->TruncateAborted(
        static_cast<std::size_t>(flight.timeline_index), now);
  }

  if (trace_ != nullptr) {
    // The planned dispatch/step spans stay in the trace at their full
    // extents; this instant marks where execution really stopped.
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kAbort;
    ev.reason = trace::TraceReason::kGpuFailure;
    ev.time_us = now;
    ev.mask = assignment.mask;
    ev.degree = degree;
    ev.steps = flight.steps;
    ev.batch = static_cast<std::int32_t>(assignment.requests.size());
    ev.value = static_cast<double>(degree) *
               static_cast<double>(now - flight.start_us);
    trace_->OnEvent(ev);
  }

  for (RequestId id : assignment.requests) {
    Request& req = tracker_->Get(id);
    TETRI_CHECK(req.state == RequestState::kRunning);
    tracker_->Transition(req, RequestState::kQueued, now);
    // The placement died with its GPUs: never prefer it again, and
    // pay the full re-shard on retry.
    req.last_mask = 0;
    req.last_degree = 0;
    if (req.cancel_requested) CancelNow(req);
  }

  if (on_assignment_aborted_) {
    AbortReport report;
    report.now = now;
    report.mask = assignment.mask;
    report.failed_gpus = failed_now;
    report.degree = degree;
    report.planned_steps = flight.steps;
    report.requests = assignment.requests;
    on_assignment_aborted_(report);
  }
}

bool
ExecutionEngine::Cancel(RequestId id)
{
  Request& req = tracker_->Get(id);
  if (req.state == RequestState::kQueued) {
    CancelNow(req);
    return true;
  }
  if (req.state == RequestState::kRunning) {
    req.cancel_requested = true;
    return true;
  }
  return false;
}

void
ExecutionEngine::CancelNow(Request& request)
{
  tracker_->Transition(request, RequestState::kCancelled,
                       simulator_->Now());
  latents_->Forget(request, simulator_->Now());
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kCancel;
    ev.time_us = simulator_->Now();
    ev.request = request.meta.id;
    trace_->OnEvent(ev);
  }
  if (on_request_cancelled_) on_request_cancelled_(request);
}

void
ExecutionEngine::SetStragglerFactor(int gpu, double factor)
{
  TETRI_CHECK(gpu >= 0 && gpu < cost_->topology().num_gpus());
  TETRI_CHECK(factor > 0.0);
  straggler_[static_cast<std::size_t>(gpu)] = factor;
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = factor > 1.0 ? trace::TraceEventKind::kStragglerStart
                           : trace::TraceEventKind::kStragglerEnd;
    ev.time_us = simulator_->Now();
    ev.mask = GpuMask{1} << gpu;
    ev.value = factor;
    trace_->OnEvent(ev);
  }
}

double
ExecutionEngine::StragglerFactor(GpuMask mask) const
{
  double slow = 1.0;
  for (GpuMask rest = mask; rest != 0; rest &= rest - 1) {
    slow = std::max(slow, straggler_[std::countr_zero(rest)]);
  }
  return slow;
}

void
ExecutionEngine::FinishRequest(Request& request)
{
  // Sequential per-request VAE decode (§5): cheap, off the critical
  // GPU path, but part of the user-visible latency.
  const TimeUs vae_us = static_cast<TimeUs>(
      cost_->VaeDecodeUs(request.meta.resolution));
  tracker_->Transition(request, RequestState::kFinished,
                       simulator_->Now());
  request.completion_us = simulator_->Now() + vae_us;
  latents_->Forget(request, simulator_->Now());
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kFinish;
    ev.time_us = simulator_->Now();
    ev.request = request.meta.id;
    ev.value = static_cast<double>(request.completion_us);
    trace_->OnEvent(ev);
  }
  if (on_request_done_) on_request_done_(request);
}

}  // namespace tetri::serving
