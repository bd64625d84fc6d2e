#include "chaos/chaos.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "cluster/topology.h"
#include "costmodel/latency_table.h"
#include "util/rounding.h"
#include "serving/engine.h"
#include "serving/latent_manager.h"
#include "serving/request_tracker.h"
#include "sim/simulator.h"
#include "trace/sink.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/trace.h"

namespace tetri::chaos {
namespace {

using metrics::RecoveryEvent;
using metrics::RecoveryEventKind;

/** Trace span [first arrival, latest deadline] random faults land in. */
struct Window {
  TimeUs begin = 0;
  TimeUs end = 0;
};

Window
TraceWindow(const workload::Trace& trace)
{
  Window w;
  if (trace.requests.empty()) return w;
  w.begin = trace.requests.front().arrival_us;
  w.end = w.begin;
  for (const workload::TraceRequest& req : trace.requests) {
    w.begin = std::min(w.begin, req.arrival_us);
    w.end = std::max(w.end, req.deadline_us);
  }
  return w;
}

TimeUs
UsFromSecAtLeastOne(double sec)
{
  return util::RoundUsAtLeast(sec * 1e6, 1);
}

}  // namespace

const char*
RecoveryEventKindName(RecoveryEventKind kind)
{
  switch (kind) {
    case RecoveryEventKind::kGpuFail: return "GpuFail";
    case RecoveryEventKind::kGpuRecover: return "GpuRecover";
    case RecoveryEventKind::kStragglerStart: return "StragglerStart";
    case RecoveryEventKind::kStragglerEnd: return "StragglerEnd";
    case RecoveryEventKind::kAbort: return "Abort";
    case RecoveryEventKind::kRequeue: return "Requeue";
    case RecoveryEventKind::kRetryDrop: return "RetryDrop";
    case RecoveryEventKind::kCancelRequest: return "CancelRequest";
    case RecoveryEventKind::kCancelApplied: return "CancelApplied";
    case RecoveryEventKind::kWorkerCrash: return "WorkerCrash";
    case RecoveryEventKind::kWorkerReplace: return "WorkerReplace";
    case RecoveryEventKind::kPlannerStall: return "PlannerStall";
    case RecoveryEventKind::kWatchdogFire: return "WatchdogFire";
  }
  return "Unknown";
}

int
ChaosTrace::Count(RecoveryEventKind kind) const
{
  const util::MutexLock lock(mu_);
  int n = 0;
  for (const RecoveryEvent& ev : events_) {
    if (ev.kind == kind) ++n;
  }
  return n;
}

std::string
ChaosTrace::ToString() const
{
  const util::MutexLock lock(mu_);
  std::ostringstream out;
  for (const RecoveryEvent& ev : events_) {
    out << "t=" << ev.time_us << ' ' << RecoveryEventKindName(ev.kind);
    if (ev.request != kInvalidRequest) out << " req=" << ev.request;
    out << " mask=0x" << std::hex << ev.mask << std::dec << '\n';
  }
  return out.str();
}

ChaosController::ChaosController(ChaosConfig config)
    : config_(std::move(config))
{
}

std::function<void(const serving::RunContext&)>
ChaosController::Hook()
{
  return [this](const serving::RunContext& ctx) { Attach(ctx); };
}

void
ChaosController::Attach(const serving::RunContext& ctx)
{
  TETRI_CHECK_MSG(ctx.simulator != nullptr && ctx.engine != nullptr &&
                      ctx.tracker != nullptr && ctx.latents != nullptr &&
                      ctx.trace != nullptr && ctx.topology != nullptr &&
                      ctx.table != nullptr,
                  "chaos attached to an incomplete run context");
  ctx_ = ctx;
  trace_.Clear();
  failed_ = 0;

  ctx_.engine->set_on_assignment_aborted(
      [this](const serving::AbortReport& report) { OnAbort(report); });
  ctx_.engine->set_on_request_cancelled([this](serving::Request& req) {
    Record(ctx_.simulator->Now(), RecoveryEventKind::kCancelApplied,
           req.meta.id, 0);
  });

  // Scripted faults first (no randomness consumed), then the seeded
  // schedule. All times are drawn here, before the run starts, in one
  // fixed pass over one Rng stream: the schedule — and therefore the
  // whole replay — is a pure function of (config, trace, topology).
  for (const ScriptedFailure& f : config_.scripted) {
    ScheduleFailure(f.at_us, f.gpu, f.recover_after_us);
  }

  const Window w = TraceWindow(*ctx_.trace);
  const double span = static_cast<double>(w.end - w.begin);
  const int num_gpus = ctx_.topology->num_gpus();
  Rng rng(config_.seed);

  for (int i = 0; i < config_.gpu_failures; ++i) {
    // Truncation (not RoundUs) is part of the committed replay goldens:
    // a random instant has no tiling contract with any other quantity.
    const TimeUs at =
        w.begin +
        static_cast<TimeUs>(rng.NextDouble() * span);  // NOLINT(tetri-rounding)
    const int gpu = static_cast<int>(
        rng.NextBelow(static_cast<std::uint64_t>(num_gpus)));
    const TimeUs recover_after = UsFromSecAtLeastOne(
        rng.NextExponential(1.0 / config_.mean_time_to_recover_sec));
    ScheduleFailure(at, gpu, recover_after);
  }

  for (int i = 0; i < config_.stragglers; ++i) {
    // Same replay-golden truncation as the failure instants above.
    const TimeUs at =
        w.begin +
        static_cast<TimeUs>(rng.NextDouble() * span);  // NOLINT(tetri-rounding)
    const int gpu = static_cast<int>(
        rng.NextBelow(static_cast<std::uint64_t>(num_gpus)));
    ScheduleStraggler(at, gpu);
  }

  if (config_.cancel_fraction > 0.0) {
    for (const workload::TraceRequest& req : ctx_.trace->requests) {
      if (rng.NextDouble() >= config_.cancel_fraction) continue;
      const double budget =
          static_cast<double>(req.deadline_us - req.arrival_us);
      const double jitter = rng.NextRange(0.5, 1.5);
      const TimeUs after = util::RoundUsAtLeast(
          config_.cancel_after_frac * jitter * budget, 1);
      ScheduleCancel(req.arrival_us + after, req.id);
    }
  }
}

void
ChaosController::ScheduleFailure(TimeUs at_us, int gpu,
                                 TimeUs recover_after_us)
{
  TETRI_CHECK_MSG(gpu >= 0 && gpu < ctx_.topology->num_gpus(),
                  "chaos failure targets GPU " << gpu
                                               << " outside the node");
  const GpuMask bit = GpuMask{1} << gpu;
  ctx_.simulator->ScheduleAt(at_us, [this, bit]() {
    // Overlapping random windows on one GPU degenerate to skipped
    // fail/recover pairs via the failed_ mirror.
    if ((failed_ & bit) != 0) return;
    failed_ |= bit;
    Record(ctx_.simulator->Now(), RecoveryEventKind::kGpuFail,
           kInvalidRequest, bit);
    ctx_.engine->FailGpus(bit);
  });
  if (recover_after_us > 0) {
    ctx_.simulator->ScheduleAt(at_us + recover_after_us, [this, bit]() {
      if ((failed_ & bit) == 0) return;  // paired failure was skipped
      failed_ &= ~bit;
      Record(ctx_.simulator->Now(), RecoveryEventKind::kGpuRecover,
             kInvalidRequest, bit);
      ctx_.engine->RecoverGpus(bit);
    });
  }
}

void
ChaosController::ScheduleStraggler(TimeUs at_us, int gpu)
{
  TETRI_CHECK_MSG(gpu >= 0 && gpu < ctx_.topology->num_gpus(),
                  "chaos straggler targets GPU "
                      << gpu << " outside the node");
  const GpuMask bit = GpuMask{1} << gpu;
  const TimeUs duration =
      UsFromSecAtLeastOne(config_.straggler_duration_sec);
  ctx_.simulator->ScheduleAt(at_us, [this, gpu, bit]() {
    Record(ctx_.simulator->Now(), RecoveryEventKind::kStragglerStart,
           kInvalidRequest, bit);
    ctx_.engine->SetStragglerFactor(gpu, config_.straggler_factor);
  });
  ctx_.simulator->ScheduleAt(at_us + duration, [this, gpu, bit]() {
    Record(ctx_.simulator->Now(), RecoveryEventKind::kStragglerEnd,
           kInvalidRequest, bit);
    ctx_.engine->SetStragglerFactor(gpu, 1.0);
  });
}

void
ChaosController::ScheduleCancel(TimeUs at_us, RequestId id)
{
  ctx_.simulator->ScheduleAt(at_us, [this, id]() {
    Record(ctx_.simulator->Now(), RecoveryEventKind::kCancelRequest, id,
           0);
    if (!ctx_.tracker->Contains(id)) return;
    // kCancelApplied is recorded via the engine callback, either now
    // (queued) or when the in-flight round completes (running).
    ctx_.engine->Cancel(id);
  });
}

void
ChaosController::OnAbort(const serving::AbortReport& report)
{
  Record(report.now, RecoveryEventKind::kAbort, kInvalidRequest,
         report.mask);
  const RetryPolicy& policy = config_.retry;
  // Retry-policy decisions below also emit trace events (the engine
  // already traced the abort itself and the GPU failure).
  trace::TraceSink* tracer = ctx_.trace_sink;
  auto trace_drop = [&](RequestId id, trace::TraceReason why,
                        TimeUs deadline_us) {
    if (tracer == nullptr) return;
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kDrop;
    ev.reason = why;
    ev.time_us = report.now;
    ev.request = id;
    ev.value = static_cast<double>(deadline_us);
    tracer->OnEvent(ev);
  };
  for (RequestId id : report.requests) {
    serving::Request& req = ctx_.tracker->Get(id);
    // The abort already resolved members with a pending cancellation.
    if (req.state != serving::RequestState::kQueued) continue;

    ++req.failure_retries;
    if (req.failure_retries > policy.max_retries) {
      req.drop_reason = metrics::DropReason::kRetryBudget;
      trace_drop(id, trace::TraceReason::kRetryBudget,
                 req.meta.deadline_us);
      ctx_.tracker->Transition(req, serving::RequestState::kDropped,
                               report.now);
      ctx_.latents->Forget(req, report.now);
      Record(report.now, RecoveryEventKind::kRetryDrop, id, 0);
      continue;
    }

    if (policy.deadline_aware_drop) {
      // Lower bound on the residual work: fastest profiled step time,
      // no queueing, no round quantization. Only definitely-infeasible
      // requests are dropped early; the serving loop's timeout still
      // backstops the rest.
      const double fastest =
          ctx_.table->MinStepTimeUs(req.meta.resolution) *
          static_cast<double>(req.RemainingSteps());
      const double budget =
          static_cast<double>(req.meta.deadline_us - req.meta.arrival_us);
      const double drop_at = static_cast<double>(req.meta.arrival_us) +
                             ctx_.drop_timeout_factor * budget;
      if (static_cast<double>(report.now) + fastest > drop_at) {
        req.drop_reason = metrics::DropReason::kInfeasible;
        trace_drop(id, trace::TraceReason::kDeadlineInfeasible,
                   req.meta.deadline_us);
        ctx_.tracker->Transition(req, serving::RequestState::kDropped,
                                 report.now);
        ctx_.latents->Forget(req, report.now);
        Record(report.now, RecoveryEventKind::kRetryDrop, id, 0);
        continue;
      }
    }

    if (policy.degrade_sp && report.degree > 1) {
      const int cap = std::max(1, report.degree / 2);
      req.degree_cap =
          req.degree_cap > 0 ? std::min(req.degree_cap, cap) : cap;
      if (tracer != nullptr) {
        // The degraded-SP retry decision: from here on the scheduler
        // plans this request against the capped degree set.
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kDegrade;
        ev.reason = trace::TraceReason::kDegreeCap;
        ev.time_us = report.now;
        ev.request = id;
        ev.mask = report.mask;
        ev.degree = req.degree_cap;
        tracer->OnEvent(ev);
      }
    }
    Record(report.now, RecoveryEventKind::kRequeue, id, report.mask);
  }
}

void
ChaosController::Record(TimeUs time_us, RecoveryEventKind kind,
                        RequestId request, GpuMask mask)
{
  RecoveryEvent ev;
  ev.time_us = time_us;
  ev.kind = kind;
  ev.request = request;
  ev.mask = mask;
  trace_.Add(ev);
}

}  // namespace tetri::chaos
