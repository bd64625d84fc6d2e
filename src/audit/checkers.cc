#include "audit/checkers.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "cluster/gpu_set.h"
#include "costmodel/latency_table.h"
#include "serving/request.h"
#include "util/check.h"

namespace tetri::audit {

namespace {

/** Format helper: build a violation message from stream operands. */
template <typename... Parts>
std::string
Msg(const Parts&... parts)
{
  std::ostringstream oss;
  (oss << ... << parts);
  return oss.str();
}

int
StateInt(serving::RequestState s)
{
  return static_cast<int>(s);
}

const char*
StateName(int state)
{
  switch (static_cast<serving::RequestState>(state)) {
    case serving::RequestState::kQueued: return "Queued";
    case serving::RequestState::kRunning: return "Running";
    case serving::RequestState::kFinished: return "Finished";
    case serving::RequestState::kDropped: return "Dropped";
    case serving::RequestState::kCancelled: return "Cancelled";
  }
  return "Invalid";
}

/** Ids whose value in @p table equals @p value, ascending. */
std::vector<RequestId>
SortedIds(const IdTable<bool>& table, bool value)
{
  std::vector<RequestId> ids;
  table.ForEach([&](RequestId id, bool v) {
    if (v == value) ids.push_back(id);
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace

// --- EventTimeMonotonicityChecker ---

EventTimeMonotonicityChecker::EventTimeMonotonicityChecker()
    : Checker({TraceEventKind::kEventScheduled, TraceEventKind::kEventFired})
{
}

void
EventTimeMonotonicityChecker::OnEvent(const TraceEvent& event)
{
  if (event.kind == TraceEventKind::kEventScheduled) {
    if (event.dur_us < 0) {
      Report(event.time_us,
             Msg("event scheduled in the past: at=",
                 event.time_us + event.dur_us, " < now=", event.time_us));
    }
    return;
  }
  const auto prev = static_cast<TimeUs>(event.value);
  if (event.time_us < prev) {
    Report(event.time_us, Msg("clock ran backwards: fired at ",
                              event.time_us, " after clock read ", prev));
  }
}

// --- GpuConservationChecker ---

GpuConservationChecker::GpuConservationChecker()
    : Checker({TraceEventKind::kRoundPlan, TraceEventKind::kRoundAssignment,
               TraceEventKind::kDispatch, TraceEventKind::kComplete,
               TraceEventKind::kAbort})
{
}

void
GpuConservationChecker::OnEvent(const TraceEvent& event)
{
  const TimeUs now = event.time_us;
  const GpuMask mask = event.mask;
  switch (event.kind) {
    case TraceEventKind::kRoundPlan:
      round_free_ = mask;
      round_all_ = static_cast<GpuMask>(event.value);
      round_used_ = 0;
      return;
    case TraceEventKind::kRoundAssignment:
      if (mask == 0) {
        Report(now, "plan contains an empty GPU set");
        return;
      }
      if (round_all_ != 0 && (mask & ~round_all_) != 0) {
        Report(now, Msg("plan uses GPUs outside the node: ",
                        cluster::MaskToString(mask & ~round_all_)));
      }
      if ((mask & ~round_free_) != 0) {
        Report(now, Msg("plan uses busy GPUs ",
                        cluster::MaskToString(mask & ~round_free_)));
      }
      if ((mask & round_used_) != 0) {
        Report(now, Msg("plan double-books GPUs ",
                        cluster::MaskToString(mask & round_used_)));
      }
      round_used_ |= mask;
      if (!cluster::IsPow2(cluster::Popcount(mask))) {
        Report(now, Msg("SP degree ", cluster::Popcount(mask),
                        " is not a power of two for mask ",
                        cluster::MaskToString(mask)));
      }
      if (event.batch < 1) Report(now, "assignment without requests");
      if (event.steps < 1) {
        Report(now, Msg("assignment with non-positive step count ",
                        event.steps));
      }
      return;
    case TraceEventKind::kDispatch:
      if ((mask & busy_) != 0) {
        Report(now, Msg("dispatch oversubscribes busy GPUs ",
                        cluster::MaskToString(mask & busy_)));
      }
      if (!cluster::IsPow2(cluster::Popcount(mask))) {
        Report(now, Msg("dispatched SP degree ", cluster::Popcount(mask),
                        " is not a power of two"));
      }
      busy_ |= mask;
      return;
    default:  // kComplete, kAbort
      if ((mask & busy_) != mask) {
        Report(now, Msg(event.kind == TraceEventKind::kComplete
                            ? "completion"
                            : "abort",
                        " releases GPUs that were not busy: ",
                        cluster::MaskToString(mask & ~busy_)));
      }
      busy_ &= ~mask;
      return;
  }
}

// --- RequestLifecycleChecker ---

RequestLifecycleChecker::RequestLifecycleChecker()
    : Checker({TraceEventKind::kAdmit, TraceEventKind::kTransition})
{
}

void
RequestLifecycleChecker::OnEvent(const TraceEvent& event)
{
  if (event.kind == TraceEventKind::kTransition) {
    OnTransition(event);
    return;
  }
  const int queued = StateInt(serving::RequestState::kQueued);
  if (!state_.Insert(event.request, queued).second) {
    Report(event.time_us,
           Msg("request ", event.request, " admitted twice"));
  }
}

void
RequestLifecycleChecker::OnTransition(const TraceEvent& event)
{
  const RequestId id = event.request;
  const int from_state = event.degree;
  const int to_state = event.steps;
  const TimeUs now = event.time_us;
  int* state = state_.Find(id);
  if (state == nullptr) {
    Report(now, Msg("transition of unknown request ", id));
    state_.Insert(id, to_state);
    return;
  }
  if (*state != from_state) {
    Report(now, Msg("request ", id, " transition claims from-state ",
                    StateName(from_state), " but tracked state is ",
                    StateName(*state)));
  }
  using serving::RequestState;
  const auto from = static_cast<RequestState>(from_state);
  const auto to = static_cast<RequestState>(to_state);
  const bool legal =
      (from == RequestState::kQueued && to == RequestState::kRunning) ||
      (from == RequestState::kRunning && to == RequestState::kQueued) ||
      (from == RequestState::kRunning && to == RequestState::kFinished) ||
      (from == RequestState::kQueued && to == RequestState::kDropped) ||
      (from == RequestState::kQueued && to == RequestState::kCancelled) ||
      (from == RequestState::kRunning && to == RequestState::kCancelled);
  if (!legal) {
    Report(now, Msg("illegal transition of request ", id, ": ",
                    StateName(from_state), " -> ", StateName(to_state)));
  }
  *state = to_state;
}

// --- GpuHealthChecker ---

GpuHealthChecker::GpuHealthChecker()
    : Checker({TraceEventKind::kGpuFail, TraceEventKind::kGpuRecover,
               TraceEventKind::kRoundAssignment, TraceEventKind::kDispatch,
               TraceEventKind::kLatentAssign})
{
}

void
GpuHealthChecker::OnEvent(const TraceEvent& event)
{
  const TimeUs now = event.time_us;
  const GpuMask mask = event.mask;
  switch (event.kind) {
    case TraceEventKind::kGpuFail:
      if (mask == 0) Report(now, "empty GPU failure notification");
      if ((mask & failed_) != 0) {
        Report(now, Msg("GPUs failed twice without recovering: ",
                        cluster::MaskToString(mask & failed_)));
      }
      failed_ |= mask;
      return;
    case TraceEventKind::kGpuRecover:
      if ((mask & failed_) != mask) {
        Report(now, Msg("recovery of GPUs that were not failed: ",
                        cluster::MaskToString(mask & ~failed_)));
      }
      failed_ &= ~mask;
      return;
    default:
      break;
  }
  if ((mask & failed_) == 0) return;
  const std::string gpus = cluster::MaskToString(mask & failed_);
  switch (event.kind) {
    case TraceEventKind::kRoundAssignment:
      Report(now, Msg("plan schedules work on failed GPUs ", gpus));
      return;
    case TraceEventKind::kDispatch:
      Report(now, Msg("dispatch on failed GPUs ", gpus));
      return;
    default:  // kLatentAssign
      Report(now, Msg("latent of request ", event.request,
                      " placed on failed GPUs ", gpus));
      return;
  }
}

// --- RequestConservationChecker ---

RequestConservationChecker::RequestConservationChecker()
    : Checker({TraceEventKind::kAdmit, TraceEventKind::kTransition,
               TraceEventKind::kRunEnd})
{
}

void
RequestConservationChecker::OnEvent(const TraceEvent& event)
{
  switch (event.kind) {
    case TraceEventKind::kAdmit:
      if (!terminal_.Insert(event.request, false).second) {
        Report(event.time_us,
               Msg("request ", event.request, " admitted twice"));
        return;
      }
      ++admitted_;
      return;
    case TraceEventKind::kTransition:
      OnTransition(event);
      return;
    default:  // kRunEnd
      OnRunEnd(event.time_us);
      return;
  }
}

void
RequestConservationChecker::OnTransition(const TraceEvent& event)
{
  const auto to = static_cast<serving::RequestState>(event.steps);
  const bool is_terminal = to == serving::RequestState::kFinished ||
                           to == serving::RequestState::kDropped ||
                           to == serving::RequestState::kCancelled;
  if (!is_terminal) return;
  const RequestId id = event.request;
  bool* terminal = terminal_.Find(id);
  if (terminal == nullptr) {
    Report(event.time_us,
           Msg("request ", id,
               " reached a terminal state without being admitted"));
    return;
  }
  if (*terminal) {
    Report(event.time_us,
           Msg("request ", id, " reached a terminal state twice"));
    return;
  }
  *terminal = true;
  switch (to) {
    case serving::RequestState::kFinished: ++completed_; break;
    case serving::RequestState::kDropped: ++dropped_; break;
    default: ++cancelled_; break;
  }
}

void
RequestConservationChecker::OnRunEnd(TimeUs now)
{
  const std::vector<RequestId> lost = SortedIds(terminal_, false);
  for (RequestId id : lost) {
    Report(now, Msg("request ", id,
                    " silently lost: admitted but never reached a "
                    "terminal state"));
  }
  if (completed_ + dropped_ + cancelled_ + lost.size() != admitted_) {
    Report(now, Msg("terminal counts do not reconcile: completed ",
                    completed_, " + dropped ", dropped_, " + cancelled ",
                    cancelled_, " != admitted ", admitted_));
  }
}

// --- DeadlineAccountingChecker ---

DeadlineAccountingChecker::DeadlineAccountingChecker()
    : Checker({TraceEventKind::kAdmit, TraceEventKind::kRoundPlan,
               TraceEventKind::kDispatch, TraceEventKind::kMember,
               TraceEventKind::kComplete, TraceEventKind::kAbort,
               TraceEventKind::kTransition})
{
}

void
DeadlineAccountingChecker::OnEvent(const TraceEvent& event)
{
  switch (event.kind) {
    case TraceEventKind::kAdmit: OnAdmit(event); return;
    case TraceEventKind::kRoundPlan: OnRoundPlan(event); return;
    case TraceEventKind::kDispatch: OnDispatch(event); return;
    case TraceEventKind::kMember: OnMember(event); return;
    case TraceEventKind::kComplete: OnRelease(event, true); return;
    case TraceEventKind::kAbort: OnRelease(event, false); return;
    default: OnTransition(event); return;
  }
}

void
DeadlineAccountingChecker::OnAdmit(const TraceEvent& event)
{
  const RequestId id = event.request;
  const TimeUs arrival_us = event.time_us;
  const TimeUs deadline_us = arrival_us + static_cast<TimeUs>(event.value);
  if (deadline_us < arrival_us) {
    Report(arrival_us, Msg("request ", id, " deadline ", deadline_us,
                           " precedes arrival ", arrival_us));
  }
  if (event.steps < 1) {
    Report(arrival_us,
           Msg("request ", id, " admitted with ", event.steps, " steps"));
  }
  Account& acct = accounts_[id];
  acct.deadline_us = deadline_us;
  acct.num_steps = event.steps;
  acct.steps_done = 0;
}

void
DeadlineAccountingChecker::OnRoundPlan(const TraceEvent& event)
{
  const TimeUs now = event.time_us;
  if (event.dur_us < 0) {
    Report(now, Msg("round window ends in the past: ",
                    now + event.dur_us, " < ", now));
  }
  if (now < last_plan_now_) {
    Report(now, Msg("scheduler invoked backwards in time: ", now,
                    " after ", last_plan_now_));
  }
  last_plan_now_ = now;
}

void
DeadlineAccountingChecker::OnDispatch(const TraceEvent& event)
{
  if (event.steps < 1) {
    Report(event.time_us,
           Msg("dispatch with non-positive step count ", event.steps));
  }
  Flight* slot = nullptr;
  for (Flight& flight : flights_) {
    if (flight.mask == 0) {
      slot = &flight;
      break;
    }
  }
  // emplace_back may move every slot: open_ is re-pointed just below.
  if (slot == nullptr) slot = &flights_.emplace_back();
  slot->mask = event.mask;
  slot->members.clear();
  open_ = slot;
  open_steps_ = event.steps;
  open_resolution_ = -1;
}

void
DeadlineAccountingChecker::OnMember(const TraceEvent& event)
{
  const TimeUs now = event.time_us;
  const RequestId id = event.request;
  const auto resolution = static_cast<int>(event.value);
  if (open_ != nullptr && open_->mask == event.mask) {
    open_->members.push_back(id);
    if (open_resolution_ < 0) {
      open_resolution_ = resolution;
    } else if (resolution != open_resolution_) {
      Report(now, Msg("batched members mix resolutions (request ", id,
                      ")"));
    }
    if (open_steps_ > event.steps) {
      Report(now, Msg("dispatch of ", open_steps_,
                      " steps exceeds remaining ", event.steps,
                      " of request ", id));
    }
  }
  const Account* acct = accounts_.Find(id);
  if (acct == nullptr) {
    Report(now, Msg("dispatch of unknown request ", id));
    return;
  }
  const int expected = acct->num_steps - acct->steps_done;
  if (event.steps != expected) {
    Report(now, Msg("remaining-step accounting drift for request ", id,
                    ": engine says ", event.steps, ", audit says ",
                    expected));
  }
}

void
DeadlineAccountingChecker::OnRelease(const TraceEvent& event, bool credit)
{
  for (Flight& flight : flights_) {
    if (flight.mask != event.mask) continue;
    if (credit) {
      for (RequestId id : flight.members) {
        Account* acct = accounts_.Find(id);
        if (acct == nullptr) continue;  // already reported at dispatch
        acct->steps_done += event.steps;
        if (acct->steps_done > acct->num_steps) {
          Report(event.time_us,
                 Msg("request ", id, " executed ", acct->steps_done,
                     " of ", acct->num_steps, " steps"));
        }
      }
    }
    flight.mask = 0;
    if (open_ == &flight) open_ = nullptr;
    return;
  }
}

void
DeadlineAccountingChecker::OnTransition(const TraceEvent& event)
{
  if (event.steps != StateInt(serving::RequestState::kFinished)) return;
  const Account* acct = accounts_.Find(event.request);
  if (acct == nullptr) return;
  if (acct->steps_done != acct->num_steps) {
    Report(event.time_us, Msg("request ", event.request, " finished with ",
                              acct->num_steps - acct->steps_done,
                              " steps outstanding"));
  }
}

// --- LatentLifetimeChecker ---

LatentLifetimeChecker::LatentLifetimeChecker()
    : Checker({TraceEventKind::kLatentAssign, TraceEventKind::kLatentRelease})
{
}

void
LatentLifetimeChecker::OnEvent(const TraceEvent& event)
{
  const RequestId id = event.request;
  const TimeUs now = event.time_us;
  if (event.kind == TraceEventKind::kLatentRelease) {
    if (!released_.Insert(id, true).second) {
      Report(now, Msg("latent of request ", id, " released twice"));
    }
    return;
  }
  if (event.mask == 0) {
    Report(now, Msg("latent of request ", id,
                    " assigned to an empty GPU set"));
  }
  if (released_.Find(id) != nullptr) {
    Report(now, Msg("latent of request ", id, " used after release"));
  }
}

// --- CostModelSanityChecker ---

CostModelSanityChecker::CostModelSanityChecker(
    const costmodel::LatencyTable* table)
    : Checker(std::initializer_list<TraceEventKind>{}), table_(table)
{
  TETRI_CHECK(table_ != nullptr);
}

void
CostModelSanityChecker::Validate()
{
  TableView view;
  view.degrees = table_->degrees();
  view.max_batch = table_->max_batch();
  view.step_us = [this](costmodel::Resolution r, int d, int b) {
    return table_->StepTimeUs(r, d, b);
  };
  view.cv = [this](costmodel::Resolution r, int d, int b) {
    return table_->StepCv(r, d, b);
  };
  view.gpu_us = [this](costmodel::Resolution r, int d, int b) {
    return table_->GpuTimeUs(r, d, b);
  };
  view.vae_us = [this](costmodel::Resolution r) {
    return table_->VaeDecodeUs(r);
  };
  ValidateView(view);
}

void
CostModelSanityChecker::ValidateView(const TableView& view)
{
  using costmodel::kAllResolutions;
  using costmodel::Resolution;
  for (int degree : view.degrees) {
    for (int batch = 1; batch <= view.max_batch; ++batch) {
      double prev_mean = 0.0;
      for (Resolution res : kAllResolutions) {
        const double mean = view.step_us(res, degree, batch);
        const double cv = view.cv(res, degree, batch);
        const double gpu = view.gpu_us(res, degree, batch);
        if (!std::isfinite(mean) || mean <= 0.0) {
          Report(0, Msg("non-positive step time ", mean, " at ",
                        ResolutionName(res), " degree ", degree,
                        " batch ", batch));
        }
        if (!std::isfinite(cv) || cv < 0.0) {
          Report(0, Msg("invalid jitter cv ", cv, " at ",
                        ResolutionName(res), " degree ", degree,
                        " batch ", batch));
        }
        if (gpu + 1e-9 < mean) {
          Report(0, Msg("GPU time ", gpu, " below step time ", mean,
                        " at ", ResolutionName(res), " degree ", degree,
                        " batch ", batch));
        }
        // Monotone in resolution, up to a small band: at high degrees
        // a small model is communication/overhead-bound, and the cost
        // model legitimately prices neighbouring small resolutions
        // within a few percent of each other in either order
        // (SD3-Medium at degree 8 puts 256px ~3% above 512px). Only an
        // inversion beyond the band indicates a corrupted table.
        if (mean < 0.95 * prev_mean) {
          Report(0, Msg("step time not monotone in resolution at ",
                        ResolutionName(res), " degree ", degree,
                        " batch ", batch, ": ", mean, " < ", prev_mean));
        }
        prev_mean = mean;
      }
    }
  }
  double prev_vae = 0.0;
  for (Resolution res : kAllResolutions) {
    const double vae = view.vae_us(res);
    if (!std::isfinite(vae) || vae < 0.0) {
      Report(0, Msg("invalid VAE decode time ", vae, " at ",
                    ResolutionName(res)));
    }
    if (vae < prev_vae) {
      Report(0, Msg("VAE decode time not monotone in resolution at ",
                    ResolutionName(res)));
    }
    prev_vae = vae;
  }
}

// --- installation helpers ---

void
InstallStandardCheckers(Auditor& auditor)
{
  auditor.AddChecker(std::make_unique<EventTimeMonotonicityChecker>());
  auditor.AddChecker(std::make_unique<GpuConservationChecker>());
  auditor.AddChecker(std::make_unique<RequestLifecycleChecker>());
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  auditor.AddChecker(std::make_unique<LatentLifetimeChecker>());
  auditor.AddChecker(std::make_unique<GpuHealthChecker>());
  auditor.AddChecker(std::make_unique<RequestConservationChecker>());
}

CostModelSanityChecker&
InstallCostModelChecker(Auditor& auditor,
                        const costmodel::LatencyTable* table)
{
  auto& checker = static_cast<CostModelSanityChecker&>(auditor.AddChecker(
      std::make_unique<CostModelSanityChecker>(table)));
  checker.Validate();
  return checker;
}

}  // namespace tetri::audit
