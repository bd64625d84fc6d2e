#include "probes.h"

#include <algorithm>
#include <cmath>

#include "report.h"

namespace perfbench {

using tetri::GpuMask;
using tetri::RequestId;
using tetri::TimeUs;
using tetri::trace::TraceEvent;
using tetri::trace::TraceEventKind;

namespace {

double
SecFromNs(std::int64_t ns)
{
  return static_cast<double>(ns) * 1e-9;
}

}  // namespace

tetri::serving::RoundPlan
TimedScheduler::Plan(const tetri::serving::ScheduleContext& ctx)
{
  const std::size_t depth = ctx.schedulable->size();
  const std::int64_t enter = NowNs();
  if (observer_ != nullptr) observer_->OnPlanEnter(enter);
  tetri::serving::RoundPlan plan = inner_->Plan(ctx);
  const std::int64_t exit = NowNs();
  if (observer_ != nullptr) observer_->OnPlanExit(plan, exit);
  stats_.plan_us.push_back(static_cast<double>(exit - enter) * 1e-3);
  stats_.depth_sum += static_cast<double>(depth);
  stats_.depth_max = std::max(stats_.depth_max, depth);
  stats_.assignments += plan.assignments.size();
  return plan;
}

void
PlanStats::Merge(const PlanStats& o)
{
  plan_us.insert(plan_us.end(), o.plan_us.begin(), o.plan_us.end());
  depth_sum += o.depth_sum;
  depth_max = std::max(depth_max, o.depth_max);
  assignments += o.assignments;
}

void
PlanStats::Report(perfbench::Report* report) const
{
  const double calls = static_cast<double>(plan_us.size());
  double total_us = 0.0;
  for (double us : plan_us) total_us += us;
  report->Set("core.plan_calls", calls);
  report->Set("core.plan_self_s", total_us * 1e-6);
  report->Set("core.plan_p50_us", Percentile(plan_us, 50));
  report->Set("core.plan_p99_us", Percentile(plan_us, 99));
  report->Set("core.queue_depth_mean", calls > 0 ? depth_sum / calls : 0.0);
  report->Set("core.queue_depth_max", static_cast<double>(depth_max));
  report->Set("core.assignments_per_plan",
              calls > 0 ? static_cast<double>(assignments) / calls : 0.0);
}

void
ReplaySplit::Merge(const ReplaySplit& o)
{
  prologue_s += o.prologue_s;
  snapshot_s += o.snapshot_s;
  plan_s += o.plan_s;
  dispatch_s += o.dispatch_s;
  tick_tail_s += o.tick_tail_s;
  idle_tick_s += o.idle_tick_s;
  event_s += o.event_s;
  queue_pop_s += o.queue_pop_s;
  epilogue_s += o.epilogue_s;
  unattributed_s += o.unattributed_s;
  events_fired += o.events_fired;
  other_events += o.other_events;
  plan_ticks += o.plan_ticks;
  idle_ticks += o.idle_ticks;
  decomposition_mismatches += o.decomposition_mismatches;
}

ReplayProbe::ReplayProbe(const tetri::workload::Trace* trace,
                         const tetri::costmodel::LatencyTable* table,
                         const tetri::cluster::Topology* topology)
    : trace_(trace), table_(table), topology_(topology)
{
  RequestId max_id = 0;
  for (const auto& req : trace_->requests) max_id = std::max(max_id, req.id);
  requests_.resize(static_cast<std::size_t>(max_id) + 1);
  parts_.reserve(trace_->requests.size());
}

void
ReplayProbe::Begin()
{
  run_begin_ns_ = NowNs();
}

void
ReplayProbe::End()
{
  const std::int64_t now = NowNs();
  CloseHandler(run_end_event_ns_ > 0 ? run_end_event_ns_ : now);
  if (run_end_event_ns_ > 0) {
    split_.epilogue_s += SecFromNs(now - run_end_event_ns_);
  }
  run_wall_s_ = SecFromNs(now - run_begin_ns_);
  split_.unattributed_s = std::max(0.0, run_wall_s_ - split_.Attributed());
}

void
ReplayProbe::CloseHandler(std::int64_t next_ns)
{
  if (!handler_.open) {
    if (!first_fired_seen_) {
      split_.prologue_s += SecFromNs(next_ns - run_begin_ns_);
    }
    return;
  }
  Handler& h = handler_;
  ++split_.events_fired;
  if (h.planned) {
    ++split_.plan_ticks;
    split_.snapshot_s += SecFromNs(h.plan_enter_ns - h.fired_ns);
    split_.plan_s += SecFromNs(h.plan_exit_ns - h.plan_enter_ns);
    // A tick that planned always ends by rescheduling itself one round
    // later, so its last emission is that kEventScheduled.
    if (h.last_kind == TraceEventKind::kEventScheduled &&
        h.last_ns > h.plan_exit_ns) {
      split_.dispatch_s += SecFromNs(h.prev_ns - h.plan_exit_ns);
      split_.tick_tail_s += SecFromNs(h.last_ns - h.prev_ns);
      split_.queue_pop_s += SecFromNs(next_ns - h.last_ns);
    }
  } else if (h.tick) {
    ++split_.idle_ticks;
    split_.idle_tick_s += SecFromNs(h.last_ns - h.fired_ns);
    split_.queue_pop_s += SecFromNs(next_ns - h.last_ns);
  } else {
    ++split_.other_events;
    split_.event_s += SecFromNs(next_ns - h.fired_ns);
  }
  h = Handler{};
}

void
ReplayProbe::OnPlanEnter(std::int64_t ns)
{
  handler_.tick = true;
  handler_.planned = true;
  handler_.plan_enter_ns = ns;
}

void
ReplayProbe::OnPlanExit(const tetri::serving::RoundPlan& /*plan*/,
                        std::int64_t ns)
{
  handler_.plan_exit_ns = ns;
  handler_.last_ns = ns;
  handler_.prev_ns = ns;
}

void
ReplayProbe::OnEvent(const TraceEvent& event)
{
  const std::int64_t ns = NowNs();
  switch (event.kind) {
    case TraceEventKind::kEventFired:
      CloseHandler(ns);
      first_fired_seen_ = true;
      handler_.open = true;
      handler_.fired_ns = ns;
      handler_.last_ns = ns;
      handler_.prev_ns = ns;
      return;
    case TraceEventKind::kRunEnd:
      CloseHandler(ns);
      run_end_event_ns_ = ns;
      return;
    default:
      break;
  }
  if (handler_.open) {
    // Only a round tick opens with a reschedule (nothing to plan) or a
    // timeout drop from its snapshot; every other handler's first
    // emission names it (kAdmit, kComplete, kGpuFail, ...).
    if (handler_.events == 0 && !handler_.planned) {
      handler_.tick =
          event.kind == TraceEventKind::kEventScheduled ||
          (event.kind == TraceEventKind::kDrop &&
           event.reason == tetri::trace::TraceReason::kTimeout);
    }
    ++handler_.events;
    handler_.prev_ns = handler_.last_ns;
    handler_.last_ns = ns;
    handler_.last_kind = event.kind;
  }
  Decompose(event);
}

void
ReplayProbe::EndFlight(const TraceEvent& event)
{
  const auto it = flights_.find(event.mask);
  if (it == flights_.end()) return;
  const Flight& f = it->second;
  const TimeUs held = event.time_us - f.start_us;
  const TimeUs transfer = std::min(f.transfer_us, held);
  for (const RequestId id : f.members) {
    RequestState& r = requests_[static_cast<std::size_t>(id)];
    r.transfer_us += transfer;
    r.exec_us += held - transfer;
    r.ready_us = event.time_us;
  }
  flights_.erase(it);
}

void
ReplayProbe::Decompose(const TraceEvent& event)
{
  switch (event.kind) {
    case TraceEventKind::kAdmit: {
      RequestState& r = requests_[static_cast<std::size_t>(event.request)];
      r = RequestState{};
      r.arrival_us = event.time_us;
      r.ready_us = event.time_us;
      return;
    }
    case TraceEventKind::kDispatch: {
      open_dispatch_ = event;
      open_dispatch_priced_ = false;
      Flight& f = flights_[event.mask];
      f.start_us = event.time_us;
      f.transfer_us = static_cast<TimeUs>(event.value);
      f.members.clear();
      return;
    }
    case TraceEventKind::kMember: {
      RequestState& r = requests_[static_cast<std::size_t>(event.request)];
      r.queue_us += event.time_us - r.ready_us;
      flights_[event.mask].members.push_back(event.request);
      if (!open_dispatch_priced_ && event.mask == open_dispatch_.mask) {
        open_dispatch_priced_ = true;
        const auto& meta =
            trace_->requests[static_cast<std::size_t>(event.request)];
        const double priced =
            table_->StepTimeUs(meta.resolution, open_dispatch_.degree,
                               open_dispatch_.batch) *
            open_dispatch_.steps;
        const double charged =
            static_cast<double>(open_dispatch_.dur_us) - open_dispatch_.value;
        const double err = std::abs(charged / priced - 1.0);
        price_error_.push_back(err);
        if (open_dispatch_.degree > 1 &&
            !topology_->IsNvLinkOnly(open_dispatch_.mask)) {
          straddle_price_error_.push_back(err);
        }
      }
      return;
    }
    case TraceEventKind::kComplete:
    case TraceEventKind::kAbort:
      EndFlight(event);
      return;
    case TraceEventKind::kFinish: {
      const RequestState& r =
          requests_[static_cast<std::size_t>(event.request)];
      const TimeUs completion = static_cast<TimeUs>(event.value);
      const TimeUs tail = completion - event.time_us;
      const TimeUs latency = completion - r.arrival_us;
      if (r.queue_us + r.transfer_us + r.exec_us + tail != latency ||
          event.time_us != r.ready_us) {
        ++split_.decomposition_mismatches;
      }
      LatencyParts p;
      p.latency = tetri::SecFromUs(latency);
      p.queue_wait = tetri::SecFromUs(r.queue_us);
      p.transfer_stall = tetri::SecFromUs(r.transfer_us);
      p.execution = tetri::SecFromUs(r.exec_us);
      p.tail = tetri::SecFromUs(tail);
      parts_.push_back(p);
      return;
    }
    default:
      return;
  }
}

RuntimeProbe::RuntimeProbe(std::size_t max_requests)
    : submit_return_ns_(max_requests, -1),
      admit_ns_(max_requests, -1),
      first_plan_ns_(max_requests, -1),
      complete_ns_(max_requests, -1)
{
}

void
RuntimeProbe::OnEvent(const TraceEvent& event)
{
  const std::int64_t ns = NowNs();
  const std::lock_guard<std::mutex> lock(mu_);
  switch (event.kind) {
    case TraceEventKind::kAdmit:
      if (Tracked(event.request)) {
        admit_ns_[static_cast<std::size_t>(event.request)] = ns;
      }
      return;
    case TraceEventKind::kDispatch: {
      const auto it = pending_.find(event.mask);
      if (it == pending_.end()) return;
      it->second.dispatch_ns = ns;
      dispatch_wait_us_.push_back(
          static_cast<double>(ns - it->second.plan_exit_ns) * 1e-3);
      return;
    }
    case TraceEventKind::kComplete:
    case TraceEventKind::kAbort: {
      const auto it = pending_.find(event.mask);
      if (it == pending_.end()) return;
      if (it->second.dispatch_ns >= 0) {
        worker_us_.push_back(
            static_cast<double>(ns - it->second.dispatch_ns) * 1e-3);
      }
      for (const RequestId id : it->second.members) {
        if (Tracked(id)) complete_ns_[static_cast<std::size_t>(id)] = ns;
      }
      pending_.erase(it);
      return;
    }
    default:
      return;
  }
}

void
RuntimeProbe::OnPlanEnter(std::int64_t /*ns*/)
{
}

void
RuntimeProbe::OnPlanExit(const tetri::serving::RoundPlan& plan,
                         std::int64_t ns)
{
  const std::lock_guard<std::mutex> lock(mu_);
  for (const tetri::serving::Assignment& a : plan.assignments) {
    Pending& p = pending_[a.mask];
    p.plan_exit_ns = ns;
    p.dispatch_ns = -1;
    p.members = a.requests;
    for (const RequestId id : a.requests) {
      if (!Tracked(id)) continue;
      std::int64_t& first = first_plan_ns_[static_cast<std::size_t>(id)];
      if (first < 0) first = ns;
    }
  }
}

void
RuntimeProbe::OnCompletion(RequestId id, std::int64_t ns)
{
  const std::lock_guard<std::mutex> lock(mu_);
  if (!Tracked(id)) return;
  const std::int64_t complete = complete_ns_[static_cast<std::size_t>(id)];
  if (complete >= 0) {
    apply_us_.push_back(static_cast<double>(ns - complete) * 1e-3);
  }
}

RuntimeHops
RuntimeProbe::Hops() const
{
  const std::lock_guard<std::mutex> lock(mu_);
  RuntimeHops hops;
  for (std::size_t i = 0; i < admit_ns_.size(); ++i) {
    if (admit_ns_[i] < 0) continue;
    if (submit_return_ns_[i] >= 0) {
      // The planner can drain a request before Submit has returned to
      // the producer; that request waited zero time.
      hops.admit_wait_us.push_back(
          std::max<double>(0.0, static_cast<double>(admit_ns_[i] -
                                                    submit_return_ns_[i]) *
                                    1e-3));
    }
    if (first_plan_ns_[i] >= 0) {
      hops.plan_wait_us.push_back(
          static_cast<double>(first_plan_ns_[i] - admit_ns_[i]) * 1e-3);
    }
  }
  hops.dispatch_wait_us = dispatch_wait_us_;
  hops.worker_us = worker_us_;
  hops.apply_us = apply_us_;
  return hops;
}

}  // namespace perfbench
