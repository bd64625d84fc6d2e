#include "sim/simulator.h"

#include "util/check.h"

namespace tetri::sim {

void
Simulator::ScheduleAt(TimeUs at, EventFn fn)
{
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kEventScheduled;
    ev.time_us = now_;
    ev.dur_us = at - now_;
    ev.value = static_cast<double>(at);
    trace_->OnEvent(ev);
  }
  TETRI_CHECK_MSG(at >= now_, "event scheduled in the past: " << at
                              << " < " << now_);
  queue_.Push(at, fn);
}

void
Simulator::ScheduleAfter(TimeUs delay, EventFn fn)
{
  TETRI_CHECK(delay >= 0);
  // Route through ScheduleAt so the sink sees every scheduled event,
  // not just the absolute-time ones.
  ScheduleAt(now_ + delay, fn);
}

bool
Simulator::Step()
{
  if (queue_.empty()) return false;
  const auto [time, fn] = queue_.Pop();
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kEventFired;
    ev.time_us = time;
    ev.value = static_cast<double>(now_);
    trace_->OnEvent(ev);
  }
  TETRI_CHECK(time >= now_);
  now_ = time;
  ++events_fired_;
  fn();
  return true;
}

void
Simulator::RunAll()
{
  while (Step()) {
  }
}

void
Simulator::RunUntil(TimeUs until)
{
  TETRI_CHECK(until >= now_);
  while (!queue_.empty() && queue_.NextTime() <= until) {
    Step();
  }
  now_ = until;
}

}  // namespace tetri::sim
