#include "trace/trace.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/check.h"

namespace tetri::trace {

const char*
TraceEventKindName(TraceEventKind kind)
{
  switch (kind) {
    case TraceEventKind::kRoundBegin: return "RoundBegin";
    case TraceEventKind::kPlanCandidate: return "PlanCandidate";
    case TraceEventKind::kPlanChoice: return "PlanChoice";
    case TraceEventKind::kShed: return "Shed";
    case TraceEventKind::kDegrade: return "Degrade";
    case TraceEventKind::kRoundEnd: return "RoundEnd";
    case TraceEventKind::kRoundPlan: return "RoundPlan";
    case TraceEventKind::kRoundAssignment: return "RoundAssignment";
    case TraceEventKind::kDispatch: return "Dispatch";
    case TraceEventKind::kMember: return "Member";
    case TraceEventKind::kStep: return "Step";
    case TraceEventKind::kComplete: return "Complete";
    case TraceEventKind::kAbort: return "Abort";
    case TraceEventKind::kAdmit: return "Admit";
    case TraceEventKind::kTransition: return "Transition";
    case TraceEventKind::kDrop: return "Drop";
    case TraceEventKind::kCancel: return "Cancel";
    case TraceEventKind::kFinish: return "Finish";
    case TraceEventKind::kLatentAssign: return "LatentAssign";
    case TraceEventKind::kLatentRelease: return "LatentRelease";
    case TraceEventKind::kEventScheduled: return "EventScheduled";
    case TraceEventKind::kEventFired: return "EventFired";
    case TraceEventKind::kGpuFail: return "GpuFail";
    case TraceEventKind::kGpuRecover: return "GpuRecover";
    case TraceEventKind::kStragglerStart: return "StragglerStart";
    case TraceEventKind::kStragglerEnd: return "StragglerEnd";
    case TraceEventKind::kRunEnd: return "RunEnd";
  }
  return "Unknown";
}

const char*
TraceReasonName(TraceReason reason)
{
  switch (reason) {
    case TraceReason::kNone: return "-";
    case TraceReason::kTimeout: return "timeout";
    case TraceReason::kRetryBudget: return "retry_budget";
    case TraceReason::kDeadlineInfeasible: return "deadline_infeasible";
    case TraceReason::kDegreeCap: return "degree_cap";
    case TraceReason::kPacked: return "packed";
    case TraceReason::kBestEffort: return "best_effort";
    case TraceReason::kElastic: return "elastic";
    case TraceReason::kBatchJoin: return "batch_join";
    case TraceReason::kScaleUp: return "scale_up";
    case TraceReason::kRollback: return "rollback";
    case TraceReason::kFragmented: return "fragmented";
    case TraceReason::kGpuFailure: return "gpu_failure";
  }
  return "?";
}

std::string
ToString(const TraceEvent& event)
{
  std::ostringstream out;
  out << "seq=" << event.seq << " t=" << event.time_us;
  if (event.dur_us != 0) out << " dur=" << event.dur_us;
  out << ' ' << TraceEventKindName(event.kind);
  if (event.reason != TraceReason::kNone) {
    out << " reason=" << TraceReasonName(event.reason);
  }
  if (event.request != kInvalidRequest) out << " req=" << event.request;
  if (event.mask != 0) {
    out << " mask=0x" << std::hex << event.mask << std::dec;
  }
  if (event.round >= 0) out << " round=" << event.round;
  if (event.degree != 0) out << " deg=" << event.degree;
  if (event.steps != 0) out << " steps=" << event.steps;
  if (event.batch != 0) out << " batch=" << event.batch;
  if (event.value != 0.0) {
    // Fixed %.6g formatting keeps the line identical across replays
    // regardless of stream state.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", event.value);
    out << " value=" << buf;
  }
  return out.str();
}

std::string
ToString(const std::vector<TraceEvent>& events)
{
  std::string out;
  for (const TraceEvent& event : events) {
    out += ToString(event);
    out += '\n';
  }
  return out;
}

void
Tracer::AddSink(TraceSink* sink)
{
  TETRI_CHECK(sink != nullptr);
  const util::MutexLock lock(mu_);
  if (std::find(sinks_.begin(), sinks_.end(), sink) != sinks_.end()) {
    return;
  }
  sinks_.push_back(sink);
}

void
Tracer::RemoveSink(TraceSink* sink)
{
  const util::MutexLock lock(mu_);
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink),
               sinks_.end());
}

std::size_t
Tracer::num_sinks() const
{
  const util::MutexLock lock(mu_);
  return sinks_.size();
}

void
Tracer::OnEvent(const TraceEvent& event)
{
  // Stamp and deliver under one lock: concurrent emitters cannot
  // interleave between the stamp and the fan-out, so every sink sees
  // the stream in stamped order (the RunWorkers ordering fix).
  const util::MutexLock lock(mu_);
  TraceEvent stamped = event;
  stamped.seq = next_seq_++;
  for (TraceSink* sink : sinks_) {
    try {
      sink->OnEvent(stamped);
    } catch (...) {
      // A throwing sink must not lose the event for its peers or tear
      // the sequence; record and continue.
      ++sink_errors_;
    }
  }
}

std::uint64_t
Tracer::events_seen() const
{
  const util::MutexLock lock(mu_);
  return next_seq_ - 1;
}

std::uint64_t
Tracer::sink_errors() const
{
  const util::MutexLock lock(mu_);
  return sink_errors_;
}

bool
TraceQuery::Matches(const TraceEvent& event) const
{
  if (request != kInvalidRequest && event.request != request) {
    return false;
  }
  if (mask != 0 && (event.mask & mask) == 0) return false;
  if (round >= 0 && event.round != round) return false;
  if (event.time_us < begin_us || event.time_us >= end_us) return false;
  if (has_kind && event.kind != kind) return false;
  return true;
}

RingBufferSink::RingBufferSink(std::size_t capacity)
    : capacity_(capacity)
{
  TETRI_CHECK(capacity_ > 0);
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

void
RingBufferSink::OnEvent(const TraceEvent& event)
{
  const util::MutexLock lock(mu_);
  if (size_ < capacity_) {
    ring_.push_back(event);
    ++size_;
    return;
  }
  // Full: overwrite the oldest slot and advance the wrap cursor.
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<TraceEvent>
RingBufferSink::events() const
{
  const util::MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % size_]);
  }
  return out;
}

std::vector<TraceEvent>
RingBufferSink::Query(const TraceQuery& query) const
{
  const util::MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceEvent& event = ring_[(head_ + i) % size_];
    if (query.Matches(event)) out.push_back(event);
  }
  return out;
}

std::size_t
RingBufferSink::size() const
{
  const util::MutexLock lock(mu_);
  return size_;
}

std::uint64_t
RingBufferSink::dropped() const
{
  const util::MutexLock lock(mu_);
  return dropped_;
}

void
RingBufferSink::Clear()
{
  const util::MutexLock lock(mu_);
  ring_.clear();
  head_ = 0;
  size_ = 0;
}

}  // namespace tetri::trace
