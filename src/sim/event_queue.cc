#include "sim/event_queue.h"

#include "util/check.h"

namespace tetri::sim {

void
EventQueue::Push(TimeUs at, EventFn fn)
{
  // seq only grows, so a time no earlier than the run's tail keeps the
  // run sorted by (time, seq).
  if (run_.empty() || at >= run_.back().time) {
    run_.push_back(Entry{at, next_seq_++, fn});
  } else {
    heap_.push(Entry{at, next_seq_++, fn});
  }
}

bool
EventQueue::RunFirst() const
{
  if (run_.empty()) return false;
  return heap_.empty() || Later()(heap_.top(), run_.front());
}

TimeUs
EventQueue::NextTime() const
{
  TETRI_CHECK(!empty());
  return RunFirst() ? run_.front().time : heap_.top().time;
}

std::pair<TimeUs, EventFn>
EventQueue::Pop()
{
  TETRI_CHECK(!empty());
  // Entries are plain bytes: copying the head out costs no more than
  // moving it would.
  if (RunFirst()) {
    const Entry front = run_.front();
    run_.pop_front();
    return {front.time, front.fn};
  }
  const Entry top = heap_.top();
  heap_.pop();
  return {top.time, top.fn};
}

}  // namespace tetri::sim
