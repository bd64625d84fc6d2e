#include "sim/event_queue.h"

#include <utility>

#include "util/check.h"

namespace tetri::sim {

void
EventQueue::Push(TimeUs at, EventFn fn)
{
  // seq only grows, so a time no earlier than the run's tail keeps the
  // run sorted by (time, seq).
  if (run_.empty() || at >= run_.back().time) {
    run_.push_back(Entry{at, next_seq_++, std::move(fn)});
  } else {
    heap_.push(Entry{at, next_seq_++, std::move(fn)});
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
  if (RunFirst()) {
    Entry front = std::move(run_.front());
    run_.pop_front();
    return {front.time, std::move(front.fn)};
  }
  // priority_queue::top() returns const&; move is safe because we pop
  // immediately afterwards.
  Entry top = std::move(const_cast<Entry&>(heap_.top()));
  heap_.pop();
  return {top.time, std::move(top.fn)};
}

}  // namespace tetri::sim
