/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are ordered by (time, insertion sequence) so that two events
 * scheduled for the same instant always fire in insertion order. This
 * makes every simulation bit-reproducible regardless of the standard
 * library's heap implementation details.
 *
 * Pushes that arrive in (time, seq) order — a trace's pre-scheduled
 * arrivals, for one — append to a FIFO run instead of the heap, so the
 * heap holds only the out-of-order working set (round ticks, step and
 * completion events) and its cost does not grow with trace length.
 * Pop takes the earlier of the two heads, so the order is unchanged.
 */
#ifndef TETRI_SIM_EVENT_QUEUE_H
#define TETRI_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "util/types.h"

namespace tetri::sim {

/** Callback executed when an event fires. */
using EventFn = std::function<void()>;

/** Priority queue of timestamped callbacks with stable same-time order. */
class EventQueue {
 public:
  /** Enqueue @p fn to fire at absolute time @p at. */
  void Push(TimeUs at, EventFn fn);

  bool empty() const { return run_.empty() && heap_.empty(); }
  std::size_t size() const { return run_.size() + heap_.size(); }

  /** Timestamp of the earliest pending event; queue must be non-empty. */
  TimeUs NextTime() const;

  /** Remove and return the earliest event. Queue must be non-empty. */
  std::pair<TimeUs, EventFn> Pop();

 private:
  struct Entry {
    TimeUs time;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /** True when the run's head fires before the heap's top. */
  bool RunFirst() const;

  /** Events pushed in non-decreasing time order, oldest first. */
  std::deque<Entry> run_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace tetri::sim

#endif  // TETRI_SIM_EVENT_QUEUE_H
