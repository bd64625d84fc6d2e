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
 *
 * Events are plain bytes: an EventFn is a function pointer plus a
 * small inline copy of the closure, so Push and Pop copy a fixed-size
 * record and firing is one indirect call, with no heap and no
 * type-erased copy or destroy step.
 */
#ifndef TETRI_SIM_EVENT_QUEUE_H
#define TETRI_SIM_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <queue>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/types.h"

namespace tetri::sim {

/**
 * Callback executed when an event fires: a trivially copyable closure
 * of at most kInlineBytes, e.g. `[this, flight_id]` or `[&arrive, i]`.
 * The closure is copied into the event by value and must not own
 * anything; a callable that does (a std::function, a vector) is
 * rejected at compile time and is captured by reference instead:
 * `[&fn] { fn(); }`.
 */
class EventFn {
 public:
  /** Bytes of closure state an event carries inline. */
  static constexpr std::size_t kInlineBytes = 24;
  /** Alignment of the inline state: pointers and 64-bit ids. */
  static constexpr std::size_t kInlineAlign = alignof(void*);

  /** Wrap @p fn; implicit so a lambda converts where an EventFn is
   * expected. */
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn>>>
  EventFn(F fn) : call_(&Invoke<F>)
  {
    static_assert(sizeof(F) <= kInlineBytes,
                  "event closure exceeds EventFn::kInlineBytes; capture "
                  "a reference to larger state instead");
    static_assert(alignof(F) <= kInlineAlign,
                  "event closure is over-aligned");
    static_assert(std::is_trivially_copyable_v<F> &&
                      std::is_trivially_destructible_v<F>,
                  "event closure must be trivially copyable; capture "
                  "owning state (std::function, containers) by "
                  "reference");
    ::new (static_cast<void*>(storage_)) F(fn);
  }

  /** Fire the closure. */
  void operator()() const { call_(storage_); }

 private:
  template <typename F>
  static void Invoke(const void* storage)
  {
    (*std::launder(static_cast<const F*>(storage)))();
  }

  void (*call_)(const void*);
  alignas(kInlineAlign) unsigned char storage_[kInlineBytes] = {};
};

static_assert(std::is_trivially_copyable_v<EventFn>,
              "events move as plain bytes");
static_assert(sizeof(EventFn) ==
                  sizeof(void (*)()) + EventFn::kInlineBytes,
              "EventFn is a function pointer plus its inline closure");

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
