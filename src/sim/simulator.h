/**
 * @file
 * Virtual-time simulation driver.
 *
 * The Simulator owns the event queue and the virtual clock. Components
 * schedule callbacks at absolute or relative virtual times; Run() drains
 * the queue, advancing the clock monotonically. Time never advances
 * except by firing events, so the entire serving system — arrivals,
 * round boundaries, step completions, latent transfers — is expressed
 * as events.
 */
#ifndef TETRI_SIM_SIMULATOR_H
#define TETRI_SIM_SIMULATOR_H

#include "sim/event_queue.h"
#include "trace/sink.h"
#include "util/types.h"

namespace tetri::sim {

/** Deterministic event-driven simulator with a microsecond clock. */
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /**
   * Attach an observer of event-queue spans (kEventScheduled /
   * kEventFired): a trace sink, or an audit::Auditor whose checkers
   * hold the clock monotone. Nullable, not owned; one pointer test per
   * push and per pop when unset.
   */
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }
  trace::TraceSink* trace() const { return trace_; }

  /** Current virtual time. */
  TimeUs Now() const { return now_; }

  /** Schedule @p fn at absolute virtual time @p at (>= Now()). */
  void ScheduleAt(TimeUs at, EventFn fn);

  /** Schedule @p fn @p delay microseconds from now (delay >= 0). */
  void ScheduleAfter(TimeUs delay, EventFn fn);

  /** Fire all events until the queue is empty. */
  void RunAll();

  /**
   * Fire events with time <= @p until, then set the clock to @p until.
   * Events scheduled during execution are honoured if they fall within
   * the window.
   */
  void RunUntil(TimeUs until);

  /** Fire exactly one event if any is pending. @return true if fired. */
  bool Step();

  bool HasPending() const { return !queue_.empty(); }
  std::size_t NumPending() const { return queue_.size(); }
  std::uint64_t events_fired() const { return events_fired_; }

 private:
  EventQueue queue_;
  TimeUs now_ = 0;
  std::uint64_t events_fired_ = 0;
  trace::TraceSink* trace_ = nullptr;
};

}  // namespace tetri::sim

#endif  // TETRI_SIM_SIMULATOR_H
