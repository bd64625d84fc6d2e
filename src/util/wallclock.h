/**
 * @file
 * The only doorway to the host wall clock.
 *
 * Virtual time (TimeUs off the simulator) drives every scheduling and
 * serving decision; host time is legitimate only for *measuring* the
 * planner itself (plan-latency accounting, search timeouts). Two
 * stopwatches exist for exactly that:
 *
 *  - WallTimer wraps std::chrono::steady_clock.
 *  - CycleStopwatch reads the CPU's time-stamp counter (rdtsc) on
 *    x86-64, about half the cost of a steady_clock read, for spans
 *    timed thousands of times per run. It accumulates raw ticks and
 *    converts them with a ticks-per-µs ratio calibrated against
 *    steady_clock over its own lifetime. Elsewhere its ticks are
 *    steady_clock nanoseconds.
 *
 * tetri_lint's `wallclock` rule bans std::chrono clock calls and TSC
 * intrinsics outside src/util and src/sim, so a host-time read can
 * never leak into replayable logic and break the byte-identical-replay
 * contract (DESIGN.md §10).
 */
#ifndef TETRI_UTIL_WALLCLOCK_H
#define TETRI_UTIL_WALLCLOCK_H

#include <algorithm>
#include <cstdint>

namespace tetri::util {

/** Monotonic stopwatch; starts running at construction. */
class WallTimer {
 public:
  WallTimer();

  /** Reset the start point to now. */
  void Restart();

  /** Host microseconds since construction/Restart. */
  double ElapsedUs() const;

  /** Host seconds since construction/Restart. */
  double ElapsedSec() const;

 private:
  /** steady_clock ticks at the start point (opaque unit). */
  std::int64_t start_ns_ = 0;
};

/** steady_clock nanoseconds (opaque epoch). */
std::int64_t SteadyNowNs();

/**
 * Accumulating stopwatch over many short spans: Start()/Stop() pairs
 * add each span's ticks to a total and a maximum. The tick-to-µs ratio
 * is measured, not assumed: steady_clock and the tick counter are both
 * read at construction, and UsPerTick() divides the steady_clock time
 * elapsed since then by the ticks elapsed. Read it once, after the
 * timed work, to convert the totals.
 */
class CycleStopwatch {
 public:
  CycleStopwatch();

  /** Tick counter now: the TSC on x86-64, steady_clock ns elsewhere. */
  static std::int64_t Ticks()
  {
#if defined(__x86_64__)
    return static_cast<std::int64_t>(__builtin_ia32_rdtsc());
#else
    return SteadyNowNs();
#endif
  }

  void Start() { start_ = Ticks(); }

  /** Close the span opened by Start(). A span that reads negative (the
   * thread moved to a core whose counter lags) counts as 0. */
  void Stop()
  {
    const std::int64_t span = std::max<std::int64_t>(Ticks() - start_, 0);
    total_ticks_ += span;
    max_ticks_ = std::max(max_ticks_, span);
  }

  /** Host µs per tick over the stopwatch's lifetime so far (0 before
   * any tick has elapsed). */
  double UsPerTick() const;

  std::int64_t total_ticks() const { return total_ticks_; }
  std::int64_t max_ticks() const { return max_ticks_; }

 private:
  std::int64_t calibration_ns_;
  std::int64_t calibration_ticks_;
  std::int64_t start_ = 0;
  std::int64_t total_ticks_ = 0;
  std::int64_t max_ticks_ = 0;
};

/**
 * Block the calling thread for roughly @p us host microseconds
 * (std::this_thread::sleep_for under the hood). Like WallTimer, this
 * is the only doorway: the concurrent serving runtime paces rounds and
 * simulates execution spans through it, never via raw <chrono>.
 * Negative and zero durations return immediately.
 */
void SleepForUs(double us);

}  // namespace tetri::util

#endif  // TETRI_UTIL_WALLCLOCK_H
