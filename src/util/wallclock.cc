#include "util/wallclock.h"

#include <chrono>
#include <thread>

namespace tetri::util {

std::int64_t
SteadyNowNs()
{
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

WallTimer::WallTimer()
    : start_ns_(SteadyNowNs())
{
}

void
WallTimer::Restart()
{
  start_ns_ = SteadyNowNs();
}

double
WallTimer::ElapsedUs() const
{
  return static_cast<double>(SteadyNowNs() - start_ns_) * 1e-3;
}

double
WallTimer::ElapsedSec() const
{
  return static_cast<double>(SteadyNowNs() - start_ns_) * 1e-9;
}

CycleStopwatch::CycleStopwatch()
    : calibration_ns_(SteadyNowNs()),
      calibration_ticks_(Ticks())
{
}

double
CycleStopwatch::UsPerTick() const
{
  const std::int64_t ticks = Ticks() - calibration_ticks_;
  const std::int64_t ns = SteadyNowNs() - calibration_ns_;
  if (ticks <= 0) return 0.0;
  return static_cast<double>(ns) * 1e-3 / static_cast<double>(ticks);
}

void
SleepForUs(double us)
{
  if (!(us > 0.0)) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::micro>(us));
}

}  // namespace tetri::util
