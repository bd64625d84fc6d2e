/**
 * @file
 * The one-rounding-rule helper (DESIGN.md §8).
 *
 * Every conversion from a real-valued duration to integer TimeUs in
 * src/ happens here, exactly once per quantity, so that derived sums
 * (busy_gpu_us, timeline spans, step prefix sums) agree bit-for-bit
 * with the dispatch spans they tile. Call sites never invoke
 * std::llround / std::lround / std::round on time quantities directly
 * — tetri_lint's `rounding` rule bans the raw calls outside this
 * header.
 */
#ifndef TETRI_UTIL_ROUNDING_H
#define TETRI_UTIL_ROUNDING_H

#include <cmath>
#include <cstdint>

#include "util/types.h"

namespace tetri::util {

/** Round a real duration in microseconds to TimeUs, half away from
 * zero (llround semantics — THE rounding rule).
 *
 * Inline because the serving loops call it once per queued request per
 * tick. Below 2^62 the result equals std::llround exactly: truncation
 * fits int64, x - trunc(x) is exact in double, and the fraction alone
 * decides the step away from zero. Larger magnitudes, infinities and
 * NaN (which fails the range test) take the library call. */
inline TimeUs
RoundUs(double us)
{
  if (std::fabs(us) < 0x1p62) {
    const auto whole = static_cast<std::int64_t>(us);
    const double frac = us - static_cast<double>(whole);
    // Branch-free: fractions of jittered spans are unpredictable.
    return whole + (frac >= 0.5) - (frac <= -0.5);
  }
  return static_cast<TimeUs>(std::llround(us));
}

/** Seconds -> TimeUs under the same rule. */
inline TimeUs
SecToUs(double sec)
{
  return RoundUs(sec * 1e6);
}

/** RoundUs clamped below by @p floor_us (schedulable delays must stay
 * strictly positive even when the model emits ~0). */
inline TimeUs
RoundUsAtLeast(double us, TimeUs floor_us)
{
  const TimeUs rounded = RoundUs(us);
  return rounded < floor_us ? floor_us : rounded;
}

}  // namespace tetri::util

#endif  // TETRI_UTIL_ROUNDING_H
