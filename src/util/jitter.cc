#include "util/jitter.h"

#include <algorithm>

#include "util/rounding.h"

namespace tetri::util {

namespace {

/** Smallest 1 + cv·ĝ the fast sum accepts. The exact loop clamps at
 * 0.5, far below anything kJitterDelta can move a step across. */
constexpr double kClampMargin = 0.6;

}  // namespace

TimeUs
JitteredSpanUs(Rng* rng, double mean_us, double cv, int steps,
               std::vector<TimeUs>* step_ends, bool* certified)
{
  if (step_ends != nullptr) step_ends->clear();

  // Fast path: same draws, polynomial Gaussian, plus the error bound.
  // It draws from a copy, committed only when the answer is certified.
  Rng draws = *rng;
  const double poly_scale = mean_us * cv * kJitterDelta;
  double sum = 0.0;
  double abs_g_plus_one = 0.0;  // Σ (|ĝ| + 1)
  bool clamp_free = true;
  bool decided = true;  // every checked rounding is certain
  TimeUs span = 0;
  for (int s = 0; s < steps; ++s) {
    const double u1 = draws.NextDouble();
    const double u2 = draws.NextDouble();
    const double g = FastGaussian(u1, u2);
    const double factor = 1.0 + cv * g;
    clamp_free &= factor >= kClampMargin;
    sum += mean_us * factor;
    abs_g_plus_one += std::fabs(g) + 1.0;
    if (step_ends != nullptr || s + 1 == steps) {
      const double bound = poly_scale * abs_g_plus_one +
                           8.0 * (s + 2) * sum * 0x1p-52;
      span = RoundUs(sum - bound);
      decided &= span == RoundUs(sum + bound);
      if (step_ends != nullptr) step_ends->push_back(span);
    }
  }
  const bool fast = clamp_free && decided;
  if (certified != nullptr) *certified = fast;
  if (fast) {
    *rng = draws;
    return span;
  }

  // Fallback: the exact loop, from the untouched RNG.
  if (step_ends != nullptr) step_ends->clear();
  double exec_us = 0.0;
  for (int s = 0; s < steps; ++s) {
    exec_us += mean_us * std::max(0.5, rng->NextGaussian(1.0, cv));
    if (step_ends != nullptr) step_ends->push_back(RoundUs(exec_us));
  }
  return RoundUs(exec_us);
}

}  // namespace tetri::util
