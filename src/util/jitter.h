/**
 * @file
 * Jittered execution spans (DESIGN.md §8, "Engine pricing").
 *
 * A dispatched assignment runs `steps` denoising steps whose times are
 * mean·max(0.5, N(1, cv)), one Box-Muller Gaussian per step, summed in
 * step order and rounded once with util::RoundUs. JitteredSpanUs returns
 * exactly that rounded sum, the rounded prefix sums (step boundaries)
 * and the final RNG state, without calling libm's log and cos per step:
 *
 *  - It draws the same two uniforms per step and evaluates the Gaussian
 *    with FastGaussian, whose error against libm stays below
 *    kJitterDelta·(|g| + 1). With SSE2 it draws a block's uniforms
 *    first, then evaluates ĝ and each step's term two steps per
 *    vector, every lane bit-equal to the scalar step; the sums still
 *    take the terms one by one, in step order.
 *  - It carries a bound E on the distance between its sum and the
 *    exact loop's: mean·cv·kJitterDelta·Σ(|ĝ| + 1) for the polynomials
 *    plus 8(k + 1)·sum·2⁻⁵² for the two loops' different rounding over
 *    k terms. RoundUs is monotone, so when RoundUs(sum − E) equals
 *    RoundUs(sum + E) that value is the exact loop's answer.
 *  - A step with 1 + cv·ĝ < 0.6 may sit in the exact loop's
 *    max(0.5, ·) clamp, which the fast sum does not apply.
 *
 * The fast path draws from a copy of the RNG, committed only when both
 * checks pass; otherwise the exact loop runs from the untouched RNG,
 * so the result is byte-identical either way.
 */
#ifndef TETRI_UTIL_JITTER_H
#define TETRI_UTIL_JITTER_H

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "util/rng.h"
#include "util/types.h"

namespace tetri::util {

/** Relative error FastGaussian is certified to: |ĝ − g| <=
 * kJitterDelta·(|g| + 1) against libm's Box-Muller. The measured
 * maximum is about 70 times smaller (jitter_span_test). */
inline constexpr double kJitterDelta = 1e-9;

/**
 * Rng::NextGaussian() from its two uniforms @p u1 and @p u2, without
 * libm's log and cos, and without a branch:
 *
 *  - ln(u1): the exponent is split so the mantissa m lies in
 *    [√½, √2), then ln(m) = 2·atanh(s) with s = (m − 1)/(m + 1),
 *    |s| < 0.172, through s¹¹ in Estrin form.
 *  - cos(2πu2) = −sin(y) with y = π/2·(4a − 1) in [−π/2, π/2] and
 *    a = |u2 − round(u2)|, odd Taylor terms through y¹⁵.
 */
inline double
FastGaussian(double u1, double u2)
{
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kSqrt2Mantissa =
      std::bit_cast<std::uint64_t>(std::numbers::sqrt2) & kMantissa;
  u1 = u1 <= 0.0 ? 1e-18 : u1;  // Rng::NextGaussian's log(0) guard
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(u1);
  const std::uint64_t mantissa = bits & kMantissa;
  const std::uint64_t above = mantissa > kSqrt2Mantissa;
  // m in [1, √2] keeps exponent 0; above √2 it is halved into [√½, 1).
  const std::uint64_t exponent = std::uint64_t{0x3FF} - above;
  const double m = std::bit_cast<double>(mantissa | (exponent << 52));
  const double e = static_cast<double>(
      static_cast<std::int64_t>(bits >> 52) - 1023 +
      static_cast<std::int64_t>(above));
  const double s = (m - 1.0) / (m + 1.0);
  const double z = s * s;
  const double z2 = z * z;
  const double atanh_over_s =
      (1.0 + z * (1.0 / 3)) +
      z2 * ((1.0 / 5 + z * (1.0 / 7)) + z2 * (1.0 / 9 + z * (1.0 / 11)));
  const double ln_u1 = e * std::numbers::ln2 + 2.0 * s * atanh_over_s;
  const double radius = std::sqrt(-2.0 * ln_u1);

  // a = |u2 - round(u2)| = 0.5 - |u2 - 0.5| for u2 in [0, 1), exact
  // and without the mispredicted branch a comparison would cost.
  const double y =
      (std::numbers::pi / 2) * (1.0 - 4.0 * std::fabs(u2 - 0.5));
  const double w = y * y;
  const double w2 = w * w;
  const double w4 = w2 * w2;
  // sin(y)/y = Σ (−1)^k w^k / (2k + 1)!, k = 0..7.
  const double sin_over_y =
      ((1.0 - w * (1.0 / 6)) + w2 * (1.0 / 120 - w * (1.0 / 5040))) +
      w4 * ((1.0 / 362880 - w * (1.0 / 39916800)) +
            w2 * (1.0 / 6227020800 - w * (1.0 / 1307674368000)));
  return -radius * (y * sin_over_y);
}

/**
 * @p g[i] = FastGaussian(@p u1[i], @p u2[i]) for i < @p n, bit for bit.
 * With SSE2 (the x86-64 baseline) two lanes are evaluated per packed
 * instruction: mul, add, div and sqrt round each lane as the scalar
 * operation would, so every lane equals the scalar polynomial. An odd
 * tail pads its second lane with (0, 0), which is never stored.
 */
void FastGaussians(const double* u1, const double* u2, int n, double* g);

/**
 * Wall-clock microseconds of @p steps jittered steps of mean
 * @p mean_us and coefficient of variation @p cv: exactly
 * RoundUs(Σ mean_us·max(0.5, rng->NextGaussian(1, cv))), summed in
 * step order, leaving @p rng where that loop leaves it. When
 * @p step_ends is non-null it is refilled with the rounded prefix sums
 * (its last entry is the return value). When @p certified is non-null
 * it reports whether the fast path's answer was accepted (false: the
 * exact loop ran).
 */
TimeUs JitteredSpanUs(Rng* rng, double mean_us, double cv, int steps,
                      std::vector<TimeUs>* step_ends,
                      bool* certified = nullptr);

}  // namespace tetri::util

#endif  // TETRI_UTIL_JITTER_H
