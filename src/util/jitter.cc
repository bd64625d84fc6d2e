#include "util/jitter.h"

#include <algorithm>

#include "util/rounding.h"

#ifdef __SSE2__
#include <emmintrin.h>
#endif

namespace tetri::util {

namespace {

/** Smallest 1 + cv·ĝ the fast sum accepts. The exact loop clamps at
 * 0.5, far below anything kJitterDelta can move a step across. */
constexpr double kClampMargin = 0.6;

#ifdef __SSE2__
/** One constant in both lanes of a 16-byte row. */
struct alignas(16) Lanes {
  double lo;
  double hi;
};

constexpr Lanes
Both(double x)
{
  return {x, x};
}

/** Every constant the two-lane kernel and its caller use. */
struct KernelConstants {
  Lanes one;
  Lanes sign;
  Lanes tiny;
  Lanes sqrt2;
  Lanes half;
  Lanes bias;
  Lanes ln2;
  Lanes two;
  Lanes minus_two;
  Lanes half_pi;
  Lanes four;
  Lanes clamp_margin;
  /** atanh(s)/s: 1/3, 1/5, 1/7, 1/9, 1/11. */
  Lanes atanh[5];
  /** sin(y)/y: 1/3!, 1/5!, ..., 1/15!. */
  Lanes sin[7];
};

constexpr KernelConstants kKernelConstants = {
    .one = Both(1.0),
    .sign = Both(-0.0),
    .tiny = Both(1e-18),
    .sqrt2 = Both(std::numbers::sqrt2),
    .half = Both(0.5),
    .bias = Both(1023.0),
    .ln2 = Both(std::numbers::ln2),
    .two = Both(2.0),
    .minus_two = Both(-2.0),
    .half_pi = Both(std::numbers::pi / 2),
    .four = Both(4.0),
    .clamp_margin = Both(kClampMargin),
    .atanh = {Both(1.0 / 3), Both(1.0 / 5), Both(1.0 / 7), Both(1.0 / 9),
              Both(1.0 / 11)},
    .sin = {Both(1.0 / 6), Both(1.0 / 120), Both(1.0 / 5040),
            Both(1.0 / 362880), Both(1.0 / 39916800),
            Both(1.0 / 6227020800), Both(1.0 / 1307674368000)},
};

/**
 * kKernelConstants, through a pointer the optimiser cannot see into;
 * fetch it inside the loop that uses it. Knowing a row's value, GCC
 * rebuilds it at every use from an 8-byte copy (movsd + unpcklpd), a
 * fifth of the kernel's instructions, and a row it can hoist out of a
 * loop it copies to the stack on every call. An opaque row fetched
 * per iteration is one 16-byte memory operand of the instruction that
 * uses it.
 */
const KernelConstants&
OpaqueConstants()
{
  const KernelConstants* k = &kKernelConstants;
  asm volatile("" : "+r"(k));
  return *k;
}

__m128d
Load(const Lanes& row)
{
  return _mm_load_pd(&row.lo);
}

__m128d
Add(__m128d a, __m128d b)
{
  return _mm_add_pd(a, b);
}

__m128d
Sub(__m128d a, __m128d b)
{
  return _mm_sub_pd(a, b);
}

__m128d
Mul(__m128d a, __m128d b)
{
  return _mm_mul_pd(a, b);
}

/**
 * FastGaussian on both lanes, operation for operation and in the same
 * association, so each lane rounds exactly as the scalar does. SSE2
 * has neither a 64-bit integer compare nor an int64 -> double
 * conversion, so the √2 split compares the mantissa as a double in
 * [1, 2), and the biased exponent (< 2¹²) converts through int32.
 */
[[gnu::always_inline]] inline __m128d
FastGaussian2(const KernelConstants& k, __m128d u1, __m128d u2)
{
  const __m128d one = Load(k.one);
  // The log(0) guard, as a branch the predictor takes out of the
  // dependency chain: a uniform draw is 0 once in 2⁵³.
  const __m128d guard = _mm_cmple_pd(u1, _mm_setzero_pd());
  if (_mm_movemask_pd(guard) != 0) [[unlikely]] {
    u1 = _mm_or_pd(_mm_and_pd(guard, Load(k.tiny)),
                   _mm_andnot_pd(guard, u1));
  }
  const __m128i bits = _mm_castpd_si128(u1);
  const __m128i mantissa =
      _mm_and_si128(bits, _mm_set1_epi64x((std::int64_t{1} << 52) - 1));
  // mantissa | exponent 0x3FF: the mantissa as a double in [1, 2).
  const __m128d m_unit = _mm_or_pd(_mm_castsi128_pd(mantissa), one);
  const __m128d above = _mm_cmpgt_pd(m_unit, Load(k.sqrt2));
  // Above √2, exponent 0x3FE halves it into [√½, 1), as the scalar's
  // exponent − 1 does.
  const __m128d m = _mm_castsi128_pd(_mm_sub_epi64(
      _mm_castpd_si128(m_unit),
      _mm_and_si128(_mm_castpd_si128(above),
                    _mm_set1_epi64x(std::int64_t{1} << 52))));
  const __m128i biased = _mm_shuffle_epi32(_mm_srli_epi64(bits, 52),
                                           _MM_SHUFFLE(2, 0, 2, 0));
  const __m128d e = Add(Sub(_mm_cvtepi32_pd(biased), Load(k.bias)),
                        _mm_and_pd(above, one));
  const __m128d s = _mm_div_pd(Sub(m, one), Add(m, one));
  const __m128d z = Mul(s, s);
  const __m128d z2 = Mul(z, z);
  const __m128d atanh_over_s = Add(
      Add(one, Mul(z, Load(k.atanh[0]))),
      Mul(z2, Add(Add(Load(k.atanh[1]), Mul(z, Load(k.atanh[2]))),
                  Mul(z2, Add(Load(k.atanh[3]),
                              Mul(z, Load(k.atanh[4])))))));
  const __m128d ln_u1 = Add(Mul(e, Load(k.ln2)),
                            Mul(Mul(Load(k.two), s), atanh_over_s));
  const __m128d radius = _mm_sqrt_pd(Mul(Load(k.minus_two), ln_u1));

  const __m128d y =
      Mul(Load(k.half_pi),
          Sub(one, Mul(Load(k.four), _mm_andnot_pd(Load(k.sign),
                                                   Sub(u2, Load(k.half))))));
  const __m128d w = Mul(y, y);
  const __m128d w2 = Mul(w, w);
  const __m128d w4 = Mul(w2, w2);
  const __m128d sin_over_y = Add(
      Add(Sub(one, Mul(w, Load(k.sin[0]))),
          Mul(w2, Sub(Load(k.sin[1]), Mul(w, Load(k.sin[2]))))),
      Mul(w4, Add(Sub(Load(k.sin[3]), Mul(w, Load(k.sin[4]))),
                  Mul(w2, Sub(Load(k.sin[5]), Mul(w, Load(k.sin[6])))))));
  return Mul(_mm_xor_pd(radius, Load(k.sign)), Mul(y, sin_over_y));
}
#endif

/**
 * One step's terms, as the scalar loop forms them: @p term[0] =
 * mean·(1 + cv·ĝ) and @p abs_term[0] = |ĝ| + 1. @return whether
 * 1 + cv·ĝ stayed at or above kClampMargin.
 */
bool
OneStepTerms(Rng* draws, double mean_us, double cv, double* term,
             double* abs_term)
{
  const double u1 = draws->NextDouble();
  const double u2 = draws->NextDouble();
  const double g = FastGaussian(u1, u2);
  const double factor = 1.0 + cv * g;
  term[0] = mean_us * factor;
  abs_term[0] = std::fabs(g) + 1.0;
  return factor >= kClampMargin;
}

/** Steps per block of JitteredSpanUs's fast path. */
constexpr int kBlock = 16;
static_assert(kBlock % 2 == 0, "an odd block's pad lane must fit");

/**
 * OneStepTerms for the @p n steps of a block, 2 <= @p n <= kBlock, in
 * step order. With SSE2 every step's uniforms are drawn first, two
 * steps to a vector, and then each operation runs once per vector,
 * each lane rounding exactly as the scalar step does. An odd last
 * step pads its vector with a (0, 0) lane, which the clamp check
 * ignores and whose terms land one past the block's. A vector is
 * built from registers and stored whole: read back from two 8-byte
 * stores, it would miss store forwarding.
 */
bool
BlockTerms(Rng* draws, double mean_us, double cv, int n, double* term,
           double* abs_term)
{
#ifdef __SSE2__
  const int pairs = (n + 1) / 2;
  __m128d u1[kBlock / 2];
  __m128d u2[kBlock / 2];
  for (int p = 0; p < pairs; ++p) {
    const double u1_lo = draws->NextDouble();
    const double u2_lo = draws->NextDouble();
    const bool full = 2 * p + 1 < n;
    const double u1_hi = full ? draws->NextDouble() : 0.0;
    const double u2_hi = full ? draws->NextDouble() : 0.0;
    u1[p] = _mm_set_pd(u1_hi, u1_lo);
    u2[p] = _mm_set_pd(u2_hi, u2_lo);
  }
  const __m128d mean = _mm_set1_pd(mean_us);
  const __m128d spread = _mm_set1_pd(cv);
  // Bit i: every lane-i step kept 1 + cv·ĝ >= kClampMargin. The last
  // vector's pad lane, if any, passes whatever it holds.
  const int pad = (n % 2) << 1;
  int clamp_free = 3;
  for (int p = 0; p < pairs; ++p) {
    const KernelConstants& k = OpaqueConstants();
    const __m128d g = FastGaussian2(k, u1[p], u2[p]);
    const __m128d factor = Add(Load(k.one), Mul(spread, g));
    clamp_free &=
        _mm_movemask_pd(_mm_cmpge_pd(factor, Load(k.clamp_margin))) |
        (p + 1 == pairs ? pad : 0);
    _mm_storeu_pd(term + 2 * p, Mul(mean, factor));
    _mm_storeu_pd(abs_term + 2 * p,
                  Add(_mm_andnot_pd(Load(k.sign), g), Load(k.one)));
  }
  return clamp_free == 3;
#else
  bool clamp_free = true;
  for (int i = 0; i < n; ++i) {
    clamp_free &= OneStepTerms(draws, mean_us, cv, term + i, abs_term + i);
  }
  return clamp_free;
#endif
}

}  // namespace

void
FastGaussians(const double* u1, const double* u2, int n, double* g)
{
#ifdef __SSE2__
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(g + i, FastGaussian2(OpaqueConstants(),
                                       _mm_loadu_pd(u1 + i),
                                       _mm_loadu_pd(u2 + i)));
  }
  if (i < n) {
    // _mm_load_sd zeroes the upper lane: the (0, 0) pad.
    _mm_store_sd(g + i, FastGaussian2(OpaqueConstants(),
                                      _mm_load_sd(u1 + i),
                                      _mm_load_sd(u2 + i)));
  }
#else
  for (int i = 0; i < n; ++i) g[i] = FastGaussian(u1[i], u2[i]);
#endif
}

TimeUs
JitteredSpanUs(Rng* rng, double mean_us, double cv, int steps,
               std::vector<TimeUs>* step_ends, bool* certified)
{
  if (step_ends != nullptr) step_ends->clear();

  // Fast path: same draws, polynomial Gaussian, plus the error bound.
  // It draws from a copy, committed only when the answer is certified.
  // A block forms its steps' terms two at a time; the sums then take
  // them one by one, in step order.
  Rng draws = *rng;
  const double poly_scale = mean_us * cv * kJitterDelta;
  double sum = 0.0;
  double abs_g_plus_one = 0.0;  // Σ (|ĝ| + 1)
  bool clamp_free = true;
  bool decided = true;  // every checked rounding is certain
  TimeUs span = 0;
  double term[kBlock];
  double abs_term[kBlock];
  for (int base = 0; base < steps; base += kBlock) {
    const int n = std::min(kBlock, steps - base);
    // A lone step stays scalar: a vector would spend a lane on padding.
    clamp_free &=
        n == 1 ? OneStepTerms(&draws, mean_us, cv, term, abs_term)
               : BlockTerms(&draws, mean_us, cv, n, term, abs_term);
    for (int i = 0; i < n; ++i) {
      const int s = base + i;
      sum += term[i];
      abs_g_plus_one += abs_term[i];
      if (step_ends != nullptr || s + 1 == steps) {
        const double bound = poly_scale * abs_g_plus_one +
                             8.0 * (s + 2) * sum * 0x1p-52;
        span = RoundUs(sum - bound);
        decided &= span == RoundUs(sum + bound);
        if (step_ends != nullptr) step_ends->push_back(span);
      }
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
