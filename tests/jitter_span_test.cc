/**
 * @file
 * util::JitteredSpanUs against the exact per-step loop it replaces
 * (DESIGN.md §8, "Engine pricing"): the same rounded span, the same
 * rounded step boundaries and the same RNG state afterwards, on random
 * cases, on every step count up to 64, at the polynomials' edge inputs
 * (in both lanes of the two-lane kernel), and on inputs built to force
 * each fallback. The oracle below is the engine's original loop: one
 * libm Box-Muller draw per step, clamped at 0.5 and summed in order.
 */
#include "util/jitter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "util/rounding.h"

namespace tetri::util {
namespace {

TimeUs
ExactSpanUs(Rng* rng, double mean_us, double cv, int steps,
            std::vector<TimeUs>* step_ends)
{
  if (step_ends != nullptr) step_ends->clear();
  double exec_us = 0.0;
  for (int s = 0; s < steps; ++s) {
    exec_us += mean_us * std::max(0.5, rng->NextGaussian(1.0, cv));
    if (step_ends != nullptr) step_ends->push_back(RoundUs(exec_us));
  }
  return RoundUs(exec_us);
}

/** Box-Muller exactly as Rng::NextGaussian() evaluates it. */
double
LibmGaussian(double u1, double u2)
{
  if (u1 <= 0.0) u1 = 1e-18;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double
RelativeError(double u1, double u2)
{
  const double exact = LibmGaussian(u1, u2);
  return std::fabs(FastGaussian(u1, u2) - exact) / (std::fabs(exact) + 1.0);
}

struct Outcome {
  TimeUs span = 0;
  std::vector<TimeUs> step_ends;
  std::uint64_t next_draw = 0;
  bool certified = false;
};

/** Run both paths from @p seed and expect identical outcomes. */
Outcome
ExpectExact(std::uint64_t seed, double mean_us, double cv, int steps,
            bool traced)
{
  Rng fast_rng(seed);
  Rng exact_rng(seed);
  Outcome fast;
  Outcome exact;
  fast.span = JitteredSpanUs(&fast_rng, mean_us, cv, steps,
                             traced ? &fast.step_ends : nullptr,
                             &fast.certified);
  exact.span = ExactSpanUs(&exact_rng, mean_us, cv, steps,
                           traced ? &exact.step_ends : nullptr);
  fast.next_draw = fast_rng.NextU64();
  exact.next_draw = exact_rng.NextU64();
  EXPECT_EQ(fast.span, exact.span)
      << "seed " << seed << " mean " << mean_us << " cv " << cv
      << " steps " << steps;
  EXPECT_EQ(fast.next_draw, exact.next_draw) << "seed " << seed;
  EXPECT_EQ(fast.step_ends, exact.step_ends) << "seed " << seed;
  if (traced && steps > 0) {
    EXPECT_EQ(fast.step_ends.back(), fast.span);
  }
  return fast;
}

class JitterSpanRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(JitterSpanRandomTest, MatchesExactLoop)
{
  // 4 shards x 262144 cases: means log-uniform over 10 us .. 10 s, cv
  // up to 0.05 (some exactly 0), 1..100 steps, traced and untraced.
  constexpr int kCases = 1 << 18;
  Rng meta(0x5EED0000u + static_cast<std::uint64_t>(GetParam()));
  int fallbacks = 0;
  for (int i = 0; i < kCases; ++i) {
    const double mean_us = std::exp(std::log(10.0) +
                                    meta.NextDouble() * std::log(1e6));
    const double cv = meta.NextBelow(16) == 0 ? 0.0
                                              : 0.05 * meta.NextDouble();
    const int steps = 1 + static_cast<int>(meta.NextBelow(100));
    const bool traced = meta.NextBelow(2) == 1;
    const Outcome out =
        ExpectExact(meta.NextU64(), mean_us, cv, steps, traced);
    if (!out.certified) ++fallbacks;
    if (HasFailure()) return;
  }
  // The fast path must carry nearly everything, or it buys nothing.
  EXPECT_LT(fallbacks, kCases / 20);
}

INSTANTIATE_TEST_SUITE_P(Shards, JitterSpanRandomTest,
                         ::testing::Range(0, 4));

TEST(JitterSpanTest, ProfiledRegimeAlmostNeverFallsBack)
{
  // The engine's regime: step means of milliseconds to a second, cv up
  // to 1% (Table 1 measures under 0.7%), up to 50 steps per dispatch.
  Rng meta(11);
  int fallbacks = 0;
  constexpr int kCases = 100000;
  for (int i = 0; i < kCases; ++i) {
    const double mean_us = std::exp(std::log(1e3) +
                                    meta.NextDouble() * std::log(1e3));
    const double cv = 0.01 * meta.NextDouble();
    const int steps = 1 + static_cast<int>(meta.NextBelow(50));
    const Outcome out = ExpectExact(meta.NextU64(), mean_us, cv, steps,
                                    meta.NextBelow(2) == 1);
    if (!out.certified) ++fallbacks;
  }
  EXPECT_LE(fallbacks, kCases / 1000);
}

TEST(JitterSpanTest, ZeroStepsIsAnEmptySpan)
{
  Rng rng(3);
  std::vector<TimeUs> ends = {1, 2, 3};
  EXPECT_EQ(JitteredSpanUs(&rng, 100.0, 0.01, 0, &ends), 0);
  EXPECT_TRUE(ends.empty());
  Rng untouched(3);
  EXPECT_EQ(rng.NextU64(), untouched.NextU64());
}

TEST(JitterSpanTest, PolynomialEdgeInputs)
{
  const double half_root = std::numbers::sqrt2 / 2;
  const std::vector<double> u1s = {
      0.0,  // takes the 1e-18 guard
      1e-18,
      0x1p-53,
      std::nextafter(half_root, 0.0),
      half_root,
      std::nextafter(half_root, 1.0),
      0.5,
      std::nextafter(std::numbers::sqrt2 / 4, 0.0),
      std::numbers::sqrt2 / 4,
      std::nextafter(std::numbers::sqrt2 / 4, 1.0),
      1.0 - 0x1p-53,
  };
  std::vector<double> u2s;
  for (double q : {0.0, 0.25, 0.5, 0.75}) {
    u2s.push_back(q);
    u2s.push_back(std::nextafter(q, 1.0));
    if (q > 0.0) u2s.push_back(std::nextafter(q, 0.0));
  }
  u2s.push_back(1.0 - 0x1p-53);
  for (double u1 : u1s) {
    for (double u2 : u2s) {
      EXPECT_LE(RelativeError(u1, u2), kJitterDelta / 50)
          << "u1 " << u1 << " u2 " << u2;
    }
  }
}

TEST(JitterSpanTest, ApproximationErrorStaysFarBelowDelta)
{
  // The certification assumes |ĝ - g| <= delta (|g| + 1); hold the
  // polynomials 50x inside that over ten million NextDouble pairs.
  Rng rng(2024);
  double worst = 0.0;
  for (int i = 0; i < 10'000'000; ++i) {
    const double u1 = rng.NextDouble();
    const double u2 = rng.NextDouble();
    worst = std::max(worst, RelativeError(u1, u2));
  }
  EXPECT_LE(worst, kJitterDelta / 50);
}

/** FastGaussians over @p u1 and @p u2, each lane held bit-equal to
 * the scalar FastGaussian and within kJitterDelta / 50 of libm. */
void
ExpectLanesMatch(const std::vector<double>& u1, const std::vector<double>& u2)
{
  std::vector<double> g(u1.size());
  FastGaussians(u1.data(), u2.data(), static_cast<int>(u1.size()),
                g.data());
  for (std::size_t i = 0; i < u1.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g[i]),
              std::bit_cast<std::uint64_t>(FastGaussian(u1[i], u2[i])))
        << "lane " << i % 2 << " u1 " << u1[i] << " u2 " << u2[i];
    const double exact = LibmGaussian(u1[i], u2[i]);
    EXPECT_LE(std::fabs(g[i] - exact) / (std::fabs(exact) + 1.0),
              kJitterDelta / 50)
        << "lane " << i % 2 << " u1 " << u1[i] << " u2 " << u2[i];
  }
}

TEST(JitterSpanTest, TwoLaneKernelAtEdgeInputs)
{
  const double root = std::numbers::sqrt2;
  // u1: the log(0) guard, the smallest and largest draws, and
  // mantissas either side of √2 (the exponent split) at two exponents.
  const std::vector<double> u1s = {
      0.0,
      0x1p-53,
      1.0 - 0x1p-53,
      std::nextafter(root / 2, 0.0),
      root / 2,
      std::nextafter(root / 2, 1.0),
      std::nextafter(root / 8, 0.0),
      root / 8,
      std::nextafter(root / 8, 1.0),
  };
  const std::vector<double> u2s = {0.0, 0.25, 0.5, 0.75, 1.0 - 0x1p-53};
  std::vector<std::pair<double, double>> pairs;
  for (double u1 : u1s) {
    for (double u2 : u2s) pairs.emplace_back(u1, u2);
  }
  // Every pair in both lanes beside every other pair, then each one
  // alone as an odd tail.
  for (const auto& [a1, a2] : pairs) {
    for (const auto& [b1, b2] : pairs) {
      ExpectLanesMatch({a1, b1}, {a2, b2});
    }
    ExpectLanesMatch({a1}, {a2});
    if (HasFailure()) return;
  }
}

TEST(JitterSpanTest, TwoLaneKernelOnRandomPairs)
{
  // Ten million NextDouble pairs through the kernel, in blocks with an
  // odd tail so both lanes and the padded tail are all exercised.
  Rng rng(2025);
  constexpr int kBlockSize = 1001;
  std::vector<double> u1(kBlockSize);
  std::vector<double> u2(kBlockSize);
  std::vector<double> g(kBlockSize);
  double worst = 0.0;
  std::int64_t mismatches = 0;
  for (int done = 0; done < 10'000'000; done += kBlockSize) {
    for (int i = 0; i < kBlockSize; ++i) {
      u1[i] = rng.NextDouble();
      u2[i] = rng.NextDouble();
    }
    FastGaussians(u1.data(), u2.data(), kBlockSize, g.data());
    for (int i = 0; i < kBlockSize; ++i) {
      mismatches += std::bit_cast<std::uint64_t>(g[i]) !=
                    std::bit_cast<std::uint64_t>(FastGaussian(u1[i], u2[i]));
      const double exact = LibmGaussian(u1[i], u2[i]);
      worst = std::max(worst,
                       std::fabs(g[i] - exact) / (std::fabs(exact) + 1.0));
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_LE(worst, kJitterDelta / 50);
}

TEST(JitterSpanTest, EveryStepCountUpToSixtyFourMatchesExactLoop)
{
  // Odd tails and the block edges of the two-lane evaluation, traced
  // and untraced, at a profiled step cost and at a wide cv.
  Rng meta(64);
  for (int steps = 1; steps <= 64; ++steps) {
    for (int i = 0; i < 8; ++i) {
      for (bool traced : {false, true}) {
        ExpectExact(meta.NextU64(), 25'000.0, 0.007, steps, traced);
        ExpectExact(meta.NextU64(), 137.0, 0.05, steps, traced);
      }
    }
    if (HasFailure()) return;
  }
}

TEST(JitterSpanTest, ClampRegionFallsBackToTheExactLoop)
{
  // cv = 0.3 puts 1 + cv g below the 0.6 margin whenever g < -4/3,
  // about one step in eleven; over 40 steps nearly every case trips.
  Rng meta(5);
  int fallbacks = 0;
  for (int i = 0; i < 200; ++i) {
    for (bool traced : {false, true}) {
      const Outcome out =
          ExpectExact(meta.NextU64(), 25'000.0, 0.3, 40, traced);
      if (!out.certified) ++fallbacks;
    }
  }
  EXPECT_GT(fallbacks, 300);
  // With cv = 0.6 some steps really do clamp at 0.5.
  for (int i = 0; i < 200; ++i) {
    const Outcome out = ExpectExact(meta.NextU64(), 25'000.0, 0.6, 40,
                                    /*traced=*/true);
    EXPECT_FALSE(out.certified);
  }
}

TEST(JitterSpanTest, ClampCheckCoversEveryLaneOfAnOddBlock)
{
  // An odd block pads its last vector; the pad lane must be the only
  // one the clamp check skips. Find spans whose only step below the
  // margin is a second (odd-indexed) step of some earlier vector, and
  // expect the exact loop to run.
  Rng meta(7);
  int checked = 0;
  for (int i = 0; i < 20000 && checked < 200; ++i) {
    const std::uint64_t seed = meta.NextU64();
    const int steps = 3 + 2 * static_cast<int>(meta.NextBelow(7));
    Rng probe(seed);
    int low = 0;
    int low_step = -1;
    for (int s = 0; s < steps; ++s) {
      if (1.0 + 0.3 * probe.NextGaussian() < 0.6) {
        ++low;
        low_step = s;
      }
    }
    if (low != 1 || low_step % 2 != 1) continue;
    ++checked;
    for (bool traced : {false, true}) {
      const Outcome out = ExpectExact(seed, 25'000.0, 0.3, steps, traced);
      EXPECT_FALSE(out.certified) << "seed " << seed << " steps " << steps;
    }
  }
  EXPECT_EQ(checked, 200);
}

TEST(JitterSpanTest, HalfIntegerSumFallsBackToTheExactLoop)
{
  // Without jitter the sum is exact: 10.5 lies inside any non-zero
  // bound around it, so only the exact loop may round it (up, to 11).
  for (bool traced : {false, true}) {
    const Outcome out = ExpectExact(1, 10.5, 0.0, 1, traced);
    EXPECT_FALSE(out.certified);
    EXPECT_EQ(out.span, 11);
  }
  // With jitter: scale the mean so the exact sum lands within a few
  // ulps of 1000.5.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    for (int steps : {1, 7, 28}) {
      Rng probe(seed);
      double factor_sum = 0.0;
      for (int s = 0; s < steps; ++s) {
        factor_sum += std::max(0.5, probe.NextGaussian(1.0, 0.007));
      }
      const double mean_us = 1000.5 / factor_sum;
      for (bool traced : {false, true}) {
        const Outcome out = ExpectExact(seed, mean_us, 0.007, steps, traced);
        EXPECT_FALSE(out.certified)
            << "seed " << seed << " steps " << steps;
      }
    }
  }
}

TEST(JitterSpanTest, StepBoundaryNearHalfIntegerFallsBackWhenTraced)
{
  // Put the first of 12 prefix sums next to 500.5: the untraced call
  // only rounds the full sum and certifies, the traced one must check
  // every prefix and fall back.
  int traced_fallbacks = 0;
  int untraced_fallbacks = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng probe(seed);
    const double first = std::max(0.5, probe.NextGaussian(1.0, 0.007));
    const double mean_us = 500.5 / first;
    if (!ExpectExact(seed, mean_us, 0.007, 12, true).certified) {
      ++traced_fallbacks;
    }
    if (!ExpectExact(seed, mean_us, 0.007, 12, false).certified) {
      ++untraced_fallbacks;
    }
  }
  EXPECT_EQ(traced_fallbacks, 64);
  EXPECT_LT(untraced_fallbacks, 4);
}

}  // namespace
}  // namespace tetri::util
