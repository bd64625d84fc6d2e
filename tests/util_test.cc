/**
 * @file
 * Unit tests for util: RNG determinism and distributions, statistics
 * accumulators, table rendering, and the inline rounding rule.
 */
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "util/rng.h"
#include "util/rounding.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/types.h"
#include "util/wallclock.h"

namespace tetri {
namespace {

// util::RoundUs inlines llround below 2^62 and defers to the library
// above it; the two must agree everywhere.
void
ExpectRoundsLikeLlround(double x)
{
  ASSERT_EQ(util::RoundUs(x), std::llround(x)) << std::hexfloat << x;
}

TEST(RoundingTest, RoundUsMatchesLlroundAtHalvesAndTheirNeighbours)
{
  for (int k = -5000; k <= 5000; ++k) {
    for (double x : {k + 0.5, k - 0.5, static_cast<double>(k)}) {
      ExpectRoundsLikeLlround(x);
      ExpectRoundsLikeLlround(std::nextafter(x, -1e300));
      ExpectRoundsLikeLlround(std::nextafter(x, 1e300));
    }
  }
  // Large halves, where the fraction is the last representable bit.
  for (double k = 1.0; k < 0x1p53; k *= 3.0) {
    for (double x : {k + 0.5, -(k + 0.5)}) {
      ExpectRoundsLikeLlround(x);
      ExpectRoundsLikeLlround(std::nextafter(x, 0.0));
      ExpectRoundsLikeLlround(std::nextafter(x, x * 2));
    }
  }
  // The classic floor(x + 0.5) trap: the largest double below 0.5.
  EXPECT_EQ(util::RoundUs(std::nextafter(0.5, 0.0)), 0);
  EXPECT_EQ(util::RoundUs(-std::nextafter(0.5, 0.0)), 0);
  EXPECT_EQ(util::RoundUs(0.5), 1);
  EXPECT_EQ(util::RoundUs(-0.5), -1);
  EXPECT_EQ(util::RoundUs(-2.5), -3);
  EXPECT_EQ(util::RoundUs(-0.0), 0);
}

TEST(RoundingTest, RoundUsMatchesLlroundAroundPowersOfTwo)
{
  for (int e : {51, 52, 53, 61, 62}) {
    const double p = std::ldexp(1.0, e);
    for (double base : {p, -p}) {
      double x = base;
      for (int i = 0; i < 64; ++i) x = std::nextafter(x, 0.0);
      for (int i = 0; i < 128; ++i) {
        ExpectRoundsLikeLlround(x);
        ExpectRoundsLikeLlround(x + 0.5);
        x = std::nextafter(x, base * 2);
      }
    }
  }
}

TEST(RoundingTest, RoundUsNonFiniteTakesTheLibraryPath)
{
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double x : {inf, -inf, nan, -nan, 0x1p62, -0x1p62, 0x1p63,
                   -0x1p63, 1e300, -1e300}) {
    ExpectRoundsLikeLlround(x);
  }
}

TEST(RoundingTest, RoundUsMatchesLlroundOnRandomDoubles)
{
  Rng rng(2024);
  // Uniform mantissas at every binary magnitude from 2^-4 to 2^63.
  for (int e = -4; e <= 63; ++e) {
    const double scale = std::ldexp(1.0, e);
    for (int i = 0; i < 16'000; ++i) {
      const double x = rng.NextDouble() * scale;
      ExpectRoundsLikeLlround(x);
      ExpectRoundsLikeLlround(-x);
    }
  }
  // Arbitrary bit patterns within the int64 range.
  for (int i = 0; i < 200'000; ++i) {
    const double x = std::bit_cast<double>(rng.NextU64());
    if (!(std::fabs(x) < 0x1p63)) continue;
    ExpectRoundsLikeLlround(x);
  }
}

TEST(RngTest, DeterministicForSameSeed)
{
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge)
{
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, NextDoubleInUnitInterval)
{
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound)
{
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, ExponentialMeanMatchesRate)
{
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(RngTest, GaussianMoments)
{
  Rng rng(13);
  RunningStat stat;
  for (int i = 0; i < 20000; ++i) stat.Add(rng.NextGaussian(3.0, 2.0));
  EXPECT_NEAR(stat.mean(), 3.0, 0.1);
  EXPECT_NEAR(stat.Stddev(), 2.0, 0.1);
}

TEST(RngTest, ForkProducesIndependentStream)
{
  Rng a(5);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  Rng b(5);
  b.Fork();
  EXPECT_NE(child.NextU64(), a.NextU64());
}

TEST(RunningStatTest, EmptyIsZero)
{
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_EQ(stat.mean(), 0.0);
  EXPECT_EQ(stat.Variance(), 0.0);
  EXPECT_EQ(stat.Cv(), 0.0);
}

TEST(RunningStatTest, KnownSequence)
{
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.Add(x);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_NEAR(stat.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(RunningStatTest, CvIsScaleInvariant)
{
  RunningStat a, b;
  for (double x : {1.0, 2.0, 3.0}) {
    a.Add(x);
    b.Add(x * 1000.0);
  }
  EXPECT_NEAR(a.Cv(), b.Cv(), 1e-12);
}

TEST(SampleSetTest, PercentileInterpolation)
{
  SampleSet set;
  for (double x : {10.0, 20.0, 30.0, 40.0}) set.Add(x);
  EXPECT_DOUBLE_EQ(set.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(set.Percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(set.Percentile(50), 25.0);
}

TEST(SampleSetTest, FractionBelow)
{
  SampleSet set;
  for (double x : {1.0, 2.0, 3.0, 4.0}) set.Add(x);
  EXPECT_DOUBLE_EQ(set.FractionBelow(0.5), 0.0);
  EXPECT_DOUBLE_EQ(set.FractionBelow(2.0), 0.5);
  EXPECT_DOUBLE_EQ(set.FractionBelow(10.0), 1.0);
}

TEST(SampleSetTest, CdfIsMonotone)
{
  SampleSet set;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) set.Add(rng.NextDouble() * 10.0);
  auto cdf = set.Cdf(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(TableTest, RendersAlignedColumns)
{
  Table table({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddRow({"long-name", "22"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("long-name"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, CsvRoundtrip)
{
  Table table({"a", "b"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, FormatHelpers)
{
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatPercent(0.1234, 1), "12.3%");
}

TEST(CycleStopwatchTest, ReadsASleepInMicroseconds)
{
  util::CycleStopwatch watch;
  watch.Start();
  util::SleepForUs(20000);
  watch.Stop();
  const double us_per_tick = watch.UsPerTick();
  const double total_us =
      static_cast<double>(watch.total_ticks()) * us_per_tick;
  EXPECT_GE(total_us, 15000.0);
  EXPECT_LT(total_us, 1e6);
  EXPECT_EQ(watch.max_ticks(), watch.total_ticks());
}

TEST(CycleStopwatchTest, AccumulatesTotalAndMax)
{
  util::CycleStopwatch watch;
  for (double us : {2000.0, 6000.0, 1000.0}) {
    watch.Start();
    util::SleepForUs(us);
    watch.Stop();
  }
  EXPECT_GT(watch.max_ticks(), 0);
  EXPECT_LT(watch.max_ticks(), watch.total_ticks());
  EXPECT_GE(static_cast<double>(watch.max_ticks()) * watch.UsPerTick(),
            4500.0);
}

TEST(TypesTest, TimeConversions)
{
  EXPECT_EQ(UsFromSec(1.5), 1500000);
  EXPECT_EQ(UsFromMs(2.5), 2500);
  EXPECT_DOUBLE_EQ(SecFromUs(1500000), 1.5);
  EXPECT_DOUBLE_EQ(MsFromUs(2500), 2.5);
}

}  // namespace
}  // namespace tetri
