/**
 * @file
 * Cost-model tests: Table 1 calibration, scaling-shape properties
 * (Insights 1 and 2, Figures 2 and 3), jitter bounds, latency-table
 * lookups, the step-time memo in front of them, latent-transfer and
 * VAE costs.
 */
#include <gtest/gtest.h>

#include "cluster/allocator.h"
#include "costmodel/latency_table.h"
#include "util/stats.h"
#include "costmodel/model_config.h"
#include "costmodel/step_cost.h"

namespace tetri::costmodel {
using tetri::RunningStat;
namespace {

using cluster::Topology;

class FluxCostTest : public ::testing::Test {
 protected:
  FluxCostTest()
      : model_(ModelConfig::FluxDev()),
        topo_(Topology::H100Node()),
        cost_(&model_, &topo_)
  {
  }
  ModelConfig model_;
  Topology topo_;
  StepCostModel cost_;
};

TEST_F(FluxCostTest, Table1TokenCounts)
{
  EXPECT_EQ(LatentTokens(Resolution::k256), 256);
  EXPECT_EQ(LatentTokens(Resolution::k512), 1024);
  EXPECT_EQ(LatentTokens(Resolution::k1024), 4096);
  EXPECT_EQ(LatentTokens(Resolution::k2048), 16384);
}

TEST_F(FluxCostTest, Table1TflopsReproducedWithinTolerance)
{
  // Published Table 1 values for FLUX.1-dev.
  const double expected[] = {556.48, 1388.24, 5045.92, 24964.72};
  for (Resolution res : kAllResolutions) {
    const double got = model_.RequestTflops(LatentTokens(res));
    const double want = expected[ResolutionIndex(res)];
    EXPECT_NEAR(got / want, 1.0, 5e-4)
        << ResolutionName(res) << ": " << got << " vs " << want;
  }
}

TEST_F(FluxCostTest, StepTimeDecreasesWithDegreeForLargeImages)
{
  double prev = 1e18;
  for (int k : {1, 2, 4, 8}) {
    const double t = cost_.StepTimeUs(Resolution::k2048, k);
    EXPECT_LT(t, prev);
    prev = t;
  }
}

TEST_F(FluxCostTest, SmallImagesScalePoorly)
{
  // 256px: parallelism beyond SP=1 does not pay (Fig. 3 top-left).
  EXPECT_GT(cost_.StepTimeUs(Resolution::k256, 8),
            cost_.StepTimeUs(Resolution::k256, 1));
}

TEST_F(FluxCostTest, ScalingIsSubLinear)
{
  // Speedup(k) < k for every resolution (Insight 2).
  for (Resolution res : kAllResolutions) {
    for (int k : {2, 4, 8}) {
      const double speedup =
          cost_.StepTimeUs(res, 1) / cost_.StepTimeUs(res, k);
      EXPECT_LT(speedup, k) << ResolutionName(res) << " k=" << k;
    }
  }
}

TEST_F(FluxCostTest, CommFractionGrowsWithDegree)
{
  for (Resolution res : kAllResolutions) {
    double prev = -1.0;
    for (int k : {2, 4, 8}) {
      const double frac = cost_.CommFraction(res, k);
      EXPECT_GT(frac, prev) << ResolutionName(res);
      prev = frac;
    }
  }
}

TEST_F(FluxCostTest, CommFractionShrinksWithResolutionAtHighDegree)
{
  // Fig. 2: small inputs are communication dominated at SP=8 (>30%),
  // large inputs are not (<20%).
  EXPECT_GT(cost_.CommFraction(Resolution::k256, 8), 0.28);
  EXPECT_GT(cost_.CommFraction(Resolution::k512, 8), 0.28);
  EXPECT_LT(cost_.CommFraction(Resolution::k2048, 8), 0.20);
}

TEST_F(FluxCostTest, Sp1HasNoCommunication)
{
  for (Resolution res : kAllResolutions) {
    EXPECT_DOUBLE_EQ(cost_.CommFraction(res, 1), 0.0);
  }
}

TEST_F(FluxCostTest, JitterCvWithinTable1Bound)
{
  // Table 1: CV below 0.7% in every cell.
  for (Resolution res : kAllResolutions) {
    for (int k : {1, 2, 4, 8}) {
      EXPECT_LT(cost_.JitterCv(res, k), 0.007)
          << ResolutionName(res) << " k=" << k;
      EXPECT_GT(cost_.JitterCv(res, k), 0.0);
    }
  }
}

TEST_F(FluxCostTest, MeasuredCvMatchesTable1Regime)
{
  Rng rng(123);
  for (Resolution res : kAllResolutions) {
    RunningStat stat;
    for (int i = 0; i < 100; ++i) {
      stat.Add(cost_.SampleStepTimeUs(res, 4, 1, rng));
    }
    EXPECT_LT(stat.Cv(), 0.007) << ResolutionName(res);
  }
}

TEST_F(FluxCostTest, BatchingAmortizesLaunchOverhead)
{
  // Per-image step time shrinks with batch size for small images.
  const double solo = cost_.StepTimeUs(Resolution::k256, 1, 1);
  const double batched =
      cost_.StepTimeUs(Resolution::k256, 1, 4) / 4.0;
  EXPECT_LT(batched, solo);
}

TEST_F(FluxCostTest, LatentTransferBelongsInNoiseFloor)
{
  // §5 / Table 4: transfer under 0.05% of step latency everywhere.
  for (Resolution res : kAllResolutions) {
    for (int bs : {1, 2, 4}) {
      const double transfer = cost_.LatentTransferUs(res, bs);
      const double step = cost_.StepTimeUs(res, 1, bs);
      EXPECT_LT(transfer / step, 5e-4)
          << ResolutionName(res) << " bs=" << bs;
    }
  }
}

TEST_F(FluxCostTest, VaeDecodeGrowsWithResolutionButStaysSmall)
{
  double prev = 0.0;
  for (Resolution res : kAllResolutions) {
    const double vae = cost_.VaeDecodeUs(res);
    EXPECT_GT(vae, prev);
    prev = vae;
    // Decode is well under 5% of a full 50-step request.
    EXPECT_LT(vae, 0.05 * 50 * cost_.StepTimeUs(res, 1));
  }
}

TEST(A40CostTest, CrossPairPlacementIsMuchSlower)
{
  auto model = ModelConfig::Sd3Medium();
  auto topo = Topology::A40Node();
  StepCostModel cost(&model, &topo);
  const double pair = cost.StepTimeOnMaskUs(Resolution::k1024, 1, 0b0011);
  const double cross = cost.StepTimeOnMaskUs(Resolution::k1024, 1, 0b0110);
  // The same SP=2 step pays ~1.5x when its collectives cross PCIe.
  EXPECT_GT(cross, 1.3 * pair);
}

TEST(A40CostTest, Sp4CommHeavierThanH100)
{
  auto sd3 = ModelConfig::Sd3Medium();
  auto a40 = Topology::A40Node();
  StepCostModel cost_a40(&sd3, &a40);
  auto flux = ModelConfig::FluxDev();
  auto h100 = Topology::H100Node();
  StepCostModel cost_h100(&flux, &h100);
  // §6.4: at SP=4 the A40 collectives traverse PCIe and dominate.
  EXPECT_GT(cost_a40.CommFraction(Resolution::k1024, 4),
            cost_h100.CommFraction(Resolution::k1024, 4));
  EXPECT_GT(cost_a40.CommFraction(Resolution::k1024, 4), 0.35);
}

TEST(ModelConfigTest, Sd3IsSmallerThanFlux)
{
  auto flux = ModelConfig::FluxDev();
  auto sd3 = ModelConfig::Sd3Medium();
  EXPECT_LT(sd3.RequestTflops(4096), flux.RequestTflops(4096));
  EXPECT_LT(sd3.hidden_dim, flux.hidden_dim);
}

TEST(ModelConfigTest, LatentBytesMatchResolution)
{
  auto flux = ModelConfig::FluxDev();
  // 2048px: 256x256 latent pixels * 16ch * 2B = 2 MiB.
  EXPECT_DOUBLE_EQ(flux.LatentBytes(Resolution::k2048),
                   256.0 * 256 * 16 * 2);
}

class LatencyTableTest : public FluxCostTest {
 protected:
  LatencyTableTest() : table_(LatencyTable::Profile(cost_, 4, 60, 5)) {}
  LatencyTable table_;
};

TEST_F(LatencyTableTest, LookupMatchesModelWithinJitter)
{
  for (Resolution res : kAllResolutions) {
    for (int k : {1, 2, 4, 8}) {
      const double profiled = table_.StepTimeUs(res, k);
      const double analytic = cost_.StepTimeUs(res, k);
      EXPECT_NEAR(profiled / analytic, 1.0, 0.01);
    }
  }
}

TEST_F(LatencyTableTest, ProfiledCvUnderBound)
{
  for (Resolution res : kAllResolutions) {
    for (int k : {1, 2, 4, 8}) {
      EXPECT_LT(table_.StepCv(res, k), 0.007);
    }
  }
}

TEST_F(LatencyTableTest, FastestAndMostEfficientDegrees)
{
  // Large images are fastest at SP=8 but cheapest per GPU-hour lower.
  EXPECT_EQ(table_.FastestDegree(Resolution::k2048), 8);
  EXPECT_EQ(table_.MostEfficientDegree(Resolution::k256), 1);
  EXPECT_LE(table_.MostEfficientDegree(Resolution::k2048), 4);
  for (Resolution res : kAllResolutions) {
    EXPECT_DOUBLE_EQ(
        table_.MinStepTimeUs(res),
        table_.StepTimeUs(res, table_.FastestDegree(res)));
  }
}

TEST_F(LatencyTableTest, GpuTimeIsDegreeTimesStep)
{
  EXPECT_DOUBLE_EQ(table_.GpuTimeUs(Resolution::k1024, 4),
                   4.0 * table_.StepTimeUs(Resolution::k1024, 4));
}

TEST_F(LatencyTableTest, DeterministicForSameSeed)
{
  auto again = LatencyTable::Profile(cost_, 4, 60, 5);
  for (Resolution res : kAllResolutions) {
    EXPECT_DOUBLE_EQ(table_.StepTimeUs(res, 2),
                     again.StepTimeUs(res, 2));
  }
}

TEST_F(LatencyTableTest, CsvContainsEveryCell)
{
  const std::string csv = table_.ToCsv();
  for (Resolution res : kAllResolutions) {
    EXPECT_NE(csv.find(ResolutionName(res)), std::string::npos);
  }
}

/** Every SP degree is a power of two: the table has no cell for degree
 * 3 and the allocator refuses to place one. */
using LatencyTableDeathTest = LatencyTableTest;

TEST_F(LatencyTableDeathTest, NonPowerOfTwoDegreePanics)
{
  EXPECT_DEATH(table_.StepTimeUs(Resolution::k1024, 3, 1),
               "not a profiled power of two");
  cluster::GpuAllocator allocator(&topo_);
  EXPECT_DEATH(allocator.Allocate(3), "IsPow2");
}

TEST(ResolutionTest, IndexRoundtrip)
{
  for (Resolution res : kAllResolutions) {
    EXPECT_EQ(ResolutionFromIndex(ResolutionIndex(res)), res);
  }
  EXPECT_EQ(ResolutionName(Resolution::k512), "512x512");
}

}  // namespace
}  // namespace tetri::costmodel
