/**
 * @file
 * Allocation-free mask math, checked against brute force.
 *
 * Topology::CollectiveBandwidth and Topology::BottleneckClass test
 * per-class peer masks, and ExecutionEngine::StragglerFactor walks a
 * mask's set bits, instead of materializing GpuIndices and walking
 * every pair. Each is compared here with a pairwise
 * reference built on GpuIndices — the original algorithm, kept as the
 * oracle — over every non-empty mask of the H100 and A40 fabrics and
 * of 200 seeded random symmetric link matrices with random per-GPU
 * straggler factors, and over random masks of 32-GPU fabrics (the
 * topology's limit). The one-GPU and empty-mask edges have their own
 * tests. ProcessGroupCache's warm set is checked against a std::set
 * through seeded warm / invalidate sequences, and cluster::Popcount
 * against std::popcount.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "cluster/gpu_set.h"
#include "cluster/process_group.h"
#include "cluster/topology.h"
#include "costmodel/model_config.h"
#include "costmodel/step_cost.h"
#include "serving/engine.h"
#include "serving/latent_manager.h"
#include "serving/request_tracker.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace tetri::cluster {
namespace {

/** Pairwise minimum over GpuIndices: the pre-bit-walk algorithm. */
double
RefCollectiveBandwidth(const Topology& topo, GpuMask mask)
{
  const std::vector<int> gpus = GpuIndices(mask);
  if (gpus.size() == 1) return Topology::kSingleGpuBandwidth;
  double min_bw = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < gpus.size(); ++i) {
    for (std::size_t j = i + 1; j < gpus.size(); ++j) {
      min_bw = std::min(min_bw, topo.LinkBandwidth(gpus[i], gpus[j]));
    }
  }
  return min_bw;
}

/** Rank of the mask's bottleneck among the node's distinct links. */
int
RefBottleneckClass(const Topology& topo, GpuMask mask)
{
  std::vector<double> links;
  for (int a = 0; a < topo.num_gpus(); ++a) {
    for (int b = a + 1; b < topo.num_gpus(); ++b) {
      links.push_back(topo.LinkBandwidth(a, b));
    }
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());
  if (GpuIndices(mask).size() == 1) return static_cast<int>(links.size());
  const double bw = RefCollectiveBandwidth(topo, mask);
  return static_cast<int>(
      std::find(links.begin(), links.end(), bw) - links.begin());
}

double
RefStragglerFactor(const std::vector<double>& factors, GpuMask mask)
{
  double slow = 1.0;
  for (int gpu : GpuIndices(mask)) slow = std::max(slow, factors[gpu]);
  return slow;
}

/** A random symmetric fabric of @p n GPUs (2, 4 or 8 when 0);
 * bandwidths come from a small palette so distinct masks often share
 * a bottleneck class. */
Topology
RandomTopology(Rng& rng, int n = 0)
{
  static constexpr double kPalette[] = {12.5, 25.0, 50.0,
                                        112.0, 300.0, 900.0};
  if (n == 0) n = 1 << (1 + static_cast<int>(rng.NextBelow(3)));
  const int palette = 1 + static_cast<int>(rng.NextBelow(6));
  std::vector<std::vector<double>> links(
      n, std::vector<double>(n, Topology::kSingleGpuBandwidth));
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      links[a][b] = links[b][a] = kPalette[rng.NextBelow(palette)];
    }
  }
  GpuSpec gpu;
  gpu.name = "random";
  gpu.peak_tflops = 500.0;
  return Topology(n, gpu, std::move(links), /*base_latency_us=*/30.0,
                  "random");
}

/** Every non-empty mask of @p topo against the references. */
void
CheckTopology(const Topology& topo, const std::vector<double>& factors)
{
  const costmodel::ModelConfig model = costmodel::ModelConfig::FluxDev();
  const costmodel::StepCostModel cost(&model, &topo);
  sim::Simulator sim;
  serving::RequestTracker tracker;
  serving::LatentManager latents(&cost);
  serving::ExecutionEngine engine(&sim, &cost, &tracker, &latents, 1);
  for (int gpu = 0; gpu < topo.num_gpus(); ++gpu) {
    engine.SetStragglerFactor(gpu, factors[gpu]);
  }
  for (GpuMask mask = 1; mask <= topo.all_gpus(); ++mask) {
    EXPECT_EQ(topo.CollectiveBandwidth(mask),
              RefCollectiveBandwidth(topo, mask))
        << topo.name() << " mask " << MaskToString(mask);
    EXPECT_EQ(topo.BottleneckClass(mask), RefBottleneckClass(topo, mask))
        << topo.name() << " mask " << MaskToString(mask);
    EXPECT_EQ(engine.StragglerFactor(mask),
              RefStragglerFactor(factors, mask))
        << topo.name() << " mask " << MaskToString(mask);
  }
}

std::vector<double>
RandomFactors(Rng& rng, int n)
{
  std::vector<double> factors(n);
  // Some below 1.0, so the reference's floor (a group never runs
  // faster than nominal) is exercised too.
  for (double& f : factors) f = rng.NextRange(0.5, 3.0);
  return factors;
}

TEST(MaskMathPropertyTest, PaperFabricsMatchPairwiseReference)
{
  Rng rng(11);
  for (const Topology& topo :
       {Topology::H100Node(8), Topology::A40Node(4), Topology::A40Node(8)}) {
    CheckTopology(topo, RandomFactors(rng, topo.num_gpus()));
  }
}

TEST(MaskMathPropertyTest, RandomSymmetricFabricsMatchPairwiseReference)
{
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const Topology topo = RandomTopology(rng);
    CheckTopology(topo, RandomFactors(rng, topo.num_gpus()));
  }
}

TEST(MaskMathPropertyTest, ThirtyTwoGpuFabricsMatchPairwiseReference)
{
  // The topology's limit: 2^32 masks cannot be enumerated, so random
  // masks of every density, plus the full node and every pair.
  Rng rng(32);
  for (int trial = 0; trial < 20; ++trial) {
    const Topology topo = RandomTopology(rng, 32);
    std::vector<GpuMask> masks = {topo.all_gpus()};
    for (int a = 0; a < 32; ++a) {
      for (int b = a + 1; b < 32; ++b) {
        masks.push_back((GpuMask{1} << a) | (GpuMask{1} << b));
      }
    }
    for (int i = 0; i < 2000; ++i) {
      // AND-ing 0..3 extra random words thins the mask out.
      GpuMask mask = static_cast<GpuMask>(rng.NextU64());
      for (int k = static_cast<int>(rng.NextBelow(4)); k > 0; --k) {
        mask &= static_cast<GpuMask>(rng.NextU64());
      }
      if (mask != 0) masks.push_back(mask);
    }
    for (GpuMask mask : masks) {
      EXPECT_EQ(topo.CollectiveBandwidth(mask),
                RefCollectiveBandwidth(topo, mask))
          << "trial " << trial << " mask " << MaskToString(mask);
      EXPECT_EQ(topo.BottleneckClass(mask), RefBottleneckClass(topo, mask))
          << "trial " << trial << " mask " << MaskToString(mask);
    }
  }
}

/** Warm checks of @p topo's cache against a std::set reference over a
 * seeded sequence of warms, probes and invalidations. */
void
CheckWarmSet(const Topology& topo, Rng& rng)
{
  constexpr double kBufferMib = 3.0;
  ProcessGroupCache cache(&topo, /*warmup_latency_us=*/1000.0, kBufferMib);
  std::set<GpuMask> ref;
  auto random_mask = [&]() {
    GpuMask mask = static_cast<GpuMask>(rng.NextU64()) & topo.all_gpus();
    if (rng.NextBelow(2) == 0) mask &= static_cast<GpuMask>(rng.NextU64());
    return mask;
  };
  for (int op = 0; op < 3000; ++op) {
    const GpuMask mask = random_mask();
    switch (rng.NextBelow(4)) {
      case 0:
      case 1: {
        if (mask == 0) break;
        const bool warm = Popcount(mask) <= 1 || ref.contains(mask);
        EXPECT_EQ(cache.EnsureWarm(mask) == 0, warm)
            << topo.name() << " op " << op << " " << MaskToString(mask);
        if (Popcount(mask) > 1) ref.insert(mask);
        break;
      }
      case 2: {
        // Mostly single-GPU failures, as chaos injects them.
        const GpuMask failed =
            rng.NextBelow(3) == 0
                ? mask
                : GpuMask{1} << rng.NextBelow(topo.num_gpus());
        int expected = 0;
        for (auto it = ref.begin(); it != ref.end();) {
          if ((*it & failed) != 0) {
            it = ref.erase(it);
            ++expected;
          } else {
            ++it;
          }
        }
        EXPECT_EQ(cache.Invalidate(failed), expected)
            << topo.name() << " op " << op;
        break;
      }
      default:
        EXPECT_EQ(cache.IsWarm(mask),
                  Popcount(mask) <= 1 || ref.contains(mask))
            << topo.name() << " op " << op << " " << MaskToString(mask);
        break;
    }
    ASSERT_EQ(cache.NumWarmGroups(), ref.size()) << "op " << op;
  }
  for (int gpu = 0; gpu < topo.num_gpus(); ++gpu) {
    int groups = 0;
    for (GpuMask g : ref) groups += static_cast<int>((g >> gpu) & 1U);
    EXPECT_NEAR(cache.BufferMibOnGpu(gpu), groups * kBufferMib, 1e-6)
        << topo.name() << " gpu " << gpu;
  }
}

TEST(MaskMathPropertyTest, WarmCheckMatchesReferenceSet)
{
  Rng rng(77);
  for (const Topology& topo :
       {Topology::H100Node(8), Topology::A40Node(4), Topology::A40Node(8),
        RandomTopology(rng, 32)}) {
    CheckWarmSet(topo, rng);
  }
}

TEST(MaskMathPropertyTest, PopcountMatchesStd)
{
  for (std::uint32_t mask = 0; mask <= 0xFFFF; ++mask) {
    ASSERT_EQ(Popcount(mask), std::popcount(mask)) << mask;
  }
  Rng rng(1);
  for (int i = 0; i < 1'000'000; ++i) {
    const auto mask = static_cast<GpuMask>(rng.NextU64());
    ASSERT_EQ(Popcount(mask), std::popcount(mask)) << mask;
  }
  EXPECT_EQ(Popcount(~GpuMask{0}), 32);
  static_assert(Popcount(0x80000001U) == 2);
}

TEST(MaskMathPropertyTest, PaperFabricsHaveExpectedClasses)
{
  // H100: one link class plus the single-GPU class. A40: PCIe and
  // NVLink pairs, plus single.
  EXPECT_EQ(Topology::H100Node(8).NumBottleneckClasses(), 2);
  const Topology a40 = Topology::A40Node(4);
  EXPECT_EQ(a40.NumBottleneckClasses(), 3);
  EXPECT_EQ(a40.BottleneckClass(0b0110), 0);  // crosses PCIe
  EXPECT_EQ(a40.BottleneckClass(0b0011), 1);  // NVLink pair
  EXPECT_EQ(a40.BottleneckClass(0b0100), 2);  // one GPU
}

TEST(MaskMathPropertyTest, SingleGpuKeepsItsSentinelBandwidth)
{
  for (const Topology& topo :
       {Topology::H100Node(8), Topology::A40Node(4)}) {
    for (int gpu = 0; gpu < topo.num_gpus(); ++gpu) {
      const GpuMask mask = GpuMask{1} << gpu;
      EXPECT_EQ(topo.CollectiveBandwidth(mask), 1e12);
      EXPECT_EQ(topo.CollectiveBandwidth(mask),
                Topology::kSingleGpuBandwidth);
      EXPECT_EQ(topo.BottleneckClass(mask),
                topo.NumBottleneckClasses() - 1);
      EXPECT_TRUE(topo.IsNvLinkOnly(mask));
    }
  }
}

TEST(MaskMathPropertyDeathTest, EmptyMaskPanics)
{
  const Topology topo = Topology::A40Node(4);
  EXPECT_DEATH(topo.CollectiveBandwidth(0), "mask != 0");
  EXPECT_DEATH(topo.BottleneckClass(0), "mask != 0");
}

}  // namespace
}  // namespace tetri::cluster
