/**
 * @file
 * GpuAllocator property test: across 10k randomized
 * allocate/release/fail/recover cycles the allocator never hands out a
 * mask that overlaps a live allocation, touches a failed GPU, leaves
 * the node, or has the wrong width — and its free count always matches
 * a model tracking busy/failed sets independently.
 */
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "cluster/allocator.h"
#include "cluster/topology.h"
#include "util/rng.h"

namespace tetri::cluster {
namespace {

struct LiveAlloc {
  GpuMask mask = 0;
  int width = 0;
};

TEST(AllocatorProperty, TenThousandRandomizedCyclesStayDisjoint)
{
  const auto topo = Topology::H100Node();
  GpuAllocator allocator(&topo);

  Rng rng(8070262);
  std::vector<LiveAlloc> live;
  GpuMask busy = 0;    // independent model of allocated GPUs
  GpuMask failed = 0;  // independent model of failed GPUs
  int granted = 0;

  const int pow2_sizes[] = {1, 2, 4, 8};
  for (int cycle = 0; cycle < 10000; ++cycle) {
    const double roll = rng.NextDouble();
    if (roll < 0.5) {
      // Allocate a random width with a random (possibly stale)
      // placement preference.
      const int k = pow2_sizes[rng.NextBelow(4)];
      const GpuMask prefer =
          rng.NextDouble() < 0.5
              ? static_cast<GpuMask>(rng.NextBelow(256))
              : 0;
      const int free_before = allocator.NumFree();
      const std::optional<GpuMask> mask = allocator.Allocate(k, prefer);
      if (k > free_before) {
        ASSERT_FALSE(mask.has_value())
            << "cycle " << cycle << ": allocated " << k << " from "
            << free_before << " free";
        continue;
      }
      ASSERT_TRUE(mask.has_value())
          << "cycle " << cycle << ": refused " << k << " with "
          << free_before << " free";
      ASSERT_EQ(Popcount(*mask), k) << "cycle " << cycle;
      ASSERT_EQ(*mask & busy, 0u)
          << "cycle " << cycle << ": overlap with live allocation "
          << MaskToString(*mask & busy);
      ASSERT_EQ(*mask & failed, 0u)
          << "cycle " << cycle << ": handed out failed GPUs "
          << MaskToString(*mask & failed);
      ASSERT_EQ(*mask & ~topo.all_gpus(), 0u) << "cycle " << cycle;
      busy |= *mask;
      live.push_back({*mask, k});
      ++granted;
    } else if (roll < 0.8) {
      // Release a random live allocation.
      if (live.empty()) continue;
      const std::size_t idx = rng.NextBelow(live.size());
      allocator.Release(live[idx].mask);
      busy &= ~live[idx].mask;
      live[idx] = live.back();
      live.pop_back();
    } else if (roll < 0.9) {
      // Fail a random currently-healthy GPU (busy or free — failure
      // does not respect allocation boundaries).
      const GpuMask healthy = topo.all_gpus() & ~failed;
      if (healthy == 0) continue;
      const auto gpus = GpuIndices(healthy);
      const GpuMask victim =
          GpuMask{1} << gpus[rng.NextBelow(gpus.size())];
      allocator.MarkFailed(victim);
      failed |= victim;
    } else {
      // Recover a random failed GPU.
      if (failed == 0) continue;
      const auto gpus = GpuIndices(failed);
      const GpuMask back = GpuMask{1} << gpus[rng.NextBelow(gpus.size())];
      allocator.MarkRecovered(back);
      failed &= ~back;
    }

    // The allocator's free view must match the model every cycle.
    ASSERT_EQ(allocator.free_mask(),
              topo.all_gpus() & ~busy & ~failed)
        << "cycle " << cycle;
    ASSERT_EQ(allocator.failed_mask(), failed) << "cycle " << cycle;
  }

  // The sweep exercised the interesting paths, not just refusals (an
  // 8-GPU node saturates fast, so most attempts are legal refusals).
  EXPECT_GT(granted, 1000);
}

}  // namespace
}  // namespace tetri::cluster
