#include "cluster/process_group.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"

namespace tetri::cluster {

ProcessGroupCache::ProcessGroupCache(const Topology* topology,
                                     double warmup_latency_us,
                                     double buffer_mib_per_gpu)
    : topology_(topology),
      warmup_latency_us_(warmup_latency_us),
      buffer_mib_per_gpu_(buffer_mib_per_gpu),
      buffer_mib_(topology->num_gpus(), 0.0)
{
}

TimeUs
ProcessGroupCache::WarmupCost(GpuMask mask) const
{
  const int k = Popcount(mask);
  if (k <= 1) return 0;
  const double scale = std::log2(static_cast<double>(k)) + 1.0;
  const double pcie = topology_->IsNvLinkOnly(mask) ? 1.0 : 2.5;
  // Truncation predates the one-rounding-rule lint; switching to
  // RoundUs would shift every committed warmup golden by 1us.
  return static_cast<TimeUs>(warmup_latency_us_ * scale * pcie);  // NOLINT(tetri-rounding)
}

TimeUs
ProcessGroupCache::EnsureWarm(GpuMask mask)
{
  TETRI_CHECK((mask & ~topology_->all_gpus()) == 0);
  if (Popcount(mask) <= 1) return 0;
  const auto it = std::lower_bound(warm_.begin(), warm_.end(), mask);
  if (it != warm_.end() && *it == mask) return 0;
  warm_.insert(it, mask);
  for (GpuMask rest = mask; rest != 0; rest &= rest - 1) {
    buffer_mib_[std::countr_zero(rest)] += buffer_mib_per_gpu_;
  }
  const TimeUs cost = WarmupCost(mask);
  total_warmup_us_ += cost;
  return cost;
}

TimeUs
ProcessGroupCache::WarmAll(const std::vector<GpuMask>& groups)
{
  TimeUs total = 0;
  for (GpuMask g : groups) total += EnsureWarm(g);
  return total;
}

int
ProcessGroupCache::Invalidate(GpuMask mask)
{
  TETRI_CHECK((mask & ~topology_->all_gpus()) == 0);
  // Compact the survivors in place; they stay in ascending order.
  std::size_t kept = 0;
  for (const GpuMask group : warm_) {
    if ((group & mask) == 0) {
      warm_[kept++] = group;
      continue;
    }
    for (GpuMask rest = group; rest != 0; rest &= rest - 1) {
      buffer_mib_[std::countr_zero(rest)] -= buffer_mib_per_gpu_;
    }
  }
  const int evicted = static_cast<int>(warm_.size() - kept);
  warm_.resize(kept);
  return evicted;
}

bool
ProcessGroupCache::IsWarm(GpuMask mask) const
{
  if (Popcount(mask) <= 1) return true;
  return std::binary_search(warm_.begin(), warm_.end(), mask);
}

double
ProcessGroupCache::BufferMibOnGpu(int gpu) const
{
  TETRI_CHECK(gpu >= 0 && gpu < topology_->num_gpus());
  return buffer_mib_[gpu];
}

std::vector<GpuMask>
ProcessGroupCache::DefaultWarmSet(const Topology& topology)
{
  std::vector<GpuMask> out;
  for (int k = 2; k <= topology.num_gpus(); k *= 2) {
    for (GpuMask block : AlignedBlocks(topology.num_gpus(), k)) {
      out.push_back(block);
    }
  }
  return out;
}

}  // namespace tetri::cluster
