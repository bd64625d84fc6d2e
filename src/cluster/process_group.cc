#include "cluster/process_group.h"

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
ProcessGroupCache::EnsureWarmLocked(GpuMask mask)
{
  TETRI_CHECK((mask & ~topology_->all_gpus()) == 0);
  if (Popcount(mask) <= 1) return 0;
  auto it = warm_.find(mask);
  if (it != warm_.end()) return 0;
  warm_.emplace(mask, true);
  for (GpuMask rest = mask; rest != 0; rest &= rest - 1) {
    buffer_mib_[std::countr_zero(rest)] += buffer_mib_per_gpu_;
  }
  const TimeUs cost = WarmupCost(mask);
  total_warmup_us_ += cost;
  return cost;
}

TimeUs
ProcessGroupCache::EnsureWarm(GpuMask mask)
{
  const util::MutexLock lock(mu_);
  return EnsureWarmLocked(mask);
}

TimeUs
ProcessGroupCache::WarmAll(const std::vector<GpuMask>& groups)
{
  const util::MutexLock lock(mu_);
  TimeUs total = 0;
  for (GpuMask g : groups) total += EnsureWarmLocked(g);
  return total;
}

int
ProcessGroupCache::Invalidate(GpuMask mask)
{
  TETRI_CHECK((mask & ~topology_->all_gpus()) == 0);
  const util::MutexLock lock(mu_);
  int evicted = 0;
  for (auto it = warm_.begin(); it != warm_.end();) {
    if ((it->first & mask) == 0) {
      ++it;
      continue;
    }
    for (GpuMask rest = it->first; rest != 0; rest &= rest - 1) {
      buffer_mib_[std::countr_zero(rest)] -= buffer_mib_per_gpu_;
    }
    it = warm_.erase(it);
    ++evicted;
  }
  return evicted;
}

bool
ProcessGroupCache::IsWarm(GpuMask mask) const
{
  if (Popcount(mask) <= 1) return true;
  const util::MutexLock lock(mu_);
  return warm_.contains(mask);
}

double
ProcessGroupCache::BufferMibOnGpu(int gpu) const
{
  TETRI_CHECK(gpu >= 0 && gpu < topology_->num_gpus());
  const util::MutexLock lock(mu_);
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
