#include "cluster/allocator.h"

#include "util/check.h"

namespace tetri::cluster {

GpuAllocator::GpuAllocator(const Topology* topology)
    : topology_(topology), free_(topology->all_gpus())
{
  TETRI_CHECK(topology_ != nullptr);
}

std::optional<GpuMask>
GpuAllocator::Allocate(int k, GpuMask prefer)
{
  TETRI_CHECK(IsPow2(k));
  TETRI_CHECK(k <= topology_->num_gpus());
  const GpuMask avail = free_mask();
  if (k > Popcount(avail)) return std::nullopt;

  // 1. Placement preservation: exact previous mask.
  if (prefer != 0 && Popcount(prefer) == k && (prefer & avail) == prefer) {
    free_ &= ~prefer;
    return prefer;
  }

  // 2. Fully free buddy-aligned block; among those, prefer the one
  //    with the most overlap with the previous mask, then lowest index
  //    for determinism. Blocks are walked in place, not materialized.
  const int n = topology_->num_gpus();
  const GpuMask unit = FullMask(k);
  GpuMask best = 0;  // blocks are non-empty, so 0 means none found
  int best_overlap = -1;
  for (int start = 0; start + k <= n; start += k) {
    const GpuMask block = unit << start;
    if ((block & avail) != block) continue;
    const int overlap = OverlapCount(block, prefer);
    if (overlap > best_overlap) {
      best_overlap = overlap;
      best = block;
    }
  }
  if (best != 0) {
    free_ &= ~best;
    return best;
  }

  // 3. No aligned block: gather k free GPUs, favouring bits of the
  //    previous mask first, then the lowest free indices.
  GpuMask mask = 0;
  int needed = k;
  auto take_lowest = [&](GpuMask bits) {
    for (; bits != 0 && needed > 0; bits &= bits - 1) {
      mask |= bits & (~bits + 1);
      --needed;
    }
  };
  take_lowest(prefer & avail);
  take_lowest(avail & ~mask);
  TETRI_CHECK(needed == 0);
  free_ &= ~mask;
  return mask;
}

void
GpuAllocator::Release(GpuMask mask)
{
  TETRI_CHECK_MSG((mask & free_) == 0,
                  "double free of GPUs " << MaskToString(mask & free_));
  TETRI_CHECK((mask & ~topology_->all_gpus()) == 0);
  free_ |= mask;
}

bool
GpuAllocator::TryAllocateExact(GpuMask mask)
{
  if ((mask & free_mask()) != mask) return false;
  free_ &= ~mask;
  return true;
}

void
GpuAllocator::Clear()
{
  free_ = topology_->all_gpus();
}

void
GpuAllocator::SetFree(GpuMask free)
{
  TETRI_CHECK((free & ~topology_->all_gpus()) == 0);
  free_ = free;
}

void
GpuAllocator::MarkFailed(GpuMask mask)
{
  TETRI_CHECK((mask & ~topology_->all_gpus()) == 0);
  failed_ |= mask;
}

void
GpuAllocator::MarkRecovered(GpuMask mask)
{
  TETRI_CHECK_MSG((mask & failed_) == mask,
                  "recovering GPUs that were not failed: "
                      << MaskToString(mask & ~failed_));
  failed_ &= ~mask;
}

}  // namespace tetri::cluster
