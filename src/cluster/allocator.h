/**
 * @file
 * Placement-aware GPU allocator for one node.
 *
 * The allocator hands out power-of-two sized GPU sets. It prefers, in
 * order: (1) the exact previous mask of the requester (placement
 * preservation, §4.2.3), (2) a buddy-aligned free block that keeps
 * collectives on fast links, (3) a free block maximizing overlap with
 * the previous mask, (4) any free subset. Callers release masks when a
 * round ends; nothing is implicitly reclaimed.
 */
#ifndef TETRI_CLUSTER_ALLOCATOR_H
#define TETRI_CLUSTER_ALLOCATOR_H

#include <optional>

#include "cluster/topology.h"
#include "util/types.h"

namespace tetri::cluster {

/** Tracks free GPUs and performs preference-ordered placement. */
class GpuAllocator {
 public:
  explicit GpuAllocator(const Topology* topology);

  /** GPUs not currently allocated (failed GPUs are never free). */
  GpuMask free_mask() const { return free_ & ~failed_; }
  int NumFree() const { return Popcount(free_mask()); }

  /** GPUs currently marked failed. */
  GpuMask failed_mask() const { return failed_; }

  /**
   * Allocate @p k GPUs; @p k must be a power of two (panics otherwise).
   * @param prefer previous mask of the requester; 0 for no preference.
   * @return the allocated mask, or nullopt if fewer than k GPUs free.
   */
  std::optional<GpuMask> Allocate(int k, GpuMask prefer = 0);

  /** Return GPUs to the free pool. The mask must be fully allocated. */
  void Release(GpuMask mask);

  /** Mark a specific mask allocated (used by placement preservation). */
  bool TryAllocateExact(GpuMask mask);

  /** Reset all GPUs to free (failed GPUs stay unallocatable). */
  void Clear();

  /** Start from an explicit free set (schedulers plan round-locally). */
  void SetFree(GpuMask free);

  /**
   * Mark GPUs failed: they are excluded from every allocation path
   * until MarkRecovered, regardless of the free set. Releasing a mask
   * that includes failed GPUs stays legal (an aborted assignment hands
   * its dead GPUs back), but the bits stay unallocatable.
   */
  void MarkFailed(GpuMask mask);

  /** Return failed GPUs to service. @p mask must be failed. */
  void MarkRecovered(GpuMask mask);

 private:
  const Topology* topology_;
  GpuMask free_;
  GpuMask failed_ = 0;
};

}  // namespace tetri::cluster

#endif  // TETRI_CLUSTER_ALLOCATOR_H
