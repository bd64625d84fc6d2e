/**
 * @file
 * GpuMask helpers: population count, enumeration, buddy-aligned blocks.
 *
 * Sequence-parallel groups in TetriServe are sets of GPUs on one node.
 * Allocation degrees are powers of two; "buddy-aligned" masks (blocks of
 * size k starting at a multiple of k) are preferred because they map
 * onto NVLink pair/quad boundaries, but arbitrary masks are legal — the
 * paper explicitly warms non-contiguous groups such as {0,2,3,4}.
 */
#ifndef TETRI_CLUSTER_GPU_SET_H
#define TETRI_CLUSTER_GPU_SET_H

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace tetri::cluster {

/** Number of GPUs in a mask. */
inline int Popcount(GpuMask mask) { return std::popcount(mask); }

/** Mask with the @p n lowest GPUs set. */
inline GpuMask FullMask(int n) {
  TETRI_CHECK(n >= 0 && n <= 32);
  return n == 32 ? ~GpuMask{0} : ((GpuMask{1} << n) - 1);
}

/** True if @p k is a power of two (and > 0). */
inline bool IsPow2(int k) { return k > 0 && (k & (k - 1)) == 0; }

/** Indices of set bits, ascending. Allocates: hot paths walk the
 * mask's bits with std::countr_zero instead. */
std::vector<int> GpuIndices(GpuMask mask);

/** Lowest set GPU index; mask must be non-empty. */
int LowestGpu(GpuMask mask);

/** Render as e.g. "{0,1,4}". */
std::string MaskToString(GpuMask mask);

/**
 * All buddy-aligned blocks of size @p k within an @p n GPU node, i.e.
 * masks of k consecutive GPUs starting at a multiple of k.
 */
std::vector<GpuMask> AlignedBlocks(int n, int k);

/**
 * All contiguous blocks of @p k consecutive GPUs within an @p n GPU
 * node, at every start offset. The non-power-of-two analogue of
 * AlignedBlocks (no buddy alignment exists for, say, k = 3); the
 * relaxed-placement allocator prefers these so odd-sized groups still
 * sit on neighbouring GPUs.
 */
std::vector<GpuMask> ContiguousBlocks(int n, int k);

/**
 * All subsets of @p free with exactly @p k bits (ascending mask order).
 * Used by the exact solver; exponential, so only for small nodes.
 */
std::vector<GpuMask> AllSubsetsOfSize(GpuMask free, int k);

/** Number of GPUs shared by two masks. */
inline int OverlapCount(GpuMask a, GpuMask b) { return Popcount(a & b); }

}  // namespace tetri::cluster

#endif  // TETRI_CLUSTER_GPU_SET_H
