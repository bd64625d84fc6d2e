/**
 * @file
 * NCCL-style process-group cache with warmup accounting (§5).
 *
 * Creating a communicator object is cheap; the *first* collective on a
 * group initializes channels and allocates persistent device buffers.
 * TetriServe warms a compact set of overlapping groups proactively and
 * defers the rest to on-demand warmup. This model charges a one-time
 * warmup latency and per-GPU buffer memory for each distinct group, so
 * benches can report both startup cost and peak memory pressure.
 *
 * Not thread-safe: its one owner is the single-threaded
 * serving::ExecutionEngine, which warms groups on dispatch and
 * invalidates them on GPU failure from the same event loop. Nothing in
 * the concurrent serving runtime reaches it.
 */
#ifndef TETRI_CLUSTER_PROCESS_GROUP_H
#define TETRI_CLUSTER_PROCESS_GROUP_H

#include <vector>

#include "cluster/topology.h"
#include "util/types.h"

namespace tetri::cluster {

/** Cache of warmed communication groups. */
class ProcessGroupCache {
 public:
  /**
   * @param topology node fabric (warmup is slower across PCIe).
   * @param warmup_latency_us channel-init latency for a 2-GPU NVLink
   *        group; scales with group size and link class.
   * @param buffer_mib_per_gpu persistent buffer footprint per member.
   */
  ProcessGroupCache(const Topology* topology, double warmup_latency_us,
                    double buffer_mib_per_gpu);

  /**
   * Ensure @p mask is warmed. @return the latency charged now: zero if
   * already warm, otherwise the modeled warmup cost.
   */
  TimeUs EnsureWarm(GpuMask mask);

  /** Warm an explicit list of groups up front (startup path). */
  TimeUs WarmAll(const std::vector<GpuMask>& groups);

  bool IsWarm(GpuMask mask) const;
  std::size_t NumWarmGroups() const { return warm_.size(); }

  /**
   * Process-group collapse: evict every warm group containing a GPU in
   * @p mask (a failed worker tears down its communicators) and return
   * their persistent buffers. Survivor groups re-warm on demand,
   * paying the warmup latency again. @return groups evicted.
   */
  int Invalidate(GpuMask mask);

  /** Total persistent buffer memory attributed to one GPU, MiB. */
  double BufferMibOnGpu(int gpu) const;

  /** Sum of warmup latencies charged so far. */
  TimeUs total_warmup_us() const { return total_warmup_us_; }

  /**
   * The compact default warm set from §5: every buddy-aligned block of
   * every power-of-two size, which covers the allocator's preferred
   * placements.
   */
  static std::vector<GpuMask> DefaultWarmSet(const Topology& topology);

 private:
  TimeUs WarmupCost(GpuMask mask) const;

  const Topology* topology_;
  double warmup_latency_us_;
  double buffer_mib_per_gpu_;
  /** Warm groups, ascending: a node has few distinct groups, so a
   * binary search is the whole warm check. */
  std::vector<GpuMask> warm_;
  std::vector<double> buffer_mib_;
  TimeUs total_warmup_us_ = 0;
};

}  // namespace tetri::cluster

#endif  // TETRI_CLUSTER_PROCESS_GROUP_H
