/**
 * @file
 * Latent Manager (§3, §5): tracks where each request's intermediate
 * latent lives and charges the (tiny) transfer cost whenever a
 * request's GPU group changes between steps. Mirrors the paper's
 * future-like asynchronous latent handoff: the transfer is accounted
 * against execution time but excluded from the scheduler's deadline
 * math, and Table 4 verifies it stays below 0.05% of step latency.
 *
 * A request's latent location lives in its own record
 * (Request::latent_mask), so tracking it costs no lookup.
 */
#ifndef TETRI_SERVING_LATENT_MANAGER_H
#define TETRI_SERVING_LATENT_MANAGER_H

#include "costmodel/step_cost.h"
#include "serving/request.h"
#include "trace/sink.h"
#include "util/stats.h"
#include "util/types.h"

namespace tetri::serving {

/** Tracks latent placement and transfer overhead per request. */
class LatentManager {
 public:
  explicit LatentManager(const costmodel::StepCostModel* cost);

  /** Attach a sink notified of latent placements (kLatentAssign) and
   * releases (kLatentRelease). Nullable, not owned. */
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }

  /**
   * Called when @p request is about to execute on @p mask at virtual
   * time @p now; moves its latent there.
   * @return the transfer latency charged now: zero for the first
   * assignment or when the group is unchanged/overlapping on the
   * source GPU, else the modeled latent-copy time at the request's
   * resolution.
   */
  TimeUs OnAssignment(Request& request, GpuMask mask, int batch = 1,
                      TimeUs now = 0);

  /** Forget a finished or dropped request's latent. */
  void Forget(Request& request, TimeUs now = 0);

  /** Total transfer time charged across all requests. */
  TimeUs total_transfer_us() const { return total_transfer_us_; }

  /** Number of transfers that actually moved data. */
  int num_transfers() const { return num_transfers_; }

  /** Distribution of per-transfer latencies (us). */
  const RunningStat& transfer_stats() const { return transfer_stats_; }

 private:
  const costmodel::StepCostModel* cost_;
  trace::TraceSink* trace_ = nullptr;
  TimeUs total_transfer_us_ = 0;
  int num_transfers_ = 0;
  RunningStat transfer_stats_;
};

}  // namespace tetri::serving

#endif  // TETRI_SERVING_LATENT_MANAGER_H
