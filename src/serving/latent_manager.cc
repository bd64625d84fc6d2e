#include "serving/latent_manager.h"

#include "cluster/gpu_set.h"
#include "util/check.h"

namespace tetri::serving {

LatentManager::LatentManager(const costmodel::StepCostModel* cost)
    : cost_(cost)
{
  TETRI_CHECK(cost_ != nullptr);
}

TimeUs
LatentManager::OnAssignment(Request& request, GpuMask mask, int batch,
                            TimeUs now)
{
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kLatentAssign;
    ev.time_us = now;
    ev.request = request.meta.id;
    ev.mask = mask;
    trace_->OnEvent(ev);
  }
  TETRI_CHECK(mask != 0);
  const GpuMask prev = request.latent_mask;
  request.latent_mask = mask;
  if (prev == 0) {
    // First placement: latent is created in place from the text
    // encoding; nothing moves.
    return 0;
  }
  if (cluster::OverlapCount(prev, mask) > 0) {
    // Sequence-parallel ranks re-shard locally; the latent is already
    // resident on at least one member GPU, so no cross-group copy.
    return 0;
  }
  const TimeUs cost = static_cast<TimeUs>(
      cost_->LatentTransferUs(request.meta.resolution, batch));
  total_transfer_us_ += cost;
  ++num_transfers_;
  transfer_stats_.Add(static_cast<double>(cost));
  return cost;
}

void
LatentManager::Forget(Request& request, TimeUs now)
{
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kLatentRelease;
    ev.time_us = now;
    ev.request = request.meta.id;
    trace_->OnEvent(ev);
  }
  request.latent_mask = 0;
}

}  // namespace tetri::serving
