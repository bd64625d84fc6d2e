/**
 * @file
 * Dense per-placement memo of the analytic step price, the one the
 * execution engine charges for every dispatch.
 *
 * StepCostModel::StepTimeOnMaskUs depends on the mask only through
 * its popcount (the degree) and its bottleneck bandwidth: compute
 * reads the degree; comm reads the collective latency (log2 of the
 * degree, times a PCIe penalty that is a threshold on the bottleneck
 * bandwidth) and the bottleneck bandwidth itself. The topology maps
 * each bottleneck bandwidth to a BottleneckClass, so one cell per
 * (resolution, batch, degree, bottleneck class) holds the exact
 * double every mask of that class would produce. Each cell is filled
 * on first use by calling StepTimeOnMaskUs on the real mask; a warm
 * cell never calls the analytic model again.
 *
 * JitterCv depends only on (resolution, degree) and is precomputed
 * for every cell at construction.
 *
 * This is not the planner's round-cell table: that one copies the
 * *profiled* LatencyTable cells TetriScheduler reads, keyed by
 * degree alone.
 */
#ifndef TETRI_COSTMODEL_PLACEMENT_PRICE_H
#define TETRI_COSTMODEL_PLACEMENT_PRICE_H

#include <vector>

#include "costmodel/resolution.h"
#include "costmodel/step_cost.h"
#include "util/types.h"

namespace tetri::costmodel {

/** Memo of one StepCostModel's placement prices. Not thread-safe. */
class PlacementPriceTable {
 public:
  explicit PlacementPriceTable(const StepCostModel* cost);

  /**
   * Mean step time on @p mask, microseconds; equal (as a double) to
   * cost->StepTimeOnMaskUs(res, batch, mask). A warm cell costs one
   * BottleneckClass and an array probe. The first batch above every
   * batch seen so far grows the table once; nothing else allocates.
   */
  double StepTimeUs(Resolution res, int batch, GpuMask mask);

  /** Equal to cost->JitterCv(res, degree). O(1). */
  double JitterCv(Resolution res, int degree) const;

 private:
  /** Marks a cell not yet priced; every real price is positive. */
  static constexpr double kUnpriced = -1.0;

  const StepCostModel* cost_;
  int num_gpus_;
  int num_classes_;
  int max_batch_ = 0;
  /** [res][degree - 1]. */
  std::vector<double> jitter_cv_;
  /** [batch - 1][res][degree - 1][class]. Batch is the outer index,
   * so a larger batch extends the table without moving any cell. */
  std::vector<double> step_us_;
};

}  // namespace tetri::costmodel

#endif  // TETRI_COSTMODEL_PLACEMENT_PRICE_H
