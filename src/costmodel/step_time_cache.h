/**
 * @file
 * Memoized front of LatencyTable::StepTimeUs.
 *
 * TetriScheduler::Plan evaluates the same (resolution, degree, batch)
 * step times dozens of times per round — deadline allocation, round
 * packing, batching feasibility, and elastic scale-up all consult the
 * table for the handful of cells the current queue mix touches. The
 * table lookup itself walks nested vectors and re-validates its
 * arguments on every call; this cache flattens that to one
 * bounds-free array probe after the first hit per key.
 *
 * A step time is a pure function of the bound table, so a value stays
 * valid for as long as the binding: the cache persists across rounds
 * and only Bind() invalidates it. The slot array is allocated once per
 * bound table (zero steady-state heap traffic). Cached values are the
 * table's values verbatim — the cache can never change a planning
 * decision, only the cost of making it.
 */
#ifndef TETRI_COSTMODEL_STEP_TIME_CACHE_H
#define TETRI_COSTMODEL_STEP_TIME_CACHE_H

#include <vector>

#include "costmodel/latency_table.h"

namespace tetri::costmodel {

/** Memoizing wrapper over one LatencyTable. Not thread-safe. */
class StepTimeCache {
 public:
  StepTimeCache() = default;
  explicit StepTimeCache(const LatencyTable* table) { Bind(table); }

  /** Bind (or re-bind) the backing table and drop all cached values. */
  void Bind(const LatencyTable* table);

  const LatencyTable* table() const { return table_; }

  /**
   * Mean step time, microseconds; identical to
   * table()->StepTimeUs(res, degree, batch) by construction.
   */
  double StepTimeUs(Resolution res, int degree, int batch = 1);

 private:
  /** Marks a slot not yet filled; profiled step times are positive. */
  static constexpr double kUnset = -1.0;

  const LatencyTable* table_ = nullptr;
  int max_degree_ = 0;
  int max_batch_ = 0;
  // [res][degree-1][batch-1] flattened. Dense in the degree, so the
  // slots between powers of two stay unused (a few hundred bytes) in
  // exchange for an index that needs no log2.
  std::vector<double> slots_;
};

}  // namespace tetri::costmodel

#endif  // TETRI_COSTMODEL_STEP_TIME_CACHE_H
