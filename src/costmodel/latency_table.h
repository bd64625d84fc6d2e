/**
 * @file
 * Offline-profiled per-step latency lookup table (§4.2.1).
 *
 * TetriServe's scheduler never evaluates the analytical model online;
 * it consumes this table, exactly as the paper profiles T_ij(k) offline
 * and stores GPU-hour values in a lookup structure. Profiling runs the
 * step-cost model repeatedly with jitter and records the mean, so the
 * table reflects what measurement on real hardware would produce.
 */
#ifndef TETRI_COSTMODEL_LATENCY_TABLE_H
#define TETRI_COSTMODEL_LATENCY_TABLE_H

#include <array>
#include <string>
#include <vector>

#include "costmodel/step_cost.h"
#include "util/types.h"

namespace tetri::costmodel {

/** Profiled statistics for one (resolution, degree, batch) cell. */
struct LatencyCell {
  double mean_us = 0.0;
  double cv = 0.0;
};

/** Immutable lookup table of profiled per-step latencies. */
class LatencyTable {
 public:
  /**
   * Profile every (resolution, power-of-two degree, batch) cell.
   * @param cost analytical model standing in for the real hardware.
   * @param max_batch largest batch profiled (>= 1).
   * @param samples measurement repetitions per cell.
   * @param seed RNG seed for the jitter stream.
   */
  static LatencyTable Profile(const StepCostModel& cost, int max_batch = 8,
                              int samples = 20, std::uint64_t seed = 42);

  int num_degrees() const { return static_cast<int>(degrees_.size()); }
  int max_batch() const { return max_batch_; }
  int max_degree() const { return degrees_.back(); }

  /** Feasible degrees: the powers of two {1, 2, 4, ...} up to the
   * node size. */
  const std::vector<int>& degrees() const { return degrees_; }

  /** Mean step time, microseconds. @p degree must be a profiled power
   * of two; any other degree panics. */
  double StepTimeUs(Resolution res, int degree, int batch = 1) const;

  /** Profiled coefficient of variation for a cell. */
  double StepCv(Resolution res, int degree, int batch = 1) const;

  /** GPU-time product k * T(k) for one step, GPU-microseconds. */
  double GpuTimeUs(Resolution res, int degree, int batch = 1) const;

  /** min_k T(k): the fastest achievable step time (used for LB_i). */
  double MinStepTimeUs(Resolution res) const;

  /** Degree achieving MinStepTimeUs. */
  int FastestDegree(Resolution res) const;

  /** Degree minimizing k * T(k) (the most GPU-efficient degree). */
  int MostEfficientDegree(Resolution res) const;

  /** Profiled sequential VAE decode latency, microseconds. */
  double VaeDecodeUs(Resolution res) const;

  /** Render the table (bs=1) as CSV for inspection. */
  std::string ToCsv() const;

 private:
  LatencyTable() = default;

  const LatencyCell& Cell(Resolution res, int degree, int batch) const;

  int max_batch_ = 0;
  std::vector<int> degrees_;
  std::array<double, kNumResolutions> vae_us_{};
  // cells_[res][log2(degree)][batch-1].
  std::vector<std::vector<std::vector<LatencyCell>>> cells_;
};

}  // namespace tetri::costmodel

#endif  // TETRI_COSTMODEL_LATENCY_TABLE_H
