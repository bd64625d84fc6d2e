/**
 * @file
 * Analytical per-step latency model for sequence-parallel DiT inference.
 *
 * A denoising step on k GPUs (Ulysses-style SP, §2.1) decomposes into:
 *
 *   compute: step FLOPs split k ways, divided by an occupancy-scaled
 *            throughput. Occupancy follows a saturation curve in the
 *            per-GPU token count, which produces the paper's sub-linear
 *            scaling for small resolutions (Insight 2, Fig. 3).
 *   comm:    two all-to-all collectives per transformer layer. Each
 *            costs a fixed latency (grows with log2 k, larger across
 *            PCIe) plus transferred volume over the bottleneck link of
 *            the group (Fig. 2 shapes; A40 cliffs in Fig. 12).
 *   launch:  per-layer kernel-launch overhead, independent of batch
 *            size — this is what selective continuous batching (§5)
 *            amortizes.
 *
 * The model also provides the small stochastic jitter observed in
 * Table 1 (CV below 0.7% in all cells).
 */
#ifndef TETRI_COSTMODEL_STEP_COST_H
#define TETRI_COSTMODEL_STEP_COST_H

#include "cluster/topology.h"
#include "costmodel/model_config.h"
#include "costmodel/resolution.h"
#include "util/rng.h"
#include "util/types.h"

namespace tetri::costmodel {

/** Tunable constants of the latency model. */
struct StepCostParams {
  /** Asymptotic fraction of peak TFLOPS reachable by DiT kernels. */
  double max_occupancy = 0.85;
  /**
   * Occupancy saturation: occ = max * x / (1 + x) with
   * x = (tokens_per_gpu / half_tokens)^exponent. The exponent > 1
   * reflects how short sequences under-fill both SMs and tensor-core
   * tiles simultaneously.
   */
  double occupancy_half_tokens = 950.0;
  double occupancy_exponent = 1.3;
  /** Kernel-launch overhead per transformer layer, microseconds. */
  double launch_us_per_layer = 25.0;
  /** Activation multiple moved per layer per collective pair (QKV+O). */
  double comm_volume_factor = 4.0;
  /** Relative stddev of step-time jitter at SP=1, large resolution. */
  double jitter_base = 0.0008;
  /**
   * Stall when a request is re-sharded onto a different GPU set
   * between steps (communicator switch + rank re-init), microseconds.
   * Avoided by GPU placement preservation (§4.2.3).
   */
  double reconfig_stall_us = 3000.0;
  /** First-collective NCCL warmup for a cold 2-GPU NVLink group. */
  double pg_warmup_us = 15000.0;
  /** Persistent collective buffers per group member, MiB. */
  double pg_buffer_mib = 96.0;
};

/** Computes per-step latency components for one (model, node) pair. */
class StepCostModel {
 public:
  StepCostModel(const ModelConfig* model,
                const cluster::Topology* topology,
                StepCostParams params = StepCostParams{});

  const ModelConfig& model() const { return *model_; }
  const cluster::Topology& topology() const { return *topology_; }
  const StepCostParams& params() const { return params_; }

  /** Occupancy (fraction of peak) for a per-GPU token count. One
   * std::pow. */
  double Occupancy(double tokens_per_gpu) const;

  /** Pure compute time of one step, microseconds. One Occupancy. */
  double ComputeTimeUs(Resolution res, int degree, int batch) const;

  /**
   * Communication time of one step over the given GPU set,
   * microseconds (Ulysses all-to-all, the engine default). @p mask
   * must have exactly @p degree members. Depends on the mask only
   * through its popcount and its bottleneck bandwidth (the collective
   * latency's PCIe penalty is a threshold on that bandwidth), which
   * is what makes the engine's PlacementPriceTable key exact. Two
   * CollectiveBandwidth bit walks and a log2; no allocation.
   */
  double CommTimeUs(Resolution res, int degree, int batch,
                    GpuMask mask) const;

  /**
   * Communication time of one step under Ring attention (§2.1): k-1
   * peer-to-peer K/V block hops per layer. Rings move more bytes and
   * pay per-hop latency, but each hop is a cheap point-to-point
   * transfer; on NVLink-rich nodes Ulysses' collectives win, which is
   * why the paper (and xDiT) default to Ulysses there.
   */
  double RingCommTimeUs(Resolution res, int degree, int batch,
                        GpuMask mask) const;

  /** Kernel-launch overhead per step, microseconds. */
  double LaunchTimeUs() const;

  /**
   * Total mean step time, microseconds, for the best-case (buddy
   * aligned) placement of @p degree GPUs. Same cost as
   * StepTimeOnMaskUs.
   */
  double StepTimeUs(Resolution res, int degree, int batch = 1) const;

  /**
   * Total mean step time for an explicit placement: ComputeTimeUs +
   * CommTimeUs + LaunchTimeUs (a pow, a log2, two bottleneck walks).
   * ExecutionEngine does not call it per dispatch: its
   * PlacementPriceTable calls it once per (resolution, batch, degree,
   * bottleneck class) cell and returns the stored double after that.
   */
  double StepTimeOnMaskUs(Resolution res, int batch, GpuMask mask) const;

  /** Fraction of the step spent in communication (Fig. 2). */
  double CommFraction(Resolution res, int degree, int batch = 1) const;

  /**
   * One stochastic step-time sample (mean modulated by jitter). The
   * jitter CV rises mildly with degree and falls with resolution,
   * matching Table 1.
   */
  double SampleStepTimeUs(Resolution res, int degree, int batch,
                          Rng& rng) const;

  /** Relative jitter stddev for a cell. One log2; the engine reads it
   * from its PlacementPriceTable, precomputed per (resolution,
   * degree). */
  double JitterCv(Resolution res, int degree) const;

  /**
   * Latency of shipping one latent between GPU groups when a request's
   * parallel degree changes between steps (§5, Table 4).
   */
  double LatentTransferUs(Resolution res, int batch = 1) const;

  /**
   * Sequential per-request VAE decode latency (§5). Small relative to
   * the denoising steps and executed once per request.
   */
  double VaeDecodeUs(Resolution res) const;

  /** Best-case (aligned) mask used for degree-indexed queries. */
  GpuMask ReferenceMask(int degree) const;

 private:
  const ModelConfig* model_;
  const cluster::Topology* topology_;
  StepCostParams params_;
};

}  // namespace tetri::costmodel

#endif  // TETRI_COSTMODEL_STEP_COST_H
