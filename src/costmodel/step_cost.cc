#include "costmodel/step_cost.h"

#include <cmath>

#include "util/check.h"

namespace tetri::costmodel {

StepCostModel::StepCostModel(const ModelConfig* model,
                             const cluster::Topology* topology,
                             StepCostParams params)
    : model_(model), topology_(topology), params_(params)
{
  TETRI_CHECK(model_ != nullptr && topology_ != nullptr);
}

double
StepCostModel::Occupancy(double tokens_per_gpu) const
{
  TETRI_CHECK(tokens_per_gpu > 0.0);
  const double x = std::pow(
      tokens_per_gpu / params_.occupancy_half_tokens,
      params_.occupancy_exponent);
  return params_.max_occupancy * x / (1.0 + x);
}

double
StepCostModel::ComputeTimeUs(Resolution res, int degree, int batch) const
{
  // Any degree in [1, node size] is modellable: the compute split,
  // the collective formulas, and the occupancy curve are all defined
  // for arbitrary k. The power-of-two discipline lives in the
  // profiled LatencyTable and the allocator, not here.
  TETRI_CHECK(degree >= 1 && degree <= topology_->num_gpus());
  TETRI_CHECK(batch >= 1);
  const double step_tflops =
      model_->StepTflops(LatentTokens(res)) * batch;
  const double tokens_per_gpu =
      static_cast<double>(batch) * model_->TotalTokens(res) / degree;
  const double rate_tflops =
      topology_->gpu().peak_tflops * Occupancy(tokens_per_gpu);
  // TFLOP / TFLOPS = seconds.
  return step_tflops / degree / rate_tflops * 1e6;
}

double
StepCostModel::CommTimeUs(Resolution res, int degree, int batch,
                          GpuMask mask) const
{
  TETRI_CHECK(cluster::Popcount(mask) == degree);
  if (degree == 1) return 0.0;
  const double alpha = topology_->CollectiveLatencyUs(mask);
  const double bw_gbps = topology_->CollectiveBandwidth(mask);

  // Per layer, the QKV all-to-all plus the output all-to-all together
  // move comm_volume_factor * (tokens/k) * hidden activations per GPU,
  // of which a (k-1)/k fraction actually crosses links.
  const double tokens =
      static_cast<double>(batch) * model_->TotalTokens(res);
  const double bytes_per_layer =
      params_.comm_volume_factor * (tokens / degree) *
      model_->hidden_dim * model_->bytes_per_elem *
      (degree - 1.0) / degree;
  const double volume_us =
      bytes_per_layer * model_->num_layers / (bw_gbps * 1e9) * 1e6;
  const double latency_us = 2.0 * model_->num_layers * alpha;
  return latency_us + volume_us;
}

double
StepCostModel::RingCommTimeUs(Resolution res, int degree, int batch,
                              GpuMask mask) const
{
  TETRI_CHECK(cluster::Popcount(mask) == degree);
  if (degree == 1) return 0.0;
  // Per layer, each worker forwards K and V for its token shard to a
  // neighbour on each of the (degree - 1) hops: 2 * (tokens/k) *
  // hidden moved per hop per GPU. Point-to-point latency is roughly
  // the base collective latency without the log-k tree factor.
  const double bw_gbps = topology_->CollectiveBandwidth(mask);
  const double tokens =
      static_cast<double>(batch) * model_->TotalTokens(res);
  const double bytes_per_hop = 2.0 * (tokens / degree) *
                               model_->hidden_dim *
                               model_->bytes_per_elem;
  const double hops = degree - 1.0;
  const double p2p_latency_us =
      topology_->CollectiveLatencyUs(mask) /
      (1.0 + std::log2(static_cast<double>(degree)));
  return model_->num_layers *
         (hops * p2p_latency_us +
          hops * bytes_per_hop / (bw_gbps * 1e9) * 1e6);
}

double
StepCostModel::LaunchTimeUs() const
{
  return params_.launch_us_per_layer * model_->num_layers;
}

GpuMask
StepCostModel::ReferenceMask(int degree) const
{
  TETRI_CHECK(degree >= 1 && degree <= topology_->num_gpus());
  return cluster::FullMask(degree);
}

double
StepCostModel::StepTimeUs(Resolution res, int degree, int batch) const
{
  return StepTimeOnMaskUs(res, batch, ReferenceMask(degree));
}

double
StepCostModel::StepTimeOnMaskUs(Resolution res, int batch,
                                GpuMask mask) const
{
  const int degree = cluster::Popcount(mask);
  return ComputeTimeUs(res, degree, batch) +
         CommTimeUs(res, degree, batch, mask) + LaunchTimeUs();
}

double
StepCostModel::CommFraction(Resolution res, int degree, int batch) const
{
  const GpuMask mask = ReferenceMask(degree);
  const double comm = CommTimeUs(res, degree, batch, mask);
  const double total = StepTimeOnMaskUs(res, batch, mask);
  return comm / total;
}

double
StepCostModel::JitterCv(Resolution res, int degree) const
{
  // Collective skew adds variance with the degree; tiny kernels on
  // small resolutions are slightly noisier. Calibrated to keep every
  // cell under the 0.7% CV of Table 1.
  const double degree_term =
      1.0 + 0.9 * std::log2(static_cast<double>(degree));
  const double res_term =
      1.0 + 600.0 / (LatentTokens(res) + 400.0);
  return params_.jitter_base * degree_term * res_term;
}

double
StepCostModel::SampleStepTimeUs(Resolution res, int degree, int batch,
                                Rng& rng) const
{
  const double mean = StepTimeUs(res, degree, batch);
  const double cv = JitterCv(res, degree);
  const double factor = std::max(0.5, rng.NextGaussian(1.0, cv));
  return mean * factor;
}

double
StepCostModel::VaeDecodeUs(Resolution res) const
{
  // Convolutional decode scales with output pixels; normalized so a
  // 2048px decode costs ~100 ms on an H100-class GPU.
  const double mpix =
      static_cast<double>(Pixels(res)) * Pixels(res) / 1e6;
  const double h100_tflops = 1550.0;
  const double scale = h100_tflops / topology_->gpu().peak_tflops;
  return (3000.0 + mpix * 24000.0) * scale;
}

double
StepCostModel::LatentTransferUs(Resolution res, int batch) const
{
  const double bytes = model_->LatentBytes(res) * batch;
  // Latents move over the fastest link available plus a small fixed
  // software cost; they are tiny relative to activations (§5).
  const double bw_gbps =
      topology_->CollectiveBandwidth(cluster::FullMask(2));
  return 5.0 + bytes / (bw_gbps * 1e9) * 1e6;
}

}  // namespace tetri::costmodel
