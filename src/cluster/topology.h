/**
 * @file
 * Node hardware description: GPU compute capability and the inter-GPU
 * link fabric. Two concrete fabrics from the paper's testbeds:
 *
 *  - H100 node: 8 GPUs, NVLink 4.0 all-to-all (900 GB/s per GPU).
 *  - A40 node: 4 GPUs, NVLink only within pairs {0,1} and {2,3};
 *    anything crossing a pair boundary goes over PCIe 4.0.
 *
 * The communication cost of a collective over a GPU set is governed by
 * the *bottleneck* link inside the set, which is how the paper explains
 * SD3's SP=2/SP=4 cliffs on A40 (§6.4).
 */
#ifndef TETRI_CLUSTER_TOPOLOGY_H
#define TETRI_CLUSTER_TOPOLOGY_H

#include <string>
#include <vector>

#include "cluster/gpu_set.h"
#include "util/types.h"

namespace tetri::cluster {

/** Per-GPU compute/memory capability. */
struct GpuSpec {
  std::string name;
  /** Effective peak throughput for DiT kernels, TFLOPS. */
  double peak_tflops = 0.0;
  /** HBM bandwidth, GB/s (used by the toy VAE/latent model). */
  double hbm_gbps = 0.0;
  /** Device memory, GiB. */
  double memory_gib = 0.0;
};

/** Kind of link between a pair of GPUs. */
enum class LinkType { kNvLinkFull, kNvLinkPair, kPcie };

/** Inter-GPU fabric of a single node. */
class Topology {
 public:
  /**
   * @param num_gpus GPUs on the node (power of two, <= 32).
   * @param gpu per-GPU capability.
   * @param link_gbps pairwise unidirectional bandwidth matrix, GB/s.
   * @param base_latency_us fixed software/launch latency per collective.
   * @param name human-readable fabric name.
   */
  Topology(int num_gpus, GpuSpec gpu,
           std::vector<std::vector<double>> link_gbps,
           double base_latency_us, std::string name);

  int num_gpus() const { return num_gpus_; }
  const GpuSpec& gpu() const { return gpu_; }
  const std::string& name() const { return name_; }
  GpuMask all_gpus() const { return FullMask(num_gpus_); }

  /**
   * Bandwidth a one-GPU "collective" reports, GB/s: no link is
   * crossed, so it is effectively infinite.
   */
  static constexpr double kSingleGpuBandwidth = 1e12;

  /** Bandwidth of the direct link between two distinct GPUs, GB/s. */
  double LinkBandwidth(int a, int b) const;

  /**
   * Effective per-GPU bandwidth for a collective spanning @p mask:
   * the minimum pairwise bandwidth inside the set (bottleneck link).
   * A one-GPU mask returns kSingleGpuBandwidth; an empty mask, or one
   * naming GPUs outside the node, panics.
   * O(k^2) in the mask's popcount k, walking set bits; no allocation.
   */
  double CollectiveBandwidth(GpuMask mask) const;

  /**
   * Fixed latency for one collective over @p mask, microseconds. Grows
   * logarithmically with the group size and is larger when the group
   * spans a PCIe hop. One CollectiveBandwidth plus a log2; no
   * allocation.
   */
  double CollectiveLatencyUs(GpuMask mask) const;

  /**
   * True if every link inside the mask is NVLink-class: a threshold on
   * CollectiveBandwidth, so it depends on the mask only through its
   * bottleneck bandwidth. Same cost as CollectiveBandwidth.
   */
  bool IsNvLinkOnly(GpuMask mask) const;

  /**
   * Number of bottleneck classes: one per distinct link bandwidth on
   * the node, plus one for a single GPU. H100 has 2, A40 has 3.
   */
  int NumBottleneckClasses() const {
    return static_cast<int>(link_classes_gbps_.size()) + 1;
  }

  /**
   * Class of @p mask's bottleneck bandwidth: its index in the node's
   * distinct link bandwidths sorted ascending (0 = slowest link), or
   * NumBottleneckClasses() - 1 for a single GPU. Two masks with the
   * same popcount and class have the same CollectiveBandwidth, hence
   * the same collective latency and comm time. Same cost as
   * CollectiveBandwidth plus a search over the few classes.
   */
  int BottleneckClass(GpuMask mask) const;

  /** Maximum sequence-parallel degree = node size. */
  int MaxDegree() const { return num_gpus_; }

  /** Feasible power-of-two degrees {1, 2, 4, ..., num_gpus}. */
  std::vector<int> FeasibleDegrees() const;

  /** 8xH100 with NVLink 4.0 all-to-all. */
  static Topology H100Node(int num_gpus = 8);

  /** 4xA40, NVLink within pairs, PCIe 4.0 across pairs. */
  static Topology A40Node(int num_gpus = 4);

 private:
  int num_gpus_;
  GpuSpec gpu_;
  /** Row-major num_gpus x num_gpus link bandwidths, GB/s. */
  std::vector<double> link_gbps_;
  /** Distinct link bandwidths above the diagonal, ascending. */
  std::vector<double> link_classes_gbps_;
  double base_latency_us_;
  std::string name_;
  double nvlink_threshold_gbps_;
};

}  // namespace tetri::cluster

#endif  // TETRI_CLUSTER_TOPOLOGY_H
