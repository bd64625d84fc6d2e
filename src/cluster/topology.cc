#include "cluster/topology.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace tetri::cluster {

namespace {

constexpr double kNvLink4Gbps = 900.0;        // H100 NVLink 4.0
constexpr double kNvLink3Gbps = 112.0;        // A40 NVLink bridge
constexpr double kPcie4Gbps = 25.0;           // PCIe 4.0 x16 effective

std::vector<std::vector<double>>
UniformMatrix(int n, double gbps)
{
  std::vector<std::vector<double>> m(n, std::vector<double>(n, gbps));
  for (int i = 0; i < n; ++i) m[i][i] = Topology::kSingleGpuBandwidth;
  return m;
}

}  // namespace

Topology::Topology(int num_gpus, GpuSpec gpu,
                   std::vector<std::vector<double>> link_gbps,
                   double base_latency_us, std::string name)
    : num_gpus_(num_gpus),
      gpu_(std::move(gpu)),
      base_latency_us_(base_latency_us),
      name_(std::move(name)),
      nvlink_threshold_gbps_(50.0)
{
  TETRI_CHECK(IsPow2(num_gpus_) && num_gpus_ <= 32);
  TETRI_CHECK(link_gbps.size() == static_cast<std::size_t>(num_gpus_));
  link_gbps_.reserve(static_cast<std::size_t>(num_gpus_) * num_gpus_);
  for (const auto& row : link_gbps) {
    TETRI_CHECK(row.size() == static_cast<std::size_t>(num_gpus_));
    link_gbps_.insert(link_gbps_.end(), row.begin(), row.end());
  }
  // A collective reads only the links above the diagonal (a < b), so
  // those are the bandwidths a bottleneck can take.
  for (int a = 0; a < num_gpus_; ++a) {
    for (int b = a + 1; b < num_gpus_; ++b) {
      link_classes_gbps_.push_back(link_gbps_[a * num_gpus_ + b]);
    }
  }
  std::sort(link_classes_gbps_.begin(), link_classes_gbps_.end());
  link_classes_gbps_.erase(
      std::unique(link_classes_gbps_.begin(), link_classes_gbps_.end()),
      link_classes_gbps_.end());
}

double
Topology::LinkBandwidth(int a, int b) const
{
  TETRI_CHECK(a >= 0 && a < num_gpus_ && b >= 0 && b < num_gpus_);
  return link_gbps_[a * num_gpus_ + b];
}

double
Topology::CollectiveBandwidth(GpuMask mask) const
{
  TETRI_CHECK(mask != 0);
  TETRI_CHECK((mask & ~all_gpus()) == 0);
  if (std::has_single_bit(mask)) return kSingleGpuBandwidth;
  double min_bw = std::numeric_limits<double>::max();
  for (GpuMask rest = mask; rest != 0;) {
    const int a = std::countr_zero(rest);
    rest &= rest - 1;
    const double* row = &link_gbps_[a * num_gpus_];
    for (GpuMask others = rest; others != 0; others &= others - 1) {
      min_bw = std::min(min_bw, row[std::countr_zero(others)]);
    }
  }
  return min_bw;
}

int
Topology::BottleneckClass(GpuMask mask) const
{
  const double bw = CollectiveBandwidth(mask);
  if (std::has_single_bit(mask)) return NumBottleneckClasses() - 1;
  const auto it = std::lower_bound(link_classes_gbps_.begin(),
                                   link_classes_gbps_.end(), bw);
  return static_cast<int>(it - link_classes_gbps_.begin());
}

double
Topology::CollectiveLatencyUs(GpuMask mask) const
{
  const int k = Popcount(mask);
  if (k <= 1) return 0.0;
  // Latency grows with log2(group size); crossing PCIe costs extra
  // because the collective traverses the host root complex.
  const double hops = std::log2(static_cast<double>(k));
  const double pcie_penalty = IsNvLinkOnly(mask) ? 1.0 : 3.0;
  return base_latency_us_ * (1.0 + hops) * pcie_penalty;
}

bool
Topology::IsNvLinkOnly(GpuMask mask) const
{
  return CollectiveBandwidth(mask) >= nvlink_threshold_gbps_;
}

std::vector<int>
Topology::FeasibleDegrees() const
{
  std::vector<int> out;
  for (int k = 1; k <= num_gpus_; k *= 2) out.push_back(k);
  return out;
}

Topology
Topology::H100Node(int num_gpus)
{
  GpuSpec spec;
  spec.name = "H100-80GB";
  // Effective throughput for fused BF16 DiT kernels at full occupancy;
  // the cost model applies an occupancy factor on top (see
  // costmodel/step_cost.h), so this is the asymptotic ceiling. The
  // value is calibrated so that solo service times sit at 80-95% of
  // the paper's SLO budgets at the RSSP degrees (tight regime, §6.1).
  spec.peak_tflops = 1550.0;
  spec.hbm_gbps = 3350.0;
  spec.memory_gib = 80.0;
  return Topology(num_gpus, spec, UniformMatrix(num_gpus, kNvLink4Gbps),
                  /*base_latency_us=*/25.0, "8xH100-NVLink4");
}

Topology
Topology::A40Node(int num_gpus)
{
  TETRI_CHECK(num_gpus % 2 == 0);
  GpuSpec spec;
  spec.name = "A40-48GB";
  spec.peak_tflops = 240.0;  // BF16 ceiling; calibrated so 1024px needs SP=2
  spec.hbm_gbps = 696.0;
  spec.memory_gib = 48.0;

  std::vector<std::vector<double>> m =
      UniformMatrix(num_gpus, kPcie4Gbps);
  for (int pair = 0; pair + 1 < num_gpus; pair += 2) {
    m[pair][pair + 1] = kNvLink3Gbps;
    m[pair + 1][pair] = kNvLink3Gbps;
  }
  return Topology(num_gpus, spec, std::move(m),
                  /*base_latency_us=*/35.0, "4xA40-PairNVLink");
}

}  // namespace tetri::cluster
