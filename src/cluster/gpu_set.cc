#include "cluster/gpu_set.h"

#include <sstream>

namespace tetri::cluster {

std::vector<int>
GpuIndices(GpuMask mask)
{
  std::vector<int> out;
  for (int i = 0; i < 32; ++i) {
    if (mask & (GpuMask{1} << i)) out.push_back(i);
  }
  return out;
}

int
LowestGpu(GpuMask mask)
{
  TETRI_CHECK(mask != 0);
  return std::countr_zero(mask);
}

std::string
MaskToString(GpuMask mask)
{
  std::ostringstream oss;
  oss << '{';
  bool first = true;
  for (int i : GpuIndices(mask)) {
    if (!first) oss << ',';
    oss << i;
    first = false;
  }
  oss << '}';
  return oss.str();
}

std::vector<GpuMask>
AlignedBlocks(int n, int k)
{
  TETRI_CHECK(IsPow2(k) && k <= n);
  std::vector<GpuMask> out;
  const GpuMask block = FullMask(k);
  for (int start = 0; start + k <= n; start += k) {
    out.push_back(block << start);
  }
  return out;
}

std::vector<GpuMask>
AllSubsetsOfSize(GpuMask free, int k)
{
  std::vector<GpuMask> out;
  const std::vector<int> bits = GpuIndices(free);
  const int m = static_cast<int>(bits.size());
  if (k > m) return out;
  // Enumerate k-combinations of the set bits.
  std::vector<int> idx(k);
  for (int i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    GpuMask mask = 0;
    for (int i : idx) mask |= GpuMask{1} << bits[i];
    out.push_back(mask);
    int pos = k - 1;
    while (pos >= 0 && idx[pos] == m - k + pos) --pos;
    if (pos < 0) break;
    ++idx[pos];
    for (int i = pos + 1; i < k; ++i) idx[i] = idx[i - 1] + 1;
  }
  return out;
}

}  // namespace tetri::cluster
