#include "costmodel/latency_table.h"

#include <bit>
#include <limits>
#include <sstream>

#include "util/check.h"
#include "util/stats.h"

namespace tetri::costmodel {

LatencyTable
LatencyTable::Profile(const StepCostModel& cost, int max_batch,
                      int samples, std::uint64_t seed)
{
  TETRI_CHECK(max_batch >= 1 && samples >= 2);
  LatencyTable table;
  table.max_batch_ = max_batch;
  table.degrees_ = cost.topology().FeasibleDegrees();
  const int num_degrees = static_cast<int>(table.degrees_.size());

  Rng rng(seed);
  table.cells_.resize(kNumResolutions);
  for (Resolution res : kAllResolutions) {
    table.vae_us_[ResolutionIndex(res)] = cost.VaeDecodeUs(res);
  }
  for (Resolution res : kAllResolutions) {
    auto& by_degree = table.cells_[ResolutionIndex(res)];
    by_degree.resize(num_degrees);
    for (int di = 0; di < num_degrees; ++di) {
      const int degree = table.degrees_[di];
      auto& by_batch = by_degree[di];
      by_batch.resize(max_batch);
      for (int bs = 1; bs <= max_batch; ++bs) {
        RunningStat stat;
        for (int s = 0; s < samples; ++s) {
          stat.Add(cost.SampleStepTimeUs(res, degree, bs, rng));
        }
        by_batch[bs - 1] = LatencyCell{stat.mean(), stat.Cv()};
      }
    }
  }
  return table;
}

const LatencyCell&
LatencyTable::Cell(Resolution res, int degree, int batch) const
{
  TETRI_CHECK_MSG(batch >= 1 && batch <= max_batch_, "batch " << batch);
  TETRI_CHECK_MSG(cluster::IsPow2(degree) && degree <= max_degree(),
                  "degree " << degree << " is not a profiled power of two");
  const int di = std::countr_zero(static_cast<unsigned>(degree));
  return cells_[ResolutionIndex(res)][di][batch - 1];
}

double
LatencyTable::StepTimeUs(Resolution res, int degree, int batch) const
{
  return Cell(res, degree, batch).mean_us;
}

double
LatencyTable::StepCv(Resolution res, int degree, int batch) const
{
  return Cell(res, degree, batch).cv;
}

double
LatencyTable::GpuTimeUs(Resolution res, int degree, int batch) const
{
  return degree * StepTimeUs(res, degree, batch);
}

double
LatencyTable::MinStepTimeUs(Resolution res) const
{
  double best = std::numeric_limits<double>::max();
  for (int k : degrees_) best = std::min(best, StepTimeUs(res, k));
  return best;
}

int
LatencyTable::FastestDegree(Resolution res) const
{
  int best_k = 1;
  double best = std::numeric_limits<double>::max();
  for (int k : degrees_) {
    const double t = StepTimeUs(res, k);
    if (t < best) {
      best = t;
      best_k = k;
    }
  }
  return best_k;
}

int
LatencyTable::MostEfficientDegree(Resolution res) const
{
  int best_k = 1;
  double best = std::numeric_limits<double>::max();
  for (int k : degrees_) {
    const double g = GpuTimeUs(res, k);
    if (g < best) {
      best = g;
      best_k = k;
    }
  }
  return best_k;
}

double
LatencyTable::VaeDecodeUs(Resolution res) const
{
  return vae_us_[ResolutionIndex(res)];
}

std::string
LatencyTable::ToCsv() const
{
  std::ostringstream oss;
  oss << "resolution,degree,step_ms,cv\n";
  for (Resolution res : kAllResolutions) {
    for (int k : degrees_) {
      oss << ResolutionName(res) << ',' << k << ','
          << StepTimeUs(res, k) / 1e3 << ',' << StepCv(res, k) << '\n';
    }
  }
  return oss.str();
}

}  // namespace tetri::costmodel
