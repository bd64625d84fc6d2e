#include "costmodel/placement_price.h"

#include "util/check.h"

namespace tetri::costmodel {

PlacementPriceTable::PlacementPriceTable(const StepCostModel* cost)
    : cost_(cost),
      num_gpus_(cost->topology().num_gpus()),
      num_classes_(cost->topology().NumBottleneckClasses())
{
  jitter_cv_.reserve(static_cast<std::size_t>(kNumResolutions) *
                     num_gpus_);
  for (Resolution res : kAllResolutions) {
    for (int degree = 1; degree <= num_gpus_; ++degree) {
      jitter_cv_.push_back(cost_->JitterCv(res, degree));
    }
  }
}

double
PlacementPriceTable::StepTimeUs(Resolution res, int batch, GpuMask mask)
{
  TETRI_CHECK(batch >= 1);
  const int degree = cluster::Popcount(mask);
  const int cls = cost_->topology().BottleneckClass(mask);
  const std::size_t per_batch =
      static_cast<std::size_t>(kNumResolutions) * num_gpus_ *
      num_classes_;
  if (batch > max_batch_) {
    max_batch_ = batch;
    step_us_.resize(per_batch * max_batch_, kUnpriced);
  }
  const std::size_t idx =
      per_batch * (batch - 1) +
      (static_cast<std::size_t>(ResolutionIndex(res)) * num_gpus_ +
       (degree - 1)) *
          num_classes_ +
      cls;
  double& cell = step_us_[idx];
  if (cell == kUnpriced) cell = cost_->StepTimeOnMaskUs(res, batch, mask);
  return cell;
}

double
PlacementPriceTable::JitterCv(Resolution res, int degree) const
{
  TETRI_CHECK(degree >= 1 && degree <= num_gpus_);
  return jitter_cv_[static_cast<std::size_t>(ResolutionIndex(res)) *
                        num_gpus_ +
                    (degree - 1)];
}

}  // namespace tetri::costmodel
