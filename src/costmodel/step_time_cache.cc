#include "costmodel/step_time_cache.h"

#include "util/check.h"

namespace tetri::costmodel {

void
StepTimeCache::Bind(const LatencyTable* table)
{
  TETRI_CHECK(table != nullptr);
  table_ = table;
  max_degree_ = table->max_degree();
  max_batch_ = table->max_batch();
  slots_.assign(static_cast<std::size_t>(kNumResolutions) *
                    max_degree_ * max_batch_,
                kUnset);
}

double
StepTimeCache::StepTimeUs(Resolution res, int degree, int batch)
{
  TETRI_CHECK(table_ != nullptr);
  TETRI_CHECK(degree >= 1 && degree <= max_degree_);
  const std::size_t idx =
      (static_cast<std::size_t>(ResolutionIndex(res)) * max_degree_ +
       (degree - 1)) *
          max_batch_ +
      (batch - 1);
  TETRI_CHECK(idx < slots_.size());
  double& slot = slots_[idx];
  if (slot == kUnset) slot = table_->StepTimeUs(res, degree, batch);
  return slot;
}

}  // namespace tetri::costmodel
