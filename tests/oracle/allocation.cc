#include "oracle/allocation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace tetri::oracle {

core::AllocationPlan
RoundAwarePlan(const costmodel::LatencyTable& table,
               costmodel::Resolution res, int remaining_steps,
               double slack_us, double round_us)
{
  std::vector<core::RoundDegreeInfo> info;
  core::BuildRoundDegreeInfo(table, res, round_us, &info);
  core::AllocationPlan plan;
  core::RoundAwarePlanInto(info, remaining_steps, slack_us, round_us,
                           &plan);
  return plan;
}

double
RoundAwareLowerBoundUs(const costmodel::LatencyTable& table,
                       costmodel::Resolution res, int remaining_steps,
                       double round_us)
{
  if (remaining_steps <= 0) return 0.0;
  std::vector<core::RoundDegreeInfo> info;
  core::BuildRoundDegreeInfo(table, res, round_us, &info);
  return core::RoundAwareLowerBoundUs(info, remaining_steps, round_us);
}

core::AllocationPlan
ExhaustivePlan(const costmodel::LatencyTable& table,
               costmodel::Resolution res, int remaining_steps,
               double slack_us, int buckets)
{
  TETRI_CHECK(remaining_steps > 0 && buckets > 0);
  const std::vector<int>& degrees = table.degrees();
  const int num_degrees = static_cast<int>(degrees.size());

  const double t_min = table.MinStepTimeUs(res);
  if (remaining_steps * t_min > slack_us) {
    core::AllocationPlan plan;
    const int k = table.FastestDegree(res);
    plan.segments.push_back(core::AllocationSegment{k, remaining_steps});
    plan.exec_time_us = remaining_steps * table.StepTimeUs(res, k);
    plan.gpu_time_us = k * plan.exec_time_us;
    plan.feasible = false;
    return plan;
  }

  // Conservative (rounded-up) per-step time in buckets.
  const double unit = slack_us / buckets;
  std::vector<int> cost_buckets(num_degrees);
  std::vector<double> step_time(num_degrees), gpu_time(num_degrees);
  for (int d = 0; d < num_degrees; ++d) {
    step_time[d] = table.StepTimeUs(res, degrees[d]);
    gpu_time[d] = table.GpuTimeUs(res, degrees[d]);
    cost_buckets[d] =
        static_cast<int>(std::ceil(step_time[d] / unit - 1e-12));
  }

  constexpr double kInf = std::numeric_limits<double>::max();
  // dp[j][t] = min GPU time to schedule j steps within t buckets.
  std::vector<std::vector<double>> dp(
      remaining_steps + 1, std::vector<double>(buckets + 1, kInf));
  for (int t = 0; t <= buckets; ++t) dp[0][t] = 0.0;
  for (int j = 1; j <= remaining_steps; ++j) {
    for (int t = 0; t <= buckets; ++t) {
      for (int d = 0; d < num_degrees; ++d) {
        if (cost_buckets[d] > t) continue;
        const double prev = dp[j - 1][t - cost_buckets[d]];
        if (prev == kInf) continue;
        dp[j][t] = std::min(dp[j][t], prev + gpu_time[d]);
      }
    }
  }

  TETRI_CHECK(dp[remaining_steps][buckets] < kInf);
  // Reconstruct degree counts by replaying the transitions.
  std::vector<int> counts(num_degrees, 0);
  int t = buckets;
  for (int j = remaining_steps; j >= 1; --j) {
    bool found = false;
    for (int d = 0; d < num_degrees && !found; ++d) {
      if (cost_buckets[d] > t) continue;
      const double prev = dp[j - 1][t - cost_buckets[d]];
      if (prev == kInf) continue;
      if (std::abs(prev + gpu_time[d] - dp[j][t]) <= 1e-6) {
        ++counts[d];
        t -= cost_buckets[d];
        found = true;
      }
    }
    TETRI_CHECK(found);
  }

  std::vector<std::pair<int, int>> mix;
  for (int d = 0; d < num_degrees; ++d) {
    if (counts[d] > 0) mix.emplace_back(degrees[d], counts[d]);
  }
  core::AllocationPlan plan;
  for (auto [degree, steps] : mix) {
    plan.segments.push_back(core::AllocationSegment{degree, steps});
    const double ts = table.StepTimeUs(res, degree);
    plan.exec_time_us += steps * ts;
    plan.gpu_time_us += steps * degree * ts;
  }
  std::sort(plan.segments.begin(), plan.segments.end(),
            [](const core::AllocationSegment& a,
               const core::AllocationSegment& b) {
              return a.degree < b.degree;
            });
  plan.feasible = plan.exec_time_us <= slack_us + 1e-6;
  return plan;
}

}  // namespace tetri::oracle
