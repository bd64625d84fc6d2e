/**
 * @file
 * Deadline-aware allocation tests (§4.2.1): feasibility semantics,
 * GPU-hour minimality versus the exhaustive DP (property sweep over
 * resolutions, step counts, slack levels), and round-aware costing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "audit/checkers.h"
#include "cluster/gpu_set.h"
#include "core/allocation.h"
#include "costmodel/model_config.h"
#include "oracle/allocation.h"

namespace tetri::core {
namespace {

using costmodel::kAllResolutions;
using costmodel::LatencyTable;
using costmodel::ModelConfig;
using costmodel::Resolution;
using cluster::Topology;
using oracle::ExhaustivePlan;
using oracle::RoundAwareLowerBoundUs;
using oracle::RoundAwarePlan;

class AllocationTest : public ::testing::Test {
 protected:
  AllocationTest()
      : model_(ModelConfig::FluxDev()),
        topo_(Topology::H100Node()),
        cost_(&model_, &topo_),
        table_(LatencyTable::Profile(cost_, 4, 20, 5))
  {
  }
  ModelConfig model_;
  Topology topo_;
  costmodel::StepCostModel cost_;
  LatencyTable table_;
};

TEST_F(AllocationTest, GenerousSlackPicksCheapestDegree)
{
  // With unlimited time, every step runs at the min-GPU-hour degree.
  for (Resolution res : kAllResolutions) {
    auto plan = FindPlan(table_, res, 50, 1e12);
    ASSERT_TRUE(plan.feasible);
    ASSERT_EQ(plan.segments.size(), 1u);
    EXPECT_EQ(plan.segments[0].degree,
              table_.MostEfficientDegree(res));
    EXPECT_EQ(plan.segments[0].steps, 50);
  }
}

TEST_F(AllocationTest, ImpossibleSlackFallsBackToFastest)
{
  auto plan = FindPlan(table_, Resolution::k2048, 50, 1000.0);
  EXPECT_FALSE(plan.feasible);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].degree,
            table_.FastestDegree(Resolution::k2048));
}

TEST_F(AllocationTest, TightSlackMixesTwoDegrees)
{
  // Slack between all-SP4 and all-SP8 totals forces a mix.
  const double t4 = table_.StepTimeUs(Resolution::k2048, 4);
  const double t8 = table_.StepTimeUs(Resolution::k2048, 8);
  const double slack = 50 * (0.4 * t4 + 0.6 * t8);
  auto plan = FindPlan(table_, Resolution::k2048, 50, slack);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.TotalSteps(), 50);
  EXPECT_LE(plan.exec_time_us, slack);
  EXPECT_GE(plan.segments.size(), 1u);
  EXPECT_LE(plan.segments.size(), 2u);
}

TEST_F(AllocationTest, PlanAccountingConsistent)
{
  auto plan = FindPlan(table_, Resolution::k1024, 30, 2.0e6);
  double exec = 0.0, gpu = 0.0;
  for (const auto& seg : plan.segments) {
    exec += seg.steps * table_.StepTimeUs(Resolution::k1024, seg.degree);
    gpu += seg.steps * table_.GpuTimeUs(Resolution::k1024, seg.degree);
  }
  EXPECT_NEAR(plan.exec_time_us, exec, 1e-6);
  EXPECT_NEAR(plan.gpu_time_us, gpu, 1e-6);
}

/**
 * Property: the fast two-degree planner matches the exhaustive DP's
 * GPU time within the DP's discretization error, across resolutions,
 * step counts, and slack tightness levels.
 */
class PlanOptimalitySweep
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {
 protected:
  PlanOptimalitySweep()
      : model_(ModelConfig::FluxDev()),
        topo_(Topology::H100Node()),
        cost_(&model_, &topo_),
        table_(LatencyTable::Profile(cost_, 4, 20, 5))
  {
  }
  ModelConfig model_;
  Topology topo_;
  costmodel::StepCostModel cost_;
  LatencyTable table_;
};

TEST_P(PlanOptimalitySweep, MatchesExhaustiveDp)
{
  auto [res_idx, steps, tightness] = GetParam();
  const Resolution res = costmodel::ResolutionFromIndex(res_idx);
  // Slack interpolates between the fastest and cheapest full plans.
  const double t_fast = steps * table_.MinStepTimeUs(res);
  const double t_cheap =
      steps * table_.StepTimeUs(res, table_.MostEfficientDegree(res));
  const double slack = t_fast + tightness * (t_cheap - t_fast);

  auto fast_plan = FindPlan(table_, res, steps, slack);
  auto exact_plan = ExhaustivePlan(table_, res, steps, slack, 4000);
  ASSERT_TRUE(fast_plan.feasible);
  ASSERT_TRUE(exact_plan.feasible);
  EXPECT_LE(fast_plan.exec_time_us, slack + 1e-6);
  // The two-degree planner must not be worse than the DP by more
  // than the DP's bucket rounding slop.
  EXPECT_LE(fast_plan.gpu_time_us, exact_plan.gpu_time_us * 1.02 + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PlanOptimalitySweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(5, 20, 50),
                       ::testing::Values(0.0, 0.3, 0.7, 1.0)));

class RoundAwareTest : public AllocationTest {
 protected:
  static constexpr double kTau = 300000.0;  // 300 ms rounds
};

TEST_F(RoundAwareTest, LowerBoundDominatesContinuousBound)
{
  // Round quantization can only slow things down.
  for (Resolution res : kAllResolutions) {
    for (int rem : {1, 3, 17, 50}) {
      const double lb = RoundAwareLowerBoundUs(table_, res, rem, kTau);
      EXPECT_GE(lb, rem * table_.MinStepTimeUs(res) - 1e-6);
    }
  }
  EXPECT_EQ(RoundAwareLowerBoundUs(table_, Resolution::k256, 0, kTau),
            0.0);
}

TEST_F(RoundAwareTest, SingleLeftoverStepCostsPartialRoundOnly)
{
  // One remaining step finishes mid-round: LB equals one step time.
  const double lb =
      RoundAwareLowerBoundUs(table_, Resolution::k2048, 1, kTau);
  EXPECT_NEAR(lb, table_.MinStepTimeUs(Resolution::k2048), 1.0);
}

TEST_F(RoundAwareTest, PlanFitsSlack)
{
  for (Resolution res : kAllResolutions) {
    for (double frac : {0.05, 0.3, 1.0}) {
      const double slack = 50 * table_.MinStepTimeUs(res) / frac;
      auto plan = RoundAwarePlan(table_, res, 50, slack, kTau);
      if (plan.feasible) {
        EXPECT_LE(plan.exec_time_us, slack + 1e-6);
        EXPECT_EQ(plan.TotalSteps(), 50);
      }
    }
  }
}

TEST_F(RoundAwareTest, InfeasibleWhenSlackBelowLowerBound)
{
  const double lb =
      RoundAwareLowerBoundUs(table_, Resolution::k2048, 50, kTau);
  auto plan = RoundAwarePlan(table_, Resolution::k2048, 50, lb * 0.9,
                             kTau);
  EXPECT_FALSE(plan.feasible);
  auto plan_ok = RoundAwarePlan(table_, Resolution::k2048, 50, lb * 1.01,
                                kTau);
  EXPECT_TRUE(plan_ok.feasible);
}

TEST_F(RoundAwareTest, AvoidsOrphanStepSegments)
{
  // Regression for the near-miss bug: when the remaining steps fit a
  // single round at the fast degree, the plan must not spread them
  // over two degrees (costing an extra round).
  const double t8 = table_.StepTimeUs(Resolution::k2048, 8);
  const int fits = static_cast<int>(kTau / t8);  // steps in one round
  ASSERT_GE(fits, 2);
  auto plan = RoundAwarePlan(table_, Resolution::k2048, fits,
                             (fits + 0.5) * t8, kTau);
  ASSERT_TRUE(plan.feasible);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_LE(plan.exec_time_us, fits * t8 + 1e-6);
}

TEST_F(RoundAwareTest, GenerousSlackStillCheapest)
{
  for (Resolution res : kAllResolutions) {
    auto plan = RoundAwarePlan(table_, res, 50, 1e12, kTau);
    ASSERT_TRUE(plan.feasible);
    // GPU time equal to the unconstrained minimum.
    const int cheapest = table_.MostEfficientDegree(res);
    EXPECT_NEAR(plan.gpu_time_us,
                50 * table_.GpuTimeUs(res, cheapest), 1.0);
  }
}

/** Breakpoints a staircase has resolved: a breakpoint's plan has no
 * segments until its first lookup (plans[0] is the fallback). */
int
NumResolved(const PlanStaircase& staircase)
{
  return static_cast<int>(std::count_if(
      staircase.plans.begin() + 1, staircase.plans.end(),
      [](const AllocationPlan& p) { return !p.segments.empty(); }));
}

TEST_F(AllocationTest, StaircaseMatchesDirectScanEverywhere)
{
  // The staircase must reproduce RoundAwarePlanInto bit for bit at
  // every slack, in particular straddling each feasibility breakpoint
  // where the winner changes, and below the smallest breakpoint where
  // the fallback kicks in. Breakpoints resolve lazily, so the grid runs
  // on a fresh staircase in forward, reverse and shuffled order: the
  // answer must not depend on which breakpoints were resolved before,
  // and one lookup may resolve at most one breakpoint.
  enum class Order { kForward, kReverse, kShuffled };
  for (Resolution res : kAllResolutions) {
    std::vector<RoundDegreeInfo> info;
    const double tau = 4.0 * table_.StepTimeUs(Resolution::k1024, 4);
    BuildRoundDegreeInfo(table_, res, tau, &info);
    for (int steps : {1, 2, 7, 23, 50}) {
      for (Order order : {Order::kForward, Order::kReverse,
                          Order::kShuffled}) {
        PlanStaircase staircase;
        BuildPlanStaircase(info, steps, tau, &staircase);
        ASSERT_TRUE(staircase.built);
        ASSERT_FALSE(staircase.thresholds.empty());
        EXPECT_EQ(NumResolved(staircase), 0);

        std::vector<double> slacks = {0.0,
                                      staircase.thresholds.front() / 2,
                                      staircase.thresholds.back() * 2};
        for (double t : staircase.thresholds) {
          slacks.push_back(std::nextafter(t, 0.0));  // just infeasible
          slacks.push_back(t);                       // boundary inclusive
          slacks.push_back(std::nextafter(t, 1e300));  // just feasible
        }
        if (order == Order::kReverse) {
          std::reverse(slacks.begin(), slacks.end());
        } else if (order == Order::kShuffled) {
          std::mt19937 rng(static_cast<unsigned>(steps));
          std::shuffle(slacks.begin(), slacks.end(), rng);
        }
        for (double slack : slacks) {
          AllocationPlan direct;
          RoundAwarePlanInto(info, steps, slack, tau, &direct);
          const int resolved_before = NumResolved(staircase);
          const AllocationPlan& cached =
              ResolveRoundPlan(&staircase, info, slack);
          EXPECT_LE(NumResolved(staircase), resolved_before + 1);
          ASSERT_EQ(direct.feasible, cached.feasible)
              << "res " << costmodel::ResolutionIndex(res) << " steps "
              << steps << " slack " << slack;
          EXPECT_EQ(direct.exec_time_us, cached.exec_time_us);
          EXPECT_EQ(direct.gpu_time_us, cached.gpu_time_us);
          ASSERT_EQ(direct.segments.size(), cached.segments.size());
          for (std::size_t i = 0; i < direct.segments.size(); ++i) {
            EXPECT_EQ(direct.segments[i].degree,
                      cached.segments[i].degree);
            EXPECT_EQ(direct.segments[i].steps, cached.segments[i].steps);
          }
        }
        // The grid lands in every breakpoint.
        EXPECT_EQ(NumResolved(staircase),
                  static_cast<int>(staircase.thresholds.size()));
      }
    }
  }
}

TEST_F(AllocationTest, ResolvedPlansSurviveStaircaseMoves)
{
  // The scheduler keeps staircases in a vector that grows while Stage-1
  // entries hold references to plans already resolved in it.
  const double tau = 4.0 * table_.StepTimeUs(Resolution::k1024, 4);
  std::vector<RoundDegreeInfo> info;
  BuildRoundDegreeInfo(table_, Resolution::k1024, tau, &info);
  std::vector<PlanStaircase> staircases(2);
  BuildPlanStaircase(info, 1, tau, &staircases[1]);
  const AllocationPlan& late = ResolveRoundPlan(&staircases[1], info, 0.0);
  const AllocationPlan& fits = ResolveRoundPlan(&staircases[1], info, 1e12);
  const AllocationPlan late_copy = late;
  const AllocationPlan fits_copy = fits;
  staircases.resize(64);  // reallocates: every staircase moves
  EXPECT_EQ(&late, &ResolveRoundPlan(&staircases[1], info, 0.0));
  EXPECT_EQ(&fits, &ResolveRoundPlan(&staircases[1], info, 1e12));
  EXPECT_FALSE(late.feasible);
  EXPECT_TRUE(fits.feasible);
  EXPECT_EQ(late.gpu_time_us, late_copy.gpu_time_us);
  EXPECT_EQ(fits.exec_time_us, fits_copy.exec_time_us);
  ASSERT_EQ(fits.segments.size(), fits_copy.segments.size());
  EXPECT_EQ(fits.segments[0].degree, fits_copy.segments[0].degree);
}

TEST_F(AllocationTest, AuditModeSweepIsViolationFree)
{
  // Audit-mode run of the allocation sweep: the profiled table passes
  // the cost-model sanity checker, and every planner output maps to a
  // conserving, power-of-two execution when fed through the GPU
  // conservation checker segment by segment.
  audit::Auditor auditor;
  audit::InstallStandardCheckers(auditor);
  audit::InstallCostModelChecker(auditor, &table_);
  ASSERT_TRUE(auditor.clean()) << auditor.Summary();

  const double tau =
      5.0 * table_.StepTimeUs(
                Resolution::k1024,
                table_.MostEfficientDegree(Resolution::k1024));
  for (Resolution res : kAllResolutions) {
    for (int steps : {1, 7, 50}) {
      const double exec =
          steps * table_.StepTimeUs(res, table_.FastestDegree(res));
      for (double scale : {0.5, 1.0, 4.0}) {
        for (const auto& plan :
             {FindPlan(table_, res, steps, scale * exec),
              RoundAwarePlan(table_, res, steps, scale * exec, tau)}) {
          for (const AllocationSegment& seg : plan.segments) {
            // Segments execute sequentially: audit each as its own
            // single-assignment round on an idle 8-GPU node.
            trace::TraceEvent round;
            round.kind = trace::TraceEventKind::kRoundPlan;
            round.mask = cluster::FullMask(8);
            round.steps = 1;
            round.value = static_cast<double>(cluster::FullMask(8));
            auditor.OnEvent(round);
            trace::TraceEvent assignment;
            assignment.kind = trace::TraceEventKind::kRoundAssignment;
            assignment.mask = cluster::FullMask(seg.degree);
            assignment.batch = 1;
            assignment.steps = seg.steps;
            auditor.OnEvent(assignment);
          }
        }
      }
    }
  }
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
}

}  // namespace
}  // namespace tetri::core
