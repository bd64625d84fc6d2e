/**
 * @file
 * Heap traffic of a warm TetriScheduler::Plan() (DESIGN.md §8): once
 * the planning arena and memos have seen a context, planning it again
 * allocates exactly the emitted RoundPlan — one buffer for
 * `assignments` plus one `requests` buffer per assignment — and
 * nothing else. A counting global operator new observes every
 * allocation made while a Plan() call runs (the over-aligned forms are
 * not replaced; nothing the planner allocates is over-aligned).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "cluster/gpu_set.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/request_tracker.h"
#include "workload/slo.h"

namespace {

// Allocations are counted only while armed, so gtest's own traffic
// outside the measured call does not register. The tests are
// single-threaded.
bool g_armed = false;
long g_allocations = 0;

void*
CountedAlloc(std::size_t size)
{
  if (g_armed) ++g_allocations;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept
{
  if (g_armed) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
  if (g_armed) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tetri::core {
namespace {

using costmodel::LatencyTable;
using costmodel::ModelConfig;
using costmodel::Resolution;
using cluster::Topology;

class PlanAllocationTest : public ::testing::Test {
 protected:
  PlanAllocationTest()
      : model_(ModelConfig::FluxDev()),
        topo_(Topology::H100Node()),
        cost_(&model_, &topo_),
        table_(LatencyTable::Profile(cost_, 4, 20, 5))
  {
  }

  serving::Request& Admit(RequestId id, Resolution res, double slo_scale,
                          int steps)
  {
    workload::TraceRequest meta;
    meta.id = id;
    meta.arrival_us = 0;
    meta.deadline_us = static_cast<TimeUs>(
        slo_scale * workload::SloPolicy::BaseTargetSec(res) * 1e6);
    meta.resolution = res;
    meta.num_steps = steps;
    return tracker_.Admit(meta);
  }

  /** A deep mixed queue: every resolution, tight to generous SLOs
   * (some definitely late), partial progress, degraded retries and
   * previous placements. */
  void AdmitMixedQueue()
  {
    const Resolution kRes[] = {Resolution::k256, Resolution::k512,
                               Resolution::k1024, Resolution::k2048};
    const double kSlo[] = {0.3, 0.8, 1.0, 1.5, 3.0};
    for (RequestId id = 0; id < 48; ++id) {
      serving::Request& req =
          Admit(id, kRes[id % 4], kSlo[id % 5], 20 + static_cast<int>(id));
      req.steps_done = static_cast<int>(id % 7);
      if (id % 11 == 3) req.degree_cap = 2;
      if (id % 6 == 1) {
        req.last_degree = 2;
        req.last_mask = GpuMask{0x3} << (2 * (id % 4));
      }
    }
  }

  serving::ScheduleContext MakeContext(TimeUs now, GpuMask free,
                                       const TetriScheduler& scheduler)
  {
    tracker_.Schedulable(now, &schedulable_);
    serving::ScheduleContext ctx;
    ctx.now = now;
    ctx.round_end = now + scheduler.RoundDurationUs();
    ctx.free_gpus = free;
    ctx.schedulable = &schedulable_;
    ctx.topology = &topo_;
    ctx.table = &table_;
    return ctx;
  }

  /** Plan @p ctx once to warm the scheduler, then count the heap
   * allocations of planning it again. */
  static long WarmPlanAllocations(TetriScheduler* scheduler,
                                  const serving::ScheduleContext& ctx,
                                  serving::RoundPlan* plan)
  {
    const serving::RoundPlan first = scheduler->Plan(ctx);
    g_allocations = 0;
    g_armed = true;
    *plan = scheduler->Plan(ctx);
    g_armed = false;
    EXPECT_EQ(plan->assignments.size(), first.assignments.size());
    return g_allocations;
  }

  static long RoundPlanBuffers(const serving::RoundPlan& plan)
  {
    if (plan.assignments.empty()) return 0;
    return 1 + static_cast<long>(plan.assignments.size());
  }

  ModelConfig model_;
  Topology topo_;
  costmodel::StepCostModel cost_;
  LatencyTable table_;
  serving::RequestTracker tracker_;
  std::vector<serving::Request*> schedulable_;
};

TEST_F(PlanAllocationTest, CounterSeesVectorGrowth)
{
  g_allocations = 0;
  g_armed = true;
  std::vector<int> v;
  v.reserve(3);
  g_armed = false;
  EXPECT_EQ(g_allocations, 1);
}

TEST_F(PlanAllocationTest, WarmPlanAllocatesOnlyItsRoundPlan)
{
  AdmitMixedQueue();
  TetriScheduler scheduler(&table_);
  const serving::ScheduleContext ctx =
      MakeContext(1'000'000, 0xFF, scheduler);
  ASSERT_EQ(schedulable_.size(), 48u);
  serving::RoundPlan plan;
  const long allocations = WarmPlanAllocations(&scheduler, ctx, &plan);
  ASSERT_FALSE(plan.assignments.empty());
  EXPECT_EQ(allocations, RoundPlanBuffers(plan));
}

TEST_F(PlanAllocationTest, WarmPlanOnFragmentedFreeSetAllocatesOnlyItsRoundPlan)
{
  // Free GPUs {0,1,3,4,6}: no buddy-aligned quad is free, so a
  // degree-4 placement gathers single free bits (the allocator's
  // fallback path).
  const GpuMask kFragmented = 0b01011011;
  for (RequestId id = 0; id < 6; ++id) {
    Admit(id, Resolution::k2048, 1.5, 50);
  }
  TetriScheduler scheduler(&table_);
  const serving::ScheduleContext ctx =
      MakeContext(0, kFragmented, scheduler);
  serving::RoundPlan plan;
  const long allocations = WarmPlanAllocations(&scheduler, ctx, &plan);
  bool gathered = false;
  for (const serving::Assignment& a : plan.assignments) {
    const int k = cluster::Popcount(a.mask);
    const GpuMask aligned = cluster::FullMask(k)
                            << (cluster::LowestGpu(a.mask) / k * k);
    if (k > 1 && a.mask != aligned) gathered = true;
  }
  ASSERT_TRUE(gathered) << "no assignment took the fallback path";
  EXPECT_EQ(allocations, RoundPlanBuffers(plan));
}

TEST_F(PlanAllocationTest, WarmPlanAcrossRoundsReusesTheArena)
{
  // Consecutive rounds of one queue, each planned twice: the second
  // plan of every round allocates only the RoundPlan, even as time
  // moves slack across staircase breakpoints.
  AdmitMixedQueue();
  TetriScheduler scheduler(&table_);
  for (TimeUs now : {0, 400'000, 800'000, 1'600'000, 3'200'000}) {
    for (GpuMask free : {GpuMask{0xFF}, GpuMask{0b11011110}}) {
      const serving::ScheduleContext ctx = MakeContext(now, free, scheduler);
      serving::RoundPlan plan;
      const long allocations = WarmPlanAllocations(&scheduler, ctx, &plan);
      EXPECT_EQ(allocations, RoundPlanBuffers(plan))
          << "now " << now << " free " << cluster::MaskToString(free);
    }
  }
}

}  // namespace
}  // namespace tetri::core
