/**
 * @file
 * Heap traffic of a warm TetriScheduler (DESIGN.md §8): once the
 * planning arena and memos have seen a context, Plan() allocates
 * exactly the emitted RoundPlan — one buffer for `assignments` plus one
 * `requests` buffer per assignment — and PlanInto() into the previous
 * round's plan allocates nothing, however the assignment count moves.
 * A whole ServingSystem::Run, which keeps one plan for the run, stays
 * within a few allocations per request. A counting global operator new
 * observes every allocation made while armed (the over-aligned forms
 * are not replaced; nothing measured here is over-aligned).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <vector>

#include "cluster/gpu_set.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/request_tracker.h"
#include "serving/system.h"
#include "workload/slo.h"
#include "workload/trace.h"

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

bool
SamePlan(const serving::RoundPlan& a, const serving::RoundPlan& b)
{
  if (a.assignments.size() != b.assignments.size()) return false;
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    const serving::Assignment& x = a.assignments[i];
    const serving::Assignment& y = b.assignments[i];
    if (x.requests != y.requests || x.mask != y.mask ||
        x.max_steps != y.max_steps) {
      return false;
    }
  }
  return true;
}

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

TEST_F(PlanAllocationTest, WarmPlanIntoReusedPlanAllocatesNothing)
{
  // One RoundPlan carried across calls whose assignment counts differ:
  // the previous round's request buffers are pooled and reissued, so
  // once every context has been seen a call allocates nothing.
  AdmitMixedQueue();
  TetriScheduler scheduler(&table_);
  struct Round {
    TimeUs now;
    GpuMask free;
  };
  const Round kRounds[] = {{0, 0xFF},
                           {400'000, 0b00000011},
                           {800'000, 0b11011110},
                           {1'600'000, 0b00010000},
                           {3'200'000, 0xFF}};
  serving::RoundPlan plan;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Round& r : kRounds) {
      scheduler.PlanInto(MakeContext(r.now, r.free, scheduler), &plan);
    }
  }
  std::vector<std::size_t> counts;
  for (const Round& r : kRounds) {
    const serving::ScheduleContext ctx = MakeContext(r.now, r.free, scheduler);
    g_allocations = 0;
    g_armed = true;
    scheduler.PlanInto(ctx, &plan);
    g_armed = false;
    EXPECT_EQ(g_allocations, 0)
        << "now " << r.now << " free " << cluster::MaskToString(r.free);
    EXPECT_TRUE(SamePlan(plan, scheduler.Plan(ctx)));
    counts.push_back(plan.assignments.size());
  }
  std::sort(counts.begin(), counts.end());
  EXPECT_GE(std::unique(counts.begin(), counts.end()) - counts.begin(), 3)
      << "the rounds should emit different assignment counts";
}

TEST_F(PlanAllocationTest, PlanIntoFreshPlanMatchesPlan)
{
  // Plan() is PlanInto() into a fresh plan; a reused plan that held a
  // different round must come out the same as a fresh one.
  AdmitMixedQueue();
  TetriScheduler reused(&table_);
  TetriScheduler fresh(&table_);
  serving::RoundPlan plan;
  for (TimeUs now : {0, 400'000, 800'000, 1'600'000}) {
    for (GpuMask free : {GpuMask{0xFF}, GpuMask{0b00111100}}) {
      reused.PlanInto(MakeContext(now, free, reused), &plan);
      EXPECT_TRUE(SamePlan(plan, fresh.Plan(MakeContext(now, free, fresh))))
          << "now " << now << " free " << cluster::MaskToString(free);
    }
  }
}

TEST(RunAllocationTest, ReplayAllocatesFewBlocksPerRequest)
{
  // A whole 2k-request FLUX replay on 8xH100: setup, arrivals, every
  // round, every dispatch and the records. What remains is per request
  // (the tracker's entry blocks, a few entries each, and the event
  // queue's arrival run) or per planner memo key; no round allocates,
  // and admitting a request copies no prompt and allocates no index or
  // latent node. That measures ~1.75 blocks per request (4.8 with a
  // prompt copy and hash-map nodes); a fresh plan per round costs ~14
  // more.
  const ModelConfig model = ModelConfig::FluxDev();
  const Topology topo = Topology::H100Node(8);
  serving::ServingSystem system(&topo, &model);
  workload::TraceSpec spec;
  spec.num_requests = 2000;
  spec.arrival_rate_per_min = 12.0;
  spec.mix = workload::ResolutionMix::Skewed();
  spec.seed = 4;
  const workload::Trace trace = workload::BuildTrace(spec);
  TetriScheduler scheduler(&system.table());
  g_allocations = 0;
  g_armed = true;
  const serving::ServingResult result = system.Run(&scheduler, trace);
  g_armed = false;
  ASSERT_EQ(result.records.size(), trace.requests.size());
  EXPECT_GT(result.num_assignments, static_cast<int>(trace.requests.size()));
  const double per_request = static_cast<double>(g_allocations) /
                             static_cast<double>(trace.requests.size());
  EXPECT_LE(per_request, 3.0) << g_allocations << " allocations";
}

}  // namespace
}  // namespace tetri::core
