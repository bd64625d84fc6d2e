/**
 * @file
 * Fault-tolerance tests for the concurrent serving runtime: the seeded
 * chaos schedule's replay contract, the drain invariant
 * (completed + dropped + failed == admitted) under crash/straggler/
 * abort/stall schedules, watchdog recovery (worker respawn, hung-task
 * requeue, planner-stall detection), the request-conservation checker
 * fed through the runtime's Tracer, and weighted-fair admission (DRR
 * ratios, flood isolation).
 * Every suite name contains "Runtime" so `ctest -R Runtime` — and the
 * CI runtime-stress TSan matrix — selects these.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "costmodel/step_cost.h"
#include "runtime/fair_queue.h"
#include "runtime/runtime.h"
#include "runtime/runtime_chaos.h"
#include "trace/trace.h"

namespace tetri::runtime {
namespace {

using costmodel::Resolution;

struct ChaosFixture {
  ChaosFixture()
      : model(costmodel::ModelConfig::FluxDev()),
        topo(cluster::Topology::H100Node()),
        cost(&model, &topo),
        table(costmodel::LatencyTable::Profile(cost, 4, 20, 5))
  {
  }
  costmodel::ModelConfig model;
  cluster::Topology topo;
  costmodel::StepCostModel cost;
  costmodel::LatencyTable table;
};

ChaosFixture& F()
{
  static ChaosFixture fixture;
  return fixture;
}

constexpr TimeUs kAmpleBudgetUs = 60'000'000;

// ---------------------------------------------------------------------
// RuntimeChaos: the deterministic-replay contract
// ---------------------------------------------------------------------

TEST(RuntimeChaosScheduleTest, SameSeedIsByteIdentical)
{
  RuntimeChaosConfig config;
  config.seed = 0xDEADBEEF;
  const RuntimeChaos a(config);
  const RuntimeChaos b(config);
  EXPECT_FALSE(a.ScheduleString().empty());
  EXPECT_EQ(a.ScheduleString(), b.ScheduleString());
  EXPECT_EQ(a.schedule().events().size(),
            static_cast<std::size_t>(
                config.worker_crashes + config.stragglers +
                config.aborts + config.planner_stalls));
}

TEST(RuntimeChaosScheduleTest, DifferentSeedsDiverge)
{
  RuntimeChaosConfig a;
  a.seed = 1;
  RuntimeChaosConfig b;
  b.seed = 2;
  EXPECT_NE(RuntimeChaos(a).ScheduleString(),
            RuntimeChaos(b).ScheduleString());
}

TEST(RuntimeChaosScheduleTest, SeedZeroInjectsNothing)
{
  const RuntimeChaos chaos(RuntimeChaosConfig{});
  EXPECT_FALSE(chaos.enabled());
  EXPECT_EQ(chaos.schedule().events().size(), 0u);
  for (std::uint64_t seq = 0; seq < 128; ++seq) {
    EXPECT_FALSE(chaos.ShouldCrash(seq));
    EXPECT_FALSE(chaos.ShouldAbort(seq));
    EXPECT_EQ(chaos.StragglerFactor(seq), 1.0);
    EXPECT_EQ(chaos.PlannerStallUs(seq), 0.0);
  }
}

TEST(RuntimeChaosScheduleTest, CrashAndAbortSlotsAreDisjoint)
{
  // A crashed worker never reports the abort, so the sampler keeps the
  // two injection sets disjoint; otherwise a crash would shadow an
  // abort and the configured abort count would silently shrink.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    RuntimeChaosConfig config;
    config.seed = seed;
    config.worker_crashes = 8;
    config.aborts = 8;
    config.horizon_tasks = 24;
    const RuntimeChaos chaos(config);
    for (std::uint64_t seq = 0; seq < 24; ++seq) {
      EXPECT_FALSE(chaos.ShouldCrash(seq) && chaos.ShouldAbort(seq))
          << "seed " << seed << " seq " << seq;
    }
  }
}

TEST(RuntimeChaosScheduleTest, RuntimeExposesItsSchedule)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.chaos.seed = 7;
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  EXPECT_EQ(runtime.chaos().ScheduleString(),
            RuntimeChaos(options.chaos).ScheduleString());
  runtime.Drain();
}

// ---------------------------------------------------------------------
// Drain invariant under chaos (the TSan matrix workhorse)
// ---------------------------------------------------------------------

/** One full chaos run; returns the final stats after Drain. */
RuntimeStats
RunChaosWorkload(std::uint64_t seed, int requests,
                 trace::TraceSink* trace = nullptr)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.num_workers = 3;
  options.chaos.seed = seed;
  options.chaos.horizon_tasks = 24;  // land injections on real tasks
  options.chaos.horizon_rounds = 12;
  options.chaos.planner_stall_us = 1500.0;
  options.watchdog_interval_us = 500.0;
  options.backoff_base_us = 100.0;
  options.trace = trace;
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  for (int i = 0; i < requests; ++i) {
    EXPECT_EQ(runtime.Submit(i % 3, Resolution::k256, 3, kAmpleBudgetUs),
              AdmitOutcome::kAdmitted);
  }
  runtime.Drain();
  const RuntimeStats stats = runtime.stats();
  // On failure, dump the seed's schedule — the replay artifact.
  if (stats.completed + stats.dropped + stats.failed !=
      stats.admission.admitted) {
    std::fprintf(stderr, "chaos schedule (seed %llu):\n%s\n",
                 static_cast<unsigned long long>(seed),
                 runtime.chaos().ScheduleString().c_str());
  }
  return stats;
}

/**
 * One CI-matrix job per seed (TETRI_CHAOS_SEED pins the sweep to that
 * seed, mirroring recovery_property_test); on failure the seed's
 * injection schedule is dumped to runtime_chaos_replay_seed<n>.txt as
 * the replay artifact.
 */
class RuntimeChaosDrainSweep : public ::testing::TestWithParam<int> {};

TEST_P(RuntimeChaosDrainSweep, ConservationHoldsUnderSeed)
{
  const int seed = GetParam();
  const char* only = std::getenv("TETRI_CHAOS_SEED");
  if (only != nullptr && *only != '\0' && std::atoi(only) != seed) {
    GTEST_SKIP() << "TETRI_CHAOS_SEED pins seed " << only;
  }
  const RuntimeStats stats =
      RunChaosWorkload(static_cast<std::uint64_t>(seed), 48);
  EXPECT_EQ(stats.completed + stats.dropped + stats.failed,
            stats.admission.admitted);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_GT(stats.completed, 0u);
  if (::testing::Test::HasFailure()) {
    RuntimeChaosConfig config;
    config.seed = static_cast<std::uint64_t>(seed);
    config.horizon_tasks = 24;
    config.horizon_rounds = 12;
    config.planner_stall_us = 1500.0;
    const std::string path =
        "runtime_chaos_replay_seed" + std::to_string(seed) + ".txt";
    std::ofstream out(path);
    out << "# reproduce with: TETRI_CHAOS_SEED=" << seed
        << " ./runtime_chaos_test\n"
        << RuntimeChaos(config).ScheduleString();
    std::cout << "runtime chaos schedule written to " << path << "\n";
  }
}

INSTANTIATE_TEST_SUITE_P(ChaosSeeds, RuntimeChaosDrainSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(RuntimeChaosDrainTest, ConservationCheckerStaysClean)
{
  // A runtime is audited through its Tracer, which serialises the
  // planner, worker and watchdog emissions. The planner emits the
  // request lifecycle, so the lifecycle checker applies too.
  audit::Auditor auditor;
  auto& checker = static_cast<audit::RequestConservationChecker&>(
      auditor.AddChecker(
          std::make_unique<audit::RequestConservationChecker>()));
  auditor.AddChecker(std::make_unique<audit::RequestLifecycleChecker>());
  trace::Tracer tracer;
  tracer.AddSink(&auditor);
  const RuntimeStats stats = RunChaosWorkload(3, 48, &tracer);
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
  EXPECT_EQ(checker.admitted(), stats.admission.admitted);
  EXPECT_EQ(checker.completed(), stats.completed);
  // The checker buckets by terminal state: retry-budget drops land in
  // kDropped there but in `failed` here.
  EXPECT_EQ(checker.dropped(), stats.dropped + stats.failed);
  EXPECT_EQ(checker.open_count(), 0u);
}

// ---------------------------------------------------------------------
// Watchdog recovery paths
// ---------------------------------------------------------------------

TEST(RuntimeWatchdogTest, CrashedWorkersAreReplacedAndWorkRequeued)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.num_workers = 2;
  options.chaos.seed = 11;
  options.chaos.worker_crashes = 2;
  options.chaos.stragglers = 0;
  options.chaos.aborts = 0;
  options.chaos.planner_stalls = 0;
  options.chaos.horizon_tasks = 8;  // crash within the first 8 tasks
  options.watchdog_interval_us = 300.0;
  options.backoff_base_us = 100.0;
  std::atomic<int> completed{0};
  options.on_complete = [&](const Completion& c) {
    if (c.outcome == metrics::Outcome::kCompleted) completed.fetch_add(1);
  };
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  constexpr int kRequests = 40;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(runtime.Submit(Resolution::k256, 3, kAmpleBudgetUs),
              AdmitOutcome::kAdmitted);
  }
  runtime.Drain();
  const RuntimeStats stats = runtime.stats();
  EXPECT_GE(stats.recovery.worker_crashes, 1u);
  EXPECT_EQ(stats.recovery.workers_replaced,
            stats.recovery.worker_crashes);
  EXPECT_GE(stats.recovery.watchdog_fires, 1u);
  // The crashed tasks' members were requeued and finished (ample
  // budget, retries available): nothing is lost to a dead worker.
  EXPECT_EQ(stats.completed + stats.dropped + stats.failed,
            stats.admission.admitted);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_GE(stats.requeues, 1u);
  EXPECT_EQ(completed.load(), static_cast<int>(stats.completed));
}

TEST(RuntimeWatchdogTest, HungTaskIsRequeuedAndLateReportIsStale)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.num_workers = 2;
  // Make one task a straggler dilated far past its hang deadline: the
  // watchdog must requeue it, and the straggler's eventual report must
  // be discarded as stale (ownership-by-erase), not double-credited.
  const double step_us = F().table.StepTimeUs(Resolution::k256, 1, 1);
  options.execution_time_scale = 2000.0 / (step_us * 3.0);
  options.chaos.seed = 5;
  options.chaos.worker_crashes = 0;
  options.chaos.stragglers = 1;
  options.chaos.straggler_factor = 12.0;
  options.chaos.aborts = 0;
  options.chaos.planner_stalls = 0;
  options.chaos.horizon_tasks = 4;
  options.worker_hang_timeout_us = 3000.0;
  options.watchdog_interval_us = 500.0;
  options.backoff_base_us = 100.0;
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  constexpr int kRequests = 12;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(runtime.Submit(Resolution::k256, 3, kAmpleBudgetUs),
              AdmitOutcome::kAdmitted);
  }
  runtime.Drain();
  const RuntimeStats stats = runtime.stats();
  EXPECT_GE(stats.recovery.hung_tasks, 1u);
  EXPECT_GE(stats.recovery.stale_completions, 1u);
  EXPECT_EQ(stats.completed + stats.dropped + stats.failed,
            stats.admission.admitted);
  EXPECT_EQ(stats.active, 0u);
}

TEST(RuntimeWatchdogTest, PlannerStallIsDetected)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.chaos.seed = 9;
  options.chaos.worker_crashes = 0;
  options.chaos.stragglers = 0;
  options.chaos.aborts = 0;
  options.chaos.planner_stalls = 2;
  options.chaos.planner_stall_us = 8000.0;
  options.chaos.horizon_rounds = 4;  // stall within the first 4 rounds
  options.watchdog_interval_us = 500.0;
  options.planner_stall_timeout_us = 2000.0;
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(runtime.Submit(Resolution::k256, 2, kAmpleBudgetUs),
              AdmitOutcome::kAdmitted);
  }
  runtime.Drain();
  const RuntimeStats stats = runtime.stats();
  EXPECT_GE(stats.recovery.planner_stalls, 1u);
  // Stall detection observes, it does not interfere: the run drains
  // exactly as if the watchdog had stayed silent.
  EXPECT_EQ(stats.completed, 10u);
}

TEST(RuntimeWatchdogTest, RetryBudgetExhaustionCountsAsFailed)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  // Every assignment aborts: retries burn down and every request must
  // terminate as `failed` (kRetryBudget), never hang the drain.
  options.chaos_should_abort = [](const serving::Assignment&) {
    return true;
  };
  options.retry.max_retries = 2;
  options.backoff_base_us = 50.0;
  std::atomic<int> retry_drops{0};
  options.on_complete = [&](const Completion& c) {
    if (c.drop_reason == metrics::DropReason::kRetryBudget) {
      retry_drops.fetch_add(1);
    }
  };
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  constexpr int kRequests = 6;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(runtime.Submit(Resolution::k256, 2, kAmpleBudgetUs),
              AdmitOutcome::kAdmitted);
  }
  runtime.Drain();
  const RuntimeStats stats = runtime.stats();
  EXPECT_EQ(stats.failed, kRequests);
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(retry_drops.load(), kRequests);
  EXPECT_GE(stats.recovery.backoff_retries, 1u);
  EXPECT_EQ(stats.completed + stats.dropped + stats.failed,
            stats.admission.admitted);
}

// ---------------------------------------------------------------------
// Weighted-fair admission
// ---------------------------------------------------------------------

TEST(RuntimeFairQueueTest, DrainFollowsWeightRatio)
{
  FairAdmissionQueue queue(100, OverflowPolicy::kShed, {{0, 3}, {1, 1}});
  for (int i = 0; i < 60; ++i) {
    workload::TraceRequest req;
    req.id = i;
    req.tenant = 0;
    EXPECT_EQ(queue.Push(std::move(req)), AdmitOutcome::kAdmitted);
    workload::TraceRequest other;
    other.id = 100 + i;
    other.tenant = 1;
    EXPECT_EQ(queue.Push(std::move(other)), AdmitOutcome::kAdmitted);
  }
  // While both tenants stay backlogged, every drained window splits
  // 3:1 — exactly, because DRR credits whole weights per cycle.
  std::vector<workload::TraceRequest> out;
  EXPECT_EQ(queue.DrainFair(16, &out), 16u);
  int t0 = 0;
  for (const workload::TraceRequest& req : out) t0 += req.tenant == 0;
  EXPECT_EQ(t0, 12);
  EXPECT_EQ(static_cast<int>(out.size()) - t0, 4);
  EXPECT_EQ(queue.tenant_counters(0).drained, 12u);
  EXPECT_EQ(queue.tenant_counters(1).drained, 4u);
}

TEST(RuntimeFairQueueTest, IdleTenantForfeitsDeficit)
{
  // Classic DRR: an idle tenant must not bank credit while away and
  // then burst past its weight share when it returns.
  FairAdmissionQueue queue(100, OverflowPolicy::kShed, {{0, 1}, {1, 1}});
  auto push = [&queue](TenantId tenant, RequestId id) {
    workload::TraceRequest req;
    req.id = id;
    req.tenant = tenant;
    EXPECT_EQ(queue.Push(std::move(req)), AdmitOutcome::kAdmitted);
  };
  for (int i = 0; i < 8; ++i) push(0, i);
  std::vector<workload::TraceRequest> out;
  EXPECT_EQ(queue.DrainFair(8, &out), 8u);  // tenant 1 idle throughout
  for (int i = 0; i < 8; ++i) {
    push(0, 100 + i);
    push(1, 200 + i);
  }
  out.clear();
  EXPECT_EQ(queue.DrainFair(8, &out), 8u);
  int t1 = 0;
  for (const workload::TraceRequest& req : out) t1 += req.tenant == 1;
  EXPECT_EQ(t1, 4);  // equal weights -> equal split, no banked burst
}

TEST(RuntimeFairQueueTest, FloodingTenantOnlyShedsItself)
{
  // The flood-isolation property: tenant 0 offers 20x its capacity;
  // tenant 1's admissions and shed count are exactly what they would
  // be with no flood at all.
  constexpr std::size_t kCapacity = 8;
  constexpr int kFlood = 20 * static_cast<int>(kCapacity);
  constexpr int kVictim = static_cast<int>(kCapacity);
  FairAdmissionQueue queue(kCapacity, OverflowPolicy::kShed,
                           {{0, 1}, {1, 1}});
  for (int i = 0; i < kFlood; ++i) {
    workload::TraceRequest req;
    req.id = i;
    req.tenant = 0;
    queue.Push(std::move(req));
  }
  for (int i = 0; i < kVictim; ++i) {
    workload::TraceRequest req;
    req.id = 1000 + i;
    req.tenant = 1;
    EXPECT_EQ(queue.Push(std::move(req)), AdmitOutcome::kAdmitted);
  }
  const TenantCounters flood = queue.tenant_counters(0);
  const TenantCounters victim = queue.tenant_counters(1);
  EXPECT_EQ(flood.admitted, kCapacity);
  EXPECT_EQ(flood.shed, static_cast<std::uint64_t>(kFlood) - kCapacity);
  EXPECT_EQ(victim.admitted, static_cast<std::uint64_t>(kVictim));
  EXPECT_EQ(victim.shed, 0u);  // unchanged vs the no-flood baseline
  // And the drain still splits by weight, not by backlog.
  std::vector<workload::TraceRequest> out;
  EXPECT_EQ(queue.DrainFair(8, &out), 8u);
  int t1 = 0;
  for (const workload::TraceRequest& req : out) t1 += req.tenant == 1;
  EXPECT_EQ(t1, 4);
}

TEST(RuntimeFairnessTest, FloodedRuntimeStillServesEveryTenant)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.queue_capacity = 16;  // per tenant
  options.overflow = OverflowPolicy::kShed;
  options.tenants = {{0, 1}, {1, 1}, {2, 1}};
  options.admit_batch_limit = 4;  // keep the DRR window visible
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  // Tenant 0 floods at 20x; tenants 1 and 2 trickle.
  for (int i = 0; i < 200; ++i) {
    runtime.TrySubmit(0, Resolution::k256, 2, kAmpleBudgetUs);
    if (i % 20 == 0) {
      EXPECT_EQ(runtime.TrySubmit(1, Resolution::k256, 2, kAmpleBudgetUs),
                AdmitOutcome::kAdmitted);
      EXPECT_EQ(runtime.TrySubmit(2, Resolution::k256, 2, kAmpleBudgetUs),
                AdmitOutcome::kAdmitted);
    }
  }
  runtime.Drain();
  const std::vector<TenantRuntimeStats> tenants = runtime.tenant_stats();
  ASSERT_EQ(tenants.size(), 3u);
  for (const TenantRuntimeStats& t : tenants) {
    // Per-tenant sub-queues: the flood sheds only tenant 0; the
    // trickling tenants lose nothing and everything admitted drains
    // to a terminal state.
    if (t.id != 0) {
      EXPECT_EQ(t.admission.shed, 0u) << "tenant " << t.id;
      EXPECT_EQ(t.admission.admitted, 10u) << "tenant " << t.id;
    }
    EXPECT_EQ(t.completed + t.dropped + t.failed, t.admission.admitted)
        << "tenant " << t.id;
    EXPECT_EQ(t.admission.drained, t.admission.admitted)
        << "tenant " << t.id;
    // Queue-delay histogram recorded every first dispatch.
    EXPECT_EQ(t.queue_delay_us.count(), t.completed);
  }
}

// ---------------------------------------------------------------------
// Overload control
// ---------------------------------------------------------------------

TEST(RuntimeOverloadTest, DegradationCapsDegreeUnderSustainedDelay)
{
  core::TetriScheduler scheduler(&F().table);
  RuntimeOptions options;
  options.num_workers = 1;  // serialize: queue delay builds up
  const double step_us = F().table.StepTimeUs(Resolution::k256, 1, 1);
  options.execution_time_scale = 500.0 / (step_us * 2.0);
  options.degrade_queue_delay_us = 1.0;  // any measured delay degrades
  ServingRuntime runtime(&scheduler, &F().topo, &F().table, options);
  constexpr int kRequests = 24;
  for (int i = 0; i < kRequests; ++i) {
    EXPECT_EQ(runtime.Submit(Resolution::k256, 2, kAmpleBudgetUs),
              AdmitOutcome::kAdmitted);
  }
  runtime.Drain();
  const RuntimeStats stats = runtime.stats();
  EXPECT_GE(stats.degraded_rounds, 1u);
  EXPECT_EQ(stats.completed, kRequests);  // degraded, not shed
}

}  // namespace
}  // namespace tetri::runtime
