/**
 * @file
 * Serving-framework tests: request tracker, latent manager, execution
 * engine semantics (capacity, batching, reconfiguration stalls), and
 * the end-to-end ServingSystem loop with simple policies.
 */
#include <gtest/gtest.h>

#include <memory>

#include "audit/checkers.h"
#include "baselines/edf.h"
#include "baselines/fixed_sp.h"
#include "chaos/chaos.h"
#include "core/tetri_scheduler.h"
#include "serving/engine.h"
#include "serving/latent_manager.h"
#include "serving/request_tracker.h"
#include "serving/system.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace tetri::serving {
namespace {

using costmodel::ModelConfig;
using costmodel::Resolution;
using cluster::Topology;

workload::TraceRequest
MakeRequest(RequestId id, Resolution res, TimeUs arrival, TimeUs deadline,
            int steps = 50)
{
  workload::TraceRequest req;
  req.id = id;
  req.arrival_us = arrival;
  req.deadline_us = deadline;
  req.resolution = res;
  req.num_steps = steps;
  req.prompt = "test prompt";
  return req;
}

TEST(RequestTrackerTest, AdmitAndLookup)
{
  RequestTracker tracker;
  tracker.Admit(MakeRequest(7, Resolution::k512, 100, 2000));
  EXPECT_TRUE(tracker.Contains(7));
  EXPECT_FALSE(tracker.Contains(8));
  EXPECT_EQ(tracker.Get(7).meta.resolution, Resolution::k512);
  EXPECT_EQ(tracker.Get(7).RemainingSteps(), 50);
  EXPECT_EQ(tracker.NumActive(), 1);
}

TEST(RequestTrackerTest, SchedulableSortsByDeadline)
{
  RequestTracker tracker;
  tracker.Admit(MakeRequest(0, Resolution::k256, 0, 3000));
  tracker.Admit(MakeRequest(1, Resolution::k256, 0, 1000));
  tracker.Admit(MakeRequest(2, Resolution::k256, 500, 2000));
  auto list = tracker.Schedulable(100);
  ASSERT_EQ(list.size(), 2u);  // id 2 has not arrived yet
  EXPECT_EQ(list[0]->meta.id, 1);
  EXPECT_EQ(list[1]->meta.id, 0);
}

TEST(RequestTrackerTest, RunningRequestsNotSchedulable)
{
  RequestTracker tracker;
  tracker.Admit(MakeRequest(0, Resolution::k256, 0, 1000));
  tracker.Get(0).state = RequestState::kRunning;
  EXPECT_TRUE(tracker.Schedulable(10).empty());
}

TEST(RequestTrackerDeathTest, DuplicateIdPanics)
{
  RequestTracker tracker;
  tracker.Admit(MakeRequest(1, Resolution::k256, 0, 1000));
  EXPECT_DEATH(tracker.Admit(MakeRequest(1, Resolution::k256, 0, 1000)),
               "duplicate");
}

class LatentManagerTest : public ::testing::Test {
 protected:
  LatentManagerTest()
      : model_(ModelConfig::FluxDev()),
        topo_(Topology::H100Node()),
        cost_(&model_, &topo_),
        latents_(&cost_)
  {
  }
  /** A request record as the engine hands it to the manager. */
  static Request Record(RequestId id, Resolution res)
  {
    Request request;
    request.meta.id = id;
    request.meta.resolution = res;
    return request;
  }

  ModelConfig model_;
  Topology topo_;
  costmodel::StepCostModel cost_;
  LatentManager latents_;
};

TEST_F(LatentManagerTest, FirstPlacementIsFree)
{
  Request req = Record(1, Resolution::k1024);
  EXPECT_EQ(latents_.OnAssignment(req, 0b0011), 0);
  EXPECT_EQ(latents_.num_transfers(), 0);
}

TEST_F(LatentManagerTest, OverlappingMoveIsFree)
{
  Request req = Record(1, Resolution::k1024);
  latents_.OnAssignment(req, 0b0011);
  EXPECT_EQ(latents_.OnAssignment(req, 0b0110), 0);
}

TEST_F(LatentManagerTest, DisjointMoveChargesTransfer)
{
  Request req = Record(1, Resolution::k1024);
  latents_.OnAssignment(req, 0b0011);
  const TimeUs cost = latents_.OnAssignment(req, 0b1100);
  EXPECT_GT(cost, 0);
  EXPECT_EQ(latents_.num_transfers(), 1);
  EXPECT_EQ(latents_.total_transfer_us(), cost);
}

TEST_F(LatentManagerTest, ForgetResetsPlacement)
{
  Request req = Record(1, Resolution::k256);
  latents_.OnAssignment(req, 0b0001);
  latents_.Forget(req);
  EXPECT_EQ(latents_.OnAssignment(req, 0b0010), 0);
}

TEST_F(LatentManagerTest, LatentOutlivesClearedPlacement)
{
  // An abort clears last_mask but not the latent: a move off the old
  // GPUs still pays the copy.
  Request req = Record(1, Resolution::k1024);
  latents_.OnAssignment(req, 0b0011);
  req.last_mask = 0;
  EXPECT_GT(latents_.OnAssignment(req, 0b1100), 0);
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : model_(ModelConfig::FluxDev()),
        topo_(Topology::H100Node()),
        cost_(&model_, &topo_),
        latents_(&cost_),
        engine_(&sim_, &cost_, &tracker_, &latents_, 1)
  {
  }

  Request& Admit(RequestId id, Resolution res, int steps = 50)
  {
    return tracker_.Admit(
        MakeRequest(id, res, 0, UsFromSec(100), steps));
  }

  ModelConfig model_;
  Topology topo_;
  costmodel::StepCostModel cost_;
  sim::Simulator sim_;
  RequestTracker tracker_;
  LatentManager latents_;
  ExecutionEngine engine_;
};

TEST_F(EngineTest, ExecutesStepsAndReleasesGpus)
{
  Admit(0, Resolution::k1024);
  Assignment a;
  a.requests = {0};
  a.mask = 0b0011;
  a.max_steps = 5;
  engine_.Dispatch(a);
  EXPECT_EQ(engine_.busy_mask(), 0b0011u);
  EXPECT_EQ(tracker_.Get(0).state, RequestState::kRunning);
  sim_.RunAll();
  EXPECT_EQ(engine_.busy_mask(), 0u);
  EXPECT_EQ(tracker_.Get(0).steps_done, 5);
  EXPECT_EQ(tracker_.Get(0).state, RequestState::kQueued);
  // Execution took roughly 5 mean steps.
  const double expected = 5 * cost_.StepTimeUs(Resolution::k1024, 2);
  EXPECT_NEAR(static_cast<double>(sim_.Now()), expected,
              0.05 * expected);
}

TEST_F(EngineTest, CompletionIncludesVaeDecode)
{
  Admit(0, Resolution::k256, 2);
  Assignment a;
  a.requests = {0};
  a.mask = 0b0001;
  a.max_steps = 2;
  TimeUs done_at = -1;
  engine_.set_on_request_done(
      [&](Request& req) { done_at = req.completion_us; });
  engine_.Dispatch(a);
  sim_.RunAll();
  EXPECT_EQ(tracker_.Get(0).state, RequestState::kFinished);
  EXPECT_GT(done_at, sim_.Now());  // VAE decode appended
  EXPECT_NEAR(static_cast<double>(done_at - sim_.Now()),
              cost_.VaeDecodeUs(Resolution::k256), 1.0);
}

TEST_F(EngineTest, BatchedAssignmentAdvancesAllMembers)
{
  Admit(0, Resolution::k256);
  Admit(1, Resolution::k256);
  Assignment a;
  a.requests = {0, 1};
  a.mask = 0b0001;
  a.max_steps = 10;
  engine_.Dispatch(a);
  sim_.RunAll();
  EXPECT_EQ(tracker_.Get(0).steps_done, 10);
  EXPECT_EQ(tracker_.Get(1).steps_done, 10);
  // GPU time split across the batch.
  EXPECT_NEAR(tracker_.Get(0).gpu_time_us, tracker_.Get(1).gpu_time_us,
              1e-6);
}

TEST_F(EngineTest, MaxStepsClampedByRemaining)
{
  Admit(0, Resolution::k256, 3);
  Assignment a;
  a.requests = {0};
  a.mask = 0b0001;
  a.max_steps = 100;
  engine_.Dispatch(a);
  sim_.RunAll();
  EXPECT_EQ(tracker_.Get(0).steps_done, 3);
  EXPECT_EQ(tracker_.Get(0).state, RequestState::kFinished);
}

TEST_F(EngineTest, ReconfigurationStallChargedOnMaskChange)
{
  Admit(0, Resolution::k1024);
  Assignment first;
  first.requests = {0};
  first.mask = 0b0011;
  first.max_steps = 1;
  engine_.Dispatch(first);
  sim_.RunAll();
  EXPECT_EQ(engine_.num_reconfigs(), 0);

  Assignment moved;
  moved.requests = {0};
  moved.mask = 0b1100;
  moved.max_steps = 1;
  engine_.Dispatch(moved);
  sim_.RunAll();
  EXPECT_EQ(engine_.num_reconfigs(), 1);
  EXPECT_GT(engine_.reconfig_stall_us(), 0.0);
}

TEST_F(EngineTest, PlacementPreservationAvoidsStall)
{
  Admit(0, Resolution::k1024);
  for (int round = 0; round < 3; ++round) {
    Assignment a;
    a.requests = {0};
    a.mask = 0b0011;
    a.max_steps = 1;
    engine_.Dispatch(a);
    sim_.RunAll();
  }
  EXPECT_EQ(engine_.num_reconfigs(), 0);
}

TEST_F(EngineTest, BusyGpuAccounting)
{
  Admit(0, Resolution::k512);
  Assignment a;
  a.requests = {0};
  a.mask = 0b1111;
  a.max_steps = 4;
  engine_.Dispatch(a);
  sim_.RunAll();
  // 4 GPUs busy for the full execution.
  EXPECT_NEAR(engine_.busy_gpu_us(), 4.0 * sim_.Now(),
              0.01 * engine_.busy_gpu_us());
}

TEST_F(EngineTest, DispatchOnBusyGpuPanics)
{
  Admit(0, Resolution::k256);
  Admit(1, Resolution::k256);
  Assignment a;
  a.requests = {0};
  a.mask = 0b0001;
  a.max_steps = 1;
  engine_.Dispatch(a);
  Assignment b;
  b.requests = {1};
  b.mask = 0b0001;
  b.max_steps = 1;
  EXPECT_DEATH(engine_.Dispatch(b), "busy");
}

TEST(ServingSystemTest, FixedSpServesEverythingEventually)
{
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingSystem system(&topo, &model);
  workload::TraceSpec spec;
  spec.num_requests = 40;
  spec.slo_scale = 1.5;
  auto trace = workload::BuildTrace(spec);

  baselines::FixedSpScheduler sched(2);
  auto result = system.Run(&sched, trace);
  EXPECT_EQ(result.records.size(), 40u);
  int completed = 0;
  for (const auto& rec : result.records) {
    if (rec.Completed()) ++completed;
  }
  EXPECT_EQ(completed + result.num_dropped, 40);
  EXPECT_GT(result.busy_gpu_us, 0.0);
  EXPECT_GT(result.num_scheduler_calls, 0);
}

TEST(ServingSystemTest, PlanWallTimeIsPositiveAndMaxBoundedByTotal)
{
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingSystem system(&topo, &model);
  workload::TraceSpec spec;
  spec.num_requests = 20;
  auto trace = workload::BuildTrace(spec);
  baselines::FixedSpScheduler sched(2);
  auto result = system.Run(&sched, trace);
  ASSERT_GT(result.num_scheduler_calls, 0);
  EXPECT_GT(result.scheduler_wall_us_max, 0.0);
  EXPECT_LE(result.scheduler_wall_us_max, result.scheduler_wall_us_total);
}

TEST(ServingSystemTest, DeterministicAcrossRuns)
{
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingSystem system(&topo, &model);
  workload::TraceSpec spec;
  spec.num_requests = 30;
  auto trace = workload::BuildTrace(spec);
  baselines::FixedSpScheduler sched(4);
  auto a = system.Run(&sched, trace);
  auto b = system.Run(&sched, trace);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].completion_us, b.records[i].completion_us);
  }
}

TEST(ServingSystemTest, SparseIdsReplayLikeTheirDenseTwin)
{
  // The tracker indexes any id set the same way: ids i * 10^12 + 7
  // (order-preserving, so every (deadline, id) tie breaks alike)
  // replay to the records of ids i, field for field.
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingSystem system(&topo, &model);
  workload::TraceSpec spec;
  spec.num_requests = 400;
  spec.arrival_rate_per_min = 60.0;  // overloaded: drops happen too
  spec.mix = workload::ResolutionMix::Skewed();
  spec.seed = 9;
  const workload::Trace dense = workload::BuildTrace(spec);
  constexpr RequestId kStride = 1'000'000'000'000;
  workload::Trace sparse = dense;
  for (workload::TraceRequest& req : sparse.requests) {
    req.id = req.id * kStride + 7;
  }

  baselines::FixedSpScheduler fixed(2);
  baselines::EdfScheduler edf(&system.table());
  for (Scheduler* sched : {static_cast<Scheduler*>(&fixed),
                           static_cast<Scheduler*>(&edf)}) {
    const ServingResult a = system.Run(sched, dense);
    const ServingResult b = system.Run(sched, sparse);
    ASSERT_EQ(a.records.size(), b.records.size());
    EXPECT_GT(a.num_dropped, 0) << sched->Name();
    for (std::size_t i = 0; i < a.records.size(); ++i) {
      const metrics::RequestRecord& x = a.records[i];
      const metrics::RequestRecord& y = b.records[i];
      EXPECT_EQ(x.id, (y.id - 7) / kStride) << sched->Name() << " " << i;
      EXPECT_EQ(x.resolution, y.resolution);
      EXPECT_EQ(x.arrival_us, y.arrival_us);
      EXPECT_EQ(x.deadline_us, y.deadline_us);
      EXPECT_EQ(x.completion_us, y.completion_us)
          << sched->Name() << " " << i;
      EXPECT_EQ(x.gpu_time_us, y.gpu_time_us);
      EXPECT_EQ(x.degree_step_sum, y.degree_step_sum);
      EXPECT_EQ(x.steps_executed, y.steps_executed);
      EXPECT_EQ(x.outcome, y.outcome);
      EXPECT_EQ(x.drop_reason, y.drop_reason);
    }
    EXPECT_EQ(a.num_assignments, b.num_assignments);
    EXPECT_EQ(a.busy_gpu_us, b.busy_gpu_us);
  }
}

TEST(ServingSystemTest, TimedOutRequestsAreDropped)
{
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingConfig config;
  config.drop_timeout_factor = 1.5;  // aggressive for the test
  ServingSystem system(&topo, &model, config);
  workload::TraceSpec spec;
  spec.num_requests = 80;
  spec.arrival_rate_per_min = 60.0;  // overload
  spec.mix = workload::ResolutionMix::Homogeneous(Resolution::k2048);
  auto trace = workload::BuildTrace(spec);
  baselines::FixedSpScheduler sched(1);  // hopeless for 2048
  auto result = system.Run(&sched, trace);
  EXPECT_GT(result.num_dropped, 0);
}

/** Plans nothing; every scheduler invocation only exercises the
 * admission/drop path of the serving tick. */
class NullScheduler : public Scheduler {
 public:
  std::string Name() const override { return "null"; }
  SchedulingMode Mode() const override {
    return SchedulingMode::kEventDriven;
  }
  RoundPlan Plan(const ScheduleContext&) override { return {}; }
};

std::vector<trace::TraceEvent>
TimeoutDrops(const trace::RingBufferSink& sink)
{
  std::vector<trace::TraceEvent> drops;
  for (const trace::TraceEvent& ev : sink.events()) {
    if (ev.kind == trace::TraceEventKind::kDrop &&
        ev.reason == trace::TraceReason::kTimeout) {
      drops.push_back(ev);
    }
  }
  return drops;
}

TEST(ServingSystemTest, DropBoundaryIsRoundedNotTruncated)
{
  // factor * budget = 0.0105 * 1000 = 10.5us: the one-rounding-rule
  // (llround) puts the drop tick at arrival + 11; the old truncating
  // cast dropped one microsecond early at arrival + 10.
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingConfig config;
  config.drop_timeout_factor = 0.0105;
  trace::RingBufferSink sink;
  config.trace = &sink;
  ServingSystem system(&topo, &model, config);

  workload::Trace trace;
  trace.requests.push_back(
      MakeRequest(0, Resolution::k256, 0, 1000));  // drop_at = 11
  // Probe arrivals tick the event-driven scheduler at exactly t=10 and
  // t=11; their own budgets are too large to ever drop.
  trace.requests.push_back(
      MakeRequest(1, Resolution::k256, 10, 10'000'000));
  trace.requests.push_back(
      MakeRequest(2, Resolution::k256, 11, 10'000'000));

  NullScheduler sched;
  system.Run(&sched, trace);

  const auto drops = TimeoutDrops(sink);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].request, 0);
  // Not dropped by the t=10 tick; dropped exactly at the t=11 tick.
  EXPECT_EQ(drops[0].time_us, 11);
}

TEST(ServingSystemTest, NegativeBudgetDropsAtArrivalNotBefore)
{
  // A deadline before arrival makes factor * budget negative; the
  // clamp pins drop_at to the arrival itself, so the request is
  // abandoned at the first tick instead of computing a drop time in
  // the past (or, with a large factor, far in the future).
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingConfig config;
  config.drop_timeout_factor = 10.0;
  trace::RingBufferSink sink;
  config.trace = &sink;
  // A bare external auditor (no checkers installed): the standard
  // admission checker reports deadline < arrival, which under
  // -DTETRI_AUDIT would promote to a panic before the drop path runs.
  audit::Auditor bare;
  config.auditor = &bare;
  ServingSystem system(&topo, &model, config);

  workload::Trace trace;
  trace.requests.push_back(
      MakeRequest(0, Resolution::k256, 100, 50));  // budget = -50
  NullScheduler sched;
  auto result = system.Run(&sched, trace);

  EXPECT_EQ(result.num_dropped, 1);
  const auto drops = TimeoutDrops(sink);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].request, 0);
  EXPECT_EQ(drops[0].time_us, 100);  // at arrival, not before
}

TEST(ServingSystemDeathTest, TraceNotOrderedByArrivalPanics)
{
  // An unsorted trace used to anchor the first round tick at
  // front().arrival_us, silently skipping the ticks of earlier
  // arrivals; Run now rejects it up front.
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingSystem system(&topo, &model);
  workload::Trace trace;
  trace.requests.push_back(
      MakeRequest(0, Resolution::k256, 500, 10'000'000));
  trace.requests.push_back(
      MakeRequest(1, Resolution::k256, 100, 10'000'000));
  baselines::FixedSpScheduler sched(1);
  EXPECT_DEATH(system.Run(&sched, trace), "not ordered by arrival");
}

/** Records (time, queue size) of every Plan call; never dispatches. */
class PlanRecorder : public Scheduler {
 public:
  std::string Name() const override { return "PlanRecorder"; }
  SchedulingMode Mode() const override {
    return SchedulingMode::kEventDriven;
  }
  RoundPlan Plan(const ScheduleContext& ctx) override
  {
    calls.emplace_back(ctx.now, ctx.schedulable->size());
    return {};
  }
  std::vector<std::pair<TimeUs, std::size_t>> calls;
};

TEST(ServingSystemTest, EventDrivenPlansOncePerArrivalAfterSameInstantAdmits)
{
  // Three arrivals share t=100 and one comes at t=200. An event-driven
  // policy is planned once per arrival, and every plan at an instant
  // sees all of that instant's arrivals admitted.
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node();
  ServingSystem system(&topo, &model);
  workload::Trace trace;
  for (RequestId id = 0; id < 3; ++id) {
    trace.requests.push_back(
        MakeRequest(id, Resolution::k256, 100, 10'000'000));
  }
  trace.requests.push_back(
      MakeRequest(3, Resolution::k256, 200, 10'000'000));
  PlanRecorder recorder;
  const ServingResult result = system.Run(&recorder, trace);
  const std::vector<std::pair<TimeUs, std::size_t>> expected = {
      {100, 3}, {100, 3}, {100, 3}, {200, 4}};
  EXPECT_EQ(recorder.calls, expected);
  EXPECT_EQ(result.num_scheduler_calls, 4);
}

/** One run of the observer-purity matrix. */
struct ObservedRun {
  ServingResult result;
  /** The trace sink's ToString stream; empty when untraced. */
  std::string stream;
};

ObservedRun
RunObserved(bool traced, bool audited, bool tetri)
{
  const auto model = ModelConfig::FluxDev();
  const auto topo = Topology::H100Node();
  chaos::ChaosConfig chaos_config;
  chaos_config.seed = 4;
  chaos_config.gpu_failures = 2;
  chaos_config.stragglers = 1;
  chaos_config.cancel_fraction = 0.1;
  chaos_config.scripted.push_back({500000, 2, 1500000});
  chaos::ChaosController chaos(chaos_config);

  trace::RingBufferSink ring(std::size_t{1} << 20);
  audit::Auditor auditor;
  audit::InstallStandardCheckers(auditor);
  ServingConfig config;
  config.on_run_setup = chaos.Hook();
  if (traced) config.trace = &ring;
  if (audited) config.auditor = &auditor;
  ServingSystem system(&topo, &model, config);
  std::unique_ptr<Scheduler> scheduler;
  if (tetri) {
    scheduler = std::make_unique<core::TetriScheduler>(&system.table());
  } else {
    scheduler = std::make_unique<baselines::EdfScheduler>(&system.table());
  }
  workload::TraceSpec spec;
  spec.num_requests = 40;
  spec.slo_scale = 1.5;

  ObservedRun run;
  run.result = system.Run(scheduler.get(), workload::BuildTrace(spec));
  EXPECT_EQ(ring.dropped(), 0u);
  if (traced) run.stream = trace::ToString(ring.events());
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
  return run;
}

class ObserverPurityTest : public ::testing::TestWithParam<bool> {};

TEST_P(ObserverPurityTest, ObserversChangeNothing)
{
  // {no sink, trace only, auditor only, both} on one chaos trace. An
  // attached sink turns on the engine's step-boundary path, which
  // draws no extra randomness; the auditor rides the same stream.
  const bool tetri = GetParam();
  const ObservedRun none = RunObserved(false, false, tetri);
  const ObservedRun traced = RunObserved(true, false, tetri);
  const ObservedRun audited = RunObserved(false, true, tetri);
  const ObservedRun both = RunObserved(true, true, tetri);
  ASSERT_GT(none.result.recovery.gpu_failures, 0);
  for (const ObservedRun* run : {&traced, &audited, &both}) {
    ASSERT_EQ(run->result.records.size(), none.result.records.size());
    for (std::size_t i = 0; i < none.result.records.size(); ++i) {
      const metrics::RequestRecord& a = none.result.records[i];
      const metrics::RequestRecord& b = run->result.records[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.completion_us, b.completion_us) << a.id;
      EXPECT_EQ(a.outcome, b.outcome) << a.id;
      EXPECT_EQ(a.drop_reason, b.drop_reason) << a.id;
      EXPECT_EQ(a.steps_executed, b.steps_executed) << a.id;
      EXPECT_EQ(a.failure_retries, b.failure_retries) << a.id;
      EXPECT_EQ(a.gpu_time_us, b.gpu_time_us) << a.id;
      EXPECT_EQ(a.degree_step_sum, b.degree_step_sum) << a.id;
    }
    EXPECT_EQ(run->result.makespan_us, none.result.makespan_us);
    EXPECT_EQ(run->result.num_scheduler_calls,
              none.result.num_scheduler_calls);
  }
  // Attaching the auditor changes nothing the trace sink sees.
  EXPECT_FALSE(traced.stream.empty());
  EXPECT_EQ(both.stream, traced.stream);
}

INSTANTIATE_TEST_SUITE_P(TetriAndEdf, ObserverPurityTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "TetriServe" : "EdfRssp";
                         });

}  // namespace
}  // namespace tetri::serving
