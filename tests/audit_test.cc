/**
 * @file
 * Audit-layer tests. Three parts:
 *
 *  - positive: full serving runs (TetriServe round scheduler and the
 *    event-driven EDF baseline) with every checker installed report
 *    zero violations on seed behaviour;
 *  - replay: a recorded chaos run's event stream, fed back into a
 *    fresh auditor, gives the live verdict, and a copy with one
 *    planted fault fires exactly the checker for that fault;
 *  - negative: each checker fires on a synthetic event stream with an
 *    injected violation, proving the detectors actually detect.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "audit/checkers.h"
#include "baselines/edf.h"
#include "chaos/chaos.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/request.h"
#include "serving/system.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "workload/trace.h"

namespace tetri::audit {
namespace {

using costmodel::ModelConfig;
using costmodel::Resolution;
using cluster::Topology;
using serving::RequestState;

workload::TraceRequest
MakeRequest(RequestId id, Resolution res, TimeUs arrival, TimeUs deadline,
            int steps = 20)
{
  workload::TraceRequest req;
  req.id = id;
  req.arrival_us = arrival;
  req.deadline_us = deadline;
  req.resolution = res;
  req.num_steps = steps;
  req.prompt = "audit";
  return req;
}

workload::Trace
SmallMixedTrace()
{
  workload::Trace trace;
  const Resolution kinds[] = {Resolution::k256, Resolution::k512,
                              Resolution::k1024, Resolution::k2048};
  for (int i = 0; i < 12; ++i) {
    const Resolution res = kinds[i % 4];
    const TimeUs arrival = static_cast<TimeUs>(i) * 400000;
    const TimeUs deadline = arrival + UsFromSec(5.0 + 10.0 * (i % 4));
    trace.requests.push_back(MakeRequest(i, res, arrival, deadline));
  }
  return trace;
}

class AuditIntegrationTest : public ::testing::Test {
 protected:
  AuditIntegrationTest()
      : model_(ModelConfig::FluxDev()), topo_(Topology::H100Node())
  {
  }
  ModelConfig model_;
  Topology topo_;
};

TEST_F(AuditIntegrationTest, TetriSchedulerRunIsViolationFree)
{
  Auditor auditor;
  serving::ServingConfig config;
  config.auditor = &auditor;
  serving::ServingSystem system(&topo_, &model_, config);
  InstallStandardCheckers(auditor);
  InstallCostModelChecker(auditor, &system.table());

  core::TetriScheduler scheduler(&system.table());
  const auto result = system.Run(&scheduler, SmallMixedTrace());

  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
  EXPECT_EQ(result.audit_violations, 0u);
  EXPECT_TRUE(result.audit_summary.empty());
  EXPECT_GT(result.num_assignments, 0);
}

TEST_F(AuditIntegrationTest, EventDrivenBaselineRunIsViolationFree)
{
  Auditor auditor;
  InstallStandardCheckers(auditor);
  serving::ServingConfig config;
  config.auditor = &auditor;
  serving::ServingSystem system(&topo_, &model_, config);
  baselines::EdfScheduler scheduler(&system.table());
  const auto result = system.Run(&scheduler, SmallMixedTrace());
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
  EXPECT_EQ(result.audit_violations, 0u);
}

TEST_F(AuditIntegrationTest, AuditedSimulatorStaysClean)
{
  sim::Simulator sim;
  Auditor auditor;
  InstallStandardCheckers(auditor);
  sim.set_trace(&auditor);
  for (TimeUs t = 100; t >= 10; t -= 10) {
    sim.ScheduleAt(t, [&sim]() {
      sim.ScheduleAfter(5, []() {});
    });
  }
  sim.RunAll();
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
}

// --- replay: the checkers read a recorded stream like a live one ---

/** The stream of a TetriServe run on an H100 node with one scripted
 * failure and two seeded ones, recorded through a Tracer. */
class AuditReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite()
  {
    const ModelConfig model = ModelConfig::FluxDev();
    const Topology topo = Topology::H100Node();
    chaos::ChaosConfig chaos_config;
    chaos_config.seed = 11;
    chaos_config.gpu_failures = 2;
    chaos_config.mean_time_to_recover_sec = 1.0;
    chaos_config.scripted.push_back({600000, 1, 1500000});
    chaos::ChaosController chaos(chaos_config);

    trace::Tracer tracer;
    trace::RingBufferSink ring(std::size_t{1} << 20);
    tracer.AddSink(&ring);
    Auditor live;
    InstallStandardCheckers(live);
    serving::ServingConfig config;
    config.trace = &tracer;
    config.auditor = &live;
    config.on_run_setup = chaos.Hook();
    serving::ServingSystem system(&topo, &model, config);
    core::TetriScheduler scheduler(&system.table());
    workload::TraceSpec spec;
    spec.num_requests = 40;
    spec.slo_scale = 1.5;
    const auto result = system.Run(&scheduler, workload::BuildTrace(spec));

    ASSERT_EQ(ring.dropped(), 0u) << "the ring must hold the whole run";
    ASSERT_GE(result.recovery.gpu_failures, 2);
    live_clean_ = live.clean();
    live_summary_ = live.Summary();
    stream_ = new std::vector<TraceEvent>(ring.events());
  }

  static void TearDownTestSuite()
  {
    delete stream_;
    stream_ = nullptr;
  }

  /** Names of the checkers that fire when @p events is replayed into
   * a fresh auditor with the standard suite. */
  static std::set<std::string> Fired(const std::vector<TraceEvent>& events)
  {
    Auditor auditor;
    InstallStandardCheckers(auditor);
    for (const TraceEvent& event : events) auditor.OnEvent(event);
    std::set<std::string> names;
    for (const Violation& v : auditor.violations()) names.insert(v.checker);
    return names;
  }

  /** Index of the first event of @p kind at or after @p from. */
  static std::size_t Find(const std::vector<TraceEvent>& events,
                          TraceEventKind kind, std::size_t from = 0)
  {
    for (std::size_t i = from; i < events.size(); ++i) {
      if (events[i].kind == kind) return i;
    }
    ADD_FAILURE() << "no " << trace::TraceEventKindName(kind)
                  << " in the recorded stream";
    return events.size();
  }

  static std::vector<TraceEvent>* stream_;
  static bool live_clean_;
  static std::string live_summary_;
};

std::vector<TraceEvent>* AuditReplayTest::stream_ = nullptr;
bool AuditReplayTest::live_clean_ = false;
std::string AuditReplayTest::live_summary_;

TEST_F(AuditReplayTest, ReplayGivesTheLiveVerdict)
{
  ASSERT_NE(stream_, nullptr);
  EXPECT_TRUE(live_clean_) << live_summary_;
  EXPECT_TRUE(Fired(*stream_).empty());
}

TEST_F(AuditReplayTest, SecondLatentReleaseFiresLatentLifetime)
{
  ASSERT_NE(stream_, nullptr);
  std::vector<TraceEvent> events = *stream_;
  const std::size_t i = Find(events, TraceEventKind::kLatentRelease);
  ASSERT_LT(i, events.size());
  events.insert(events.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                events[i]);
  EXPECT_EQ(Fired(events), std::set<std::string>{"latent-lifetime"});
}

TEST_F(AuditReplayTest, DispatchOnFailedGpuFiresGpuHealth)
{
  ASSERT_NE(stream_, nullptr);
  std::vector<TraceEvent> events = *stream_;
  const std::size_t fail = Find(events, TraceEventKind::kGpuFail);
  ASSERT_LT(fail, events.size());
  // Plant at the end of the failure's handler, once its aborts freed
  // the GPU: a one-step dispatch on it, killed again at once so the
  // busy-set mirror stays balanced.
  const std::size_t at = Find(events, TraceEventKind::kEventFired, fail);
  ASSERT_LT(at, events.size());
  TraceEvent dispatch;
  dispatch.kind = TraceEventKind::kDispatch;
  dispatch.time_us = events[fail].time_us;
  dispatch.mask = events[fail].mask & ~(events[fail].mask - 1);
  dispatch.degree = 1;
  dispatch.steps = 1;
  dispatch.batch = 1;
  TraceEvent abort = dispatch;
  abort.kind = TraceEventKind::kAbort;
  abort.reason = trace::TraceReason::kGpuFailure;
  events.insert(events.begin() + static_cast<std::ptrdiff_t>(at),
                {dispatch, abort});
  EXPECT_EQ(Fired(events), std::set<std::string>{"gpu-health"});
}

TEST_F(AuditReplayTest, MissingFinishTransitionFiresConservation)
{
  ASSERT_NE(stream_, nullptr);
  std::vector<TraceEvent> events = *stream_;
  const auto finished = std::find_if(
      events.begin(), events.end(), [](const TraceEvent& e) {
        return e.kind == TraceEventKind::kTransition &&
               e.steps == static_cast<int>(RequestState::kFinished);
      });
  ASSERT_NE(finished, events.end());
  events.erase(finished);
  EXPECT_EQ(Fired(events), std::set<std::string>{"request-conservation"});
}

// --- negative tests: every checker detects its injected violation ---

TraceEvent
Admit(RequestId id, TimeUs arrival, TimeUs deadline, int steps = 20)
{
  TraceEvent e;
  e.kind = TraceEventKind::kAdmit;
  e.time_us = arrival;
  e.request = id;
  e.steps = steps;
  e.value = static_cast<double>(deadline - arrival);
  return e;
}

TraceEvent
Transition(RequestId id, RequestState from, RequestState to, TimeUs now)
{
  TraceEvent e;
  e.kind = TraceEventKind::kTransition;
  e.time_us = now;
  e.request = id;
  e.degree = static_cast<int>(from);
  e.steps = static_cast<int>(to);
  return e;
}

TraceEvent
RunEnd(TimeUs now)
{
  TraceEvent e;
  e.kind = TraceEventKind::kRunEnd;
  e.time_us = now;
  return e;
}

TraceEvent
OnMask(TraceEventKind kind, TimeUs now, GpuMask mask, int steps = 0)
{
  TraceEvent e;
  e.kind = kind;
  e.time_us = now;
  e.mask = mask;
  e.steps = steps;
  return e;
}

TraceEvent
Member(RequestId id, TimeUs now, GpuMask mask, int remaining,
       int resolution)
{
  TraceEvent e = OnMask(TraceEventKind::kMember, now, mask, remaining);
  e.request = id;
  e.value = resolution;
  return e;
}

TraceEvent
Latent(TraceEventKind kind, RequestId id, TimeUs now, GpuMask mask = 0)
{
  TraceEvent e = OnMask(kind, now, mask);
  e.request = id;
  return e;
}

/** A kRoundPlan and its kRoundAssignment events. */
struct PlannedAssignment {
  GpuMask mask = 0;
  int num_requests = 1;
  int max_steps = 5;
};

void
FeedRound(Auditor& auditor, TimeUs now, TimeUs round_end, GpuMask free,
          GpuMask all, std::initializer_list<PlannedAssignment> plan)
{
  TraceEvent round = OnMask(TraceEventKind::kRoundPlan, now, free,
                            static_cast<int>(plan.size()));
  round.dur_us = round_end - now;
  round.value = static_cast<double>(all);
  auditor.OnEvent(round);
  for (const PlannedAssignment& a : plan) {
    TraceEvent e =
        OnMask(TraceEventKind::kRoundAssignment, now, a.mask, a.max_steps);
    e.batch = a.num_requests;
    auditor.OnEvent(e);
  }
}

void
Feed(Auditor& auditor, std::initializer_list<TraceEvent> events)
{
  for (const TraceEvent& event : events) auditor.OnEvent(event);
}

TEST(AuditNegativeTest, MonotonicityCheckerFlagsPastScheduling)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<EventTimeMonotonicityChecker>());
  TraceEvent scheduled;
  scheduled.kind = TraceEventKind::kEventScheduled;
  scheduled.time_us = 100;  // now
  scheduled.dur_us = -50;   // at = 50
  scheduled.value = 50;
  auditor.OnEvent(scheduled);
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_EQ(auditor.violations()[0].checker, "event-time-monotonicity");
  EXPECT_NE(auditor.violations()[0].message.find("past"),
            std::string::npos);
}

TEST(AuditNegativeTest, MonotonicityCheckerFlagsBackwardsClock)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<EventTimeMonotonicityChecker>());
  TraceEvent fired;
  fired.kind = TraceEventKind::kEventFired;
  fired.time_us = 150;  // fired at
  fired.value = 200;    // after the clock read 200
  auditor.OnEvent(fired);
  EXPECT_EQ(auditor.total_violations(), 1u);
}

TEST(IdTableTest, InsertFindAndVisitAcrossGrowth)
{
  // Ids 64 apart, alternating in sign, share their low bits; 5000 of
  // them force several doublings, and every entry must survive each.
  IdTable<int> table;
  for (int i = 0; i < 5000; ++i) {
    const RequestId id = (i % 2 == 0 ? 64 : -64) * RequestId{i};
    EXPECT_TRUE(table.Insert(id, i).second) << id;
  }
  EXPECT_FALSE(table.Insert(128, -1).second);
  EXPECT_EQ(*table.Find(128), 2);
  EXPECT_EQ(*table.Find(-64), 1);
  EXPECT_EQ(table.Find(64), nullptr);
  table[64] += 7;
  EXPECT_EQ(*table.Find(64), 7);
  int visited = 0;
  table.ForEach([&](RequestId id, int value) {
    ++visited;
    if (id == 64) return;
    EXPECT_EQ(id, (value % 2 == 0 ? 64 : -64) * RequestId{value});
  });
  EXPECT_EQ(visited, 5001);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsDoubleBooking)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuConservationChecker>());
  FeedRound(auditor, 1000, 2000, 0xFF, 0xFF,
            {{/*mask=*/0b0011, 1, 5},
             {/*mask=*/0b0110, 1, 5}});  // overlaps bit 1
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("double-books"),
            std::string::npos);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsNonPowerOfTwoDegree)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuConservationChecker>());
  FeedRound(auditor, 0, 0, 0xFF, 0xFF, {{/*mask=*/0b0111, 1, 5}});
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("power of two"),
            std::string::npos);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsBusyAndForeignGpus)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuConservationChecker>());
  FeedRound(auditor, 0, 0, /*free=*/0x0F, /*all=*/0xFF,
            {{/*mask=*/0b110000, 1, 5},  // busy GPUs
             {/*mask=*/0x100, 1, 5}});   // off-node
  EXPECT_GE(auditor.total_violations(), 2u);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsOversubscribedDispatch)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuConservationChecker>());
  Feed(auditor, {OnMask(TraceEventKind::kDispatch, 10, 0b0011, 5),
                 // GPU 1 still busy
                 OnMask(TraceEventKind::kDispatch, 20, 0b0010, 5)});
  ASSERT_GE(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("oversubscribes"),
            std::string::npos);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsReleaseOfIdleGpus)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuConservationChecker>());
  Feed(auditor, {OnMask(TraceEventKind::kDispatch, 10, 0b0011, 5),
                 OnMask(TraceEventKind::kComplete, 20, 0b0011, 5),
                 OnMask(TraceEventKind::kAbort, 30, 0b0001, 5)});
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("abort releases"),
            std::string::npos);
}

TEST(AuditNegativeTest, RoundAssignmentWithoutWorkFires)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuConservationChecker>());
  FeedRound(auditor, 0, 0, 0xFF, 0xFF,
            {{/*mask=*/0b0001, /*num_requests=*/0, /*max_steps=*/0},
             {/*mask=*/0, 1, 5}});
  ASSERT_EQ(auditor.total_violations(), 3u);
  EXPECT_NE(auditor.violations()[0].message.find("without requests"),
            std::string::npos);
  EXPECT_NE(auditor.violations()[1].message.find("non-positive step"),
            std::string::npos);
  EXPECT_NE(auditor.violations()[2].message.find("empty GPU set"),
            std::string::npos);
}

TEST(AuditNegativeTest, LifecycleCheckerFlagsIllegalTransition)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RequestLifecycleChecker>());
  // Queued -> Finished skips execution entirely.
  Feed(auditor, {Admit(1, 0, 1000),
                 Transition(1, RequestState::kQueued,
                            RequestState::kFinished, 500)});
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("illegal transition"),
            std::string::npos);
}

TEST(AuditNegativeTest, LifecycleCheckerFlagsTerminalEscape)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RequestLifecycleChecker>());
  // Dropped is terminal; resurrecting the request is illegal.
  Feed(auditor, {Admit(2, 0, 1000),
                 Transition(2, RequestState::kQueued,
                            RequestState::kDropped, 100),
                 Transition(2, RequestState::kDropped,
                            RequestState::kRunning, 200)});
  EXPECT_EQ(auditor.total_violations(), 1u);
}

TEST(AuditNegativeTest, LifecycleCheckerFlagsStaleFromStateAndUnknownId)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RequestLifecycleChecker>());
  auditor.OnEvent(
      Transition(99, RequestState::kQueued, RequestState::kRunning, 10));
  EXPECT_EQ(auditor.total_violations(), 1u);  // unknown request

  // from-state Running contradicts the tracked Queued state.
  Feed(auditor, {Admit(3, 0, 1000),
                 Transition(3, RequestState::kRunning,
                            RequestState::kQueued, 20)});
  EXPECT_EQ(auditor.total_violations(), 2u);
}

TEST(AuditNegativeTest, LifecycleCheckerFlagsDoubleAdmission)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RequestLifecycleChecker>());
  Feed(auditor, {Admit(4, 0, 1000), Admit(4, 10, 1000)});
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("admitted twice"),
            std::string::npos);
}

TEST(AuditNegativeTest, UnknownTerminalTransitionFiresBothRequestCheckers)
{
  // kTransition of an id that was never admitted: the lifecycle
  // checker has no state for it, and conservation would count a
  // terminal it never admitted.
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RequestLifecycleChecker>());
  auditor.AddChecker(std::make_unique<RequestConservationChecker>());
  Feed(auditor, {Transition(42, RequestState::kRunning,
                            RequestState::kFinished, 10),
                 RunEnd(20)});
  ASSERT_EQ(auditor.total_violations(), 2u);
  EXPECT_EQ(auditor.violations()[0].checker, "request-lifecycle");
  EXPECT_NE(auditor.violations()[0].message.find("unknown request 42"),
            std::string::npos);
  EXPECT_EQ(auditor.violations()[1].checker, "request-conservation");
  EXPECT_NE(auditor.violations()[1].message.find("without being admitted"),
            std::string::npos);
}

TEST(AuditNegativeTest, DeadlineCheckerFlagsDeadlineBeforeArrival)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  auditor.OnEvent(Admit(1, /*arrival=*/1000, /*deadline=*/500));
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_EQ(auditor.violations()[0].checker, "deadline-accounting");
}

TEST(AuditNegativeTest, DeadlineCheckerFlagsOverdispatch)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  Feed(auditor,
       {Admit(1, 0, 1000000, /*steps=*/10),
        // 12 steps, more than the 10 remaining
        OnMask(TraceEventKind::kDispatch, 100, 0b1, 12),
        Member(1, 100, 0b1, /*remaining=*/10, /*resolution=*/0)});
  ASSERT_GE(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("exceeds remaining"),
            std::string::npos);
}

TEST(AuditNegativeTest, DeadlineCheckerFlagsEarlyFinish)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  Feed(auditor, {Admit(1, 0, 1000000, /*steps=*/10),
                 OnMask(TraceEventKind::kDispatch, 100, 0b1, 4),
                 Member(1, 100, 0b1, 10, 0),
                 OnMask(TraceEventKind::kComplete, 500, 0b1, 4),
                 Transition(1, RequestState::kRunning,
                            RequestState::kFinished, 600)});
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("steps outstanding"),
            std::string::npos);
}

TEST(AuditNegativeTest, DeadlineCheckerFlagsMixedResolutionBatch)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  Feed(auditor, {Admit(1, 0, 1000000, 10), Admit(2, 0, 1000000, 10),
                 OnMask(TraceEventKind::kDispatch, 100, 0b1, 5),
                 Member(1, 100, 0b1, 10, /*resolution=*/0),
                 Member(2, 100, 0b1, 10, /*resolution=*/2)});
  ASSERT_GE(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("mix resolutions"),
            std::string::npos);
}

TEST(AuditNegativeTest, DeadlineCheckerCreditsOnlyTheCompletedFlight)
{
  // Two flights in the air; completing one credits its member only,
  // aborting the other credits nothing. Request 2 then finishes with
  // all its steps outstanding, request 1 with none.
  Auditor auditor;
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  Feed(auditor, {Admit(1, 0, 1000000, 5), Admit(2, 0, 1000000, 5),
                 OnMask(TraceEventKind::kDispatch, 10, 0b01, 5),
                 Member(1, 10, 0b01, 5, 0),
                 OnMask(TraceEventKind::kDispatch, 10, 0b10, 5),
                 Member(2, 10, 0b10, 5, 0),
                 OnMask(TraceEventKind::kAbort, 20, 0b10, 5),
                 OnMask(TraceEventKind::kComplete, 30, 0b01, 5),
                 Transition(1, RequestState::kRunning,
                            RequestState::kFinished, 30),
                 Transition(2, RequestState::kRunning,
                            RequestState::kFinished, 40)});
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find(
                "request 2 finished with 5 steps outstanding"),
            std::string::npos);
}

TEST(AuditNegativeTest, DeadlineCheckerFlagsMemberOfUnknownRequest)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  Feed(auditor, {OnMask(TraceEventKind::kDispatch, 10, 0b1, 5),
                 Member(77, 10, 0b1, 5, 0)});
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("unknown request 77"),
            std::string::npos);
}

TEST(AuditNegativeTest, DeadlineCheckerFlagsRoundPlanGoingBack)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<DeadlineAccountingChecker>());
  FeedRound(auditor, /*now=*/500, /*round_end=*/400, 0xFF, 0xFF, {});
  FeedRound(auditor, /*now=*/300, /*round_end=*/800, 0xFF, 0xFF, {});
  ASSERT_EQ(auditor.total_violations(), 2u);
  EXPECT_NE(auditor.violations()[0].message.find("window ends in the past"),
            std::string::npos);
  EXPECT_NE(auditor.violations()[1].message.find("backwards in time"),
            std::string::npos);
}

TEST(AuditNegativeTest, LatentCheckerFlagsUseAfterRelease)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<LatentLifetimeChecker>());
  Feed(auditor, {Latent(TraceEventKind::kLatentAssign, 7, 100, 0b11),
                 Latent(TraceEventKind::kLatentRelease, 7, 200),
                 Latent(TraceEventKind::kLatentAssign, 7, 300, 0b11)});
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("after release"),
            std::string::npos);
}

TEST(AuditNegativeTest, LatentCheckerFlagsDoubleRelease)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<LatentLifetimeChecker>());
  Feed(auditor, {Latent(TraceEventKind::kLatentAssign, 7, 100, 0b11),
                 Latent(TraceEventKind::kLatentRelease, 7, 200),
                 Latent(TraceEventKind::kLatentRelease, 7, 300)});
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("released twice"),
            std::string::npos);
}

TEST(AuditNegativeTest, LatentCheckerFlagsEmptyPlacement)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<LatentLifetimeChecker>());
  auditor.OnEvent(Latent(TraceEventKind::kLatentAssign, 8, 100, 0));
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("empty GPU set"),
            std::string::npos);
}

TEST(AuditNegativeTest, CostModelCheckerFlagsBrokenTable)
{
  Auditor auditor;
  costmodel::ModelConfig model = ModelConfig::FluxDev();
  Topology topo = Topology::H100Node();
  costmodel::StepCostModel cost(&model, &topo);
  const auto table = costmodel::LatencyTable::Profile(cost, 1, 4, 3);
  auto& checker = static_cast<CostModelSanityChecker&>(auditor.AddChecker(
      std::make_unique<CostModelSanityChecker>(&table)));

  CostModelSanityChecker::TableView view;
  view.degrees = {1};
  view.max_batch = 1;
  // Negative at k512, non-monotone elsewhere.
  view.step_us = [](Resolution res, int, int) {
    return res == Resolution::k512 ? -5.0 : 100.0;
  };
  view.cv = [](Resolution, int, int) { return 0.1; };
  view.gpu_us = [](Resolution, int, int) { return 100.0; };
  view.vae_us = [](Resolution res) {
    return res == Resolution::k2048 ? 1.0 : 50.0;  // not monotone
  };
  checker.ValidateView(view);
  EXPECT_GE(auditor.total_violations(), 2u);
}

TEST(AuditNegativeTest, RealLatencyTablePassesSanitySweep)
{
  Auditor auditor;
  costmodel::ModelConfig model = ModelConfig::FluxDev();
  Topology topo = Topology::H100Node();
  costmodel::StepCostModel cost(&model, &topo);
  const auto table = costmodel::LatencyTable::Profile(cost, 4, 20, 5);
  InstallCostModelChecker(auditor, &table);
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
}

TEST(AuditNegativeTest, HealthCheckerFlagsWorkOnFailedGpus)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuHealthChecker>());
  auditor.OnEvent(OnMask(TraceEventKind::kGpuFail, 100, 0b0011));

  FeedRound(auditor, 200, 200, 0xFF, 0xFF, {{/*mask=*/0b0001, 1, 5}});
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("plan schedules work"),
            std::string::npos);

  const TraceEvent dispatch =
      OnMask(TraceEventKind::kDispatch, 300, 0b0010, 5);
  auditor.OnEvent(dispatch);
  EXPECT_EQ(auditor.total_violations(), 2u);

  auditor.OnEvent(Latent(TraceEventKind::kLatentAssign, 9, 400, 0b0001));
  ASSERT_EQ(auditor.total_violations(), 3u);
  EXPECT_NE(auditor.violations()[2].message.find("failed GPUs"),
            std::string::npos);

  // Recovered GPUs are legal again.
  auditor.OnEvent(OnMask(TraceEventKind::kGpuRecover, 500, 0b0011));
  FeedRound(auditor, 600, 600, 0xFF, 0xFF, {{/*mask=*/0b0001, 1, 5}});
  auditor.OnEvent(dispatch);
  EXPECT_EQ(auditor.total_violations(), 3u);
}

TEST(AuditNegativeTest, HealthCheckerFlagsBogusFailureProtocol)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<GpuHealthChecker>());
  // Never failed.
  auditor.OnEvent(OnMask(TraceEventKind::kGpuRecover, 50, 0b0001));
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("not failed"),
            std::string::npos);

  auditor.OnEvent(OnMask(TraceEventKind::kGpuFail, 100, 0b0010));
  // Failed twice.
  auditor.OnEvent(OnMask(TraceEventKind::kGpuFail, 150, 0b0010));
  ASSERT_EQ(auditor.total_violations(), 2u);
  EXPECT_NE(auditor.violations()[1].message.find("twice"),
            std::string::npos);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsSilentlyLostRequest)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RequestConservationChecker>());
  // Request 3 stays queued and reaches no terminal state.
  Feed(auditor, {Admit(1, 0, 1000), Admit(2, 0, 1000), Admit(3, 0, 1000),
                 Transition(1, RequestState::kQueued,
                            RequestState::kRunning, 100),
                 Transition(1, RequestState::kRunning,
                            RequestState::kFinished, 200),
                 Transition(2, RequestState::kQueued,
                            RequestState::kCancelled, 300),
                 RunEnd(400)});
  ASSERT_EQ(auditor.total_violations(), 1u);
  EXPECT_NE(auditor.violations()[0].message.find("request 3"),
            std::string::npos);
  EXPECT_NE(auditor.violations()[0].message.find("silently lost"),
            std::string::npos);
}

TEST(AuditNegativeTest, ConservationCheckerAcceptsCleanRun)
{
  Auditor auditor;
  auto& checker = static_cast<RequestConservationChecker&>(
      auditor.AddChecker(std::make_unique<RequestConservationChecker>()));
  Feed(auditor, {Admit(7, 0, 1000),
                 Transition(7, RequestState::kQueued,
                            RequestState::kDropped, 100),
                 RunEnd(200)});
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();
  EXPECT_EQ(checker.admitted(), 1u);
  EXPECT_EQ(checker.dropped(), 1u);
  EXPECT_EQ(checker.open_count(), 0u);
}

TEST(AuditNegativeTest, ConservationCheckerFlagsDoubleCounting)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<RequestConservationChecker>());
  Feed(auditor, {Admit(5, 0, 1000), Admit(5, 0, 1000),
                 Transition(5, RequestState::kQueued,
                            RequestState::kDropped, 100),
                 Transition(5, RequestState::kQueued,
                            RequestState::kDropped, 150),
                 RunEnd(200)});
  ASSERT_EQ(auditor.total_violations(), 2u);
  EXPECT_NE(auditor.violations()[0].message.find("admitted twice"),
            std::string::npos);
  EXPECT_NE(auditor.violations()[1].message.find("terminal state twice"),
            std::string::npos);
}

TEST(AuditTest, SummaryAndStorageCap)
{
  Auditor auditor;
  auditor.AddChecker(std::make_unique<EventTimeMonotonicityChecker>());
  TraceEvent past;
  past.kind = TraceEventKind::kEventScheduled;
  past.time_us = 1000;
  past.dur_us = -990;  // always in the past
  for (int i = 0; i < 300; ++i) auditor.OnEvent(past);
  EXPECT_EQ(auditor.total_violations(), 300u);
  EXPECT_EQ(auditor.violations().size(), Auditor::kMaxStored);
  const std::string summary = auditor.Summary();
  EXPECT_NE(summary.find("300 audit violation(s)"), std::string::npos);
  EXPECT_NE(summary.find("not stored"), std::string::npos);
}

/** Counts what the auditor routes to it. */
class CountingChecker final : public Checker {
 public:
  CountingChecker() : Checker({TraceEventKind::kGpuFail}) {}
  std::string_view name() const override { return "counting"; }
  void OnEvent(const TraceEvent& event) override
  {
    EXPECT_EQ(event.kind, TraceEventKind::kGpuFail);
    ++seen;
  }
  int seen = 0;
};

TEST(AuditTest, CheckersSeeOnlyTheKindsTheyRead)
{
  Auditor auditor;
  auto& counting = static_cast<CountingChecker&>(
      auditor.AddChecker(std::make_unique<CountingChecker>()));
  Feed(auditor, {OnMask(TraceEventKind::kStep, 1, 0b1),
                 OnMask(TraceEventKind::kGpuFail, 2, 0b1),
                 RunEnd(3)});
  EXPECT_EQ(counting.seen, 1);
}

}  // namespace
}  // namespace tetri::audit
