/**
 * @file
 * Overload graceful degradation (chaos disabled): a burst far beyond
 * cluster capacity must terminate without deadlock, serve what it can,
 * and shed the rest via timeout drops in effective-deadline order —
 * the first request dropped is the one whose drop deadline expired
 * first, never an arbitrary victim. The decision trace must agree:
 * the run's kDrop events mirror the audited drop order exactly.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "audit/checkers.h"
#include "baselines/edf.h"
#include "core/tetri_scheduler.h"
#include "serving/request.h"
#include "serving/system.h"
#include "trace/trace.h"

namespace tetri::serving {
namespace {

using costmodel::ModelConfig;
using costmodel::Resolution;
using cluster::Topology;
using metrics::DropReason;
using metrics::Outcome;

/** Records the order and deadlines of kDropped transitions. */
class DropOrderRecorder final : public audit::Checker {
 public:
  DropOrderRecorder()
      : Checker({trace::TraceEventKind::kAdmit,
                 trace::TraceEventKind::kTransition})
  {
  }

  std::string_view name() const override { return "drop-order"; }

  void OnEvent(const trace::TraceEvent& event) override
  {
    if (event.kind == trace::TraceEventKind::kAdmit) {
      // kAdmit carries the slack: the deadline is time + value.
      deadlines_[event.request] =
          event.time_us + static_cast<TimeUs>(event.value);
    } else if (event.steps == static_cast<int>(RequestState::kDropped)) {
      drops_.push_back(
          {event.request, deadlines_.at(event.request), event.time_us});
    }
  }

  struct Drop {
    RequestId id;
    TimeUs deadline_us;
    TimeUs dropped_at_us;
  };
  const std::vector<Drop>& drops() const { return drops_; }

 private:
  std::unordered_map<RequestId, TimeUs> deadlines_;
  std::vector<Drop> drops_;
};

/** Burst trace: everything arrives at t=0 with one shared SLO scale,
 * so the drop deadline (arrival + factor x budget) is monotone in the
 * SLO deadline and whole-run drop order is checkable. */
workload::Trace
BurstTrace(int n)
{
  workload::Trace trace;
  const Resolution kinds[] = {Resolution::k512, Resolution::k1024,
                              Resolution::k2048};
  for (int i = 0; i < n; ++i) {
    workload::TraceRequest req;
    req.id = i;
    req.arrival_us = 0;
    req.resolution = kinds[i % 3];
    req.num_steps = 50;
    // Spread of budgets so the expected shed order is nontrivial.
    req.deadline_us = UsFromSec(4.0 + 0.5 * (i % 7));
    req.prompt = "burst";
    trace.requests.push_back(req);
  }
  return trace;
}

class OverloadSweep : public ::testing::TestWithParam<int> {};

TEST_P(OverloadSweep, ShedsLoadInEffectiveDeadlineOrder)
{
  auto model = ModelConfig::FluxDev();
  auto topo = Topology::H100Node(4);  // small node, big burst

  audit::Auditor auditor;
  audit::InstallStandardCheckers(auditor);
  auto& recorder = static_cast<DropOrderRecorder&>(
      auditor.AddChecker(std::make_unique<DropOrderRecorder>()));

  trace::Tracer tracer;
  trace::RingBufferSink ring;
  tracer.AddSink(&ring);

  serving::ServingConfig sc;
  sc.auditor = &auditor;
  sc.drop_timeout_factor = 3.0;
  sc.trace = &tracer;
  serving::ServingSystem system(&topo, &model, sc);

  std::unique_ptr<Scheduler> scheduler;
  if (GetParam() == 0) {
    scheduler = std::make_unique<core::TetriScheduler>(&system.table());
  } else {
    scheduler = std::make_unique<baselines::EdfScheduler>(&system.table());
  }

  const auto trace = BurstTrace(80);
  const auto result = system.Run(scheduler.get(), trace);

  // Terminated (no deadlock) with every request accounted for.
  ASSERT_EQ(result.records.size(), trace.requests.size());
  int completed = 0;
  for (const auto& rec : result.records) {
    ASSERT_NE(rec.outcome, Outcome::kUnfinished) << rec.id;
    if (rec.outcome == Outcome::kCompleted) ++completed;
    if (rec.outcome == Outcome::kDropped) {
      EXPECT_EQ(rec.drop_reason, DropReason::kTimeout) << rec.id;
    }
  }
  EXPECT_EQ(completed + result.num_dropped,
            static_cast<int>(trace.requests.size()));

  // 20x capacity: the system must both shed and still serve.
  EXPECT_GT(result.num_dropped, 0);
  EXPECT_GT(completed, 0);
  EXPECT_TRUE(auditor.clean()) << auditor.Summary();

  // Strict shed order: drop times never decrease, and within the
  // whole run the victims leave in effective-deadline order (shared
  // arrival and factor make drop_at monotone in the deadline).
  const auto& drops = recorder.drops();
  ASSERT_EQ(static_cast<int>(drops.size()), result.num_dropped);
  for (std::size_t i = 1; i < drops.size(); ++i) {
    EXPECT_GE(drops[i].dropped_at_us, drops[i - 1].dropped_at_us);
    EXPECT_GE(drops[i].deadline_us, drops[i - 1].deadline_us)
        << "request " << drops[i].id << " shed before "
        << drops[i - 1].id << " despite a later effective deadline";
  }

  // The decision trace tells the same story: one kDrop per shed
  // request, tagged kTimeout, in exactly the audited order, with the
  // deadline (the event's value) never decreasing.
  const auto traced = ring.Query(
      trace::TraceQuery{}.WithKind(trace::TraceEventKind::kDrop));
  ASSERT_EQ(traced.size(), drops.size());
  for (std::size_t i = 0; i < traced.size(); ++i) {
    EXPECT_EQ(traced[i].request, drops[i].id);
    EXPECT_EQ(traced[i].reason, trace::TraceReason::kTimeout);
    EXPECT_EQ(traced[i].time_us, drops[i].dropped_at_us);
    EXPECT_DOUBLE_EQ(traced[i].value,
                     static_cast<double>(drops[i].deadline_us));
    if (i > 0) {
      EXPECT_GE(traced[i].value, traced[i - 1].value);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, OverloadSweep,
                         ::testing::Values(0, 1));

}  // namespace
}  // namespace tetri::serving
