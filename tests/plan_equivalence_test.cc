/**
 * @file
 * Plan-equivalence tests for the scheduler's single Plan() data path.
 *
 *  - PlanEquivalenceSweep: a warm scheduler, whose arena buffers and
 *    (table, tau) memo caches carry across rounds, must emit the same
 *    RoundPlan as a TetriScheduler built fresh for every call on the
 *    same randomized contexts. Any memo or buffer-reuse bug shows up
 *    as a concrete mismatched assignment. Its late-heavy case runs
 *    deep, mostly-late queues with degree-capped retries, traced and
 *    untraced.
 *  - EndToEndEquivalence: full serving runs on mixed FLUX.1-dev and
 *    SD3-Medium traces are diffed, aggregate for aggregate and
 *    timeline row for timeline row, against
 *    tests/golden/plan_equivalence.golden. That golden was recorded
 *    from the seed data path (per-call planner allocations, direct
 *    latency-table lookups, the nested-vector DP), after checking it
 *    matched the arena path exactly, so it stays an independent oracle
 *    for the production path.
 *
 * Regenerate after an intentional policy change with:
 *   TETRI_REGEN_GOLDEN=1 ./plan_equivalence_test
 * and commit the diff.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/request_tracker.h"
#include "serving/system.h"
#include "trace/trace.h"

namespace tetri::core {
namespace {

using costmodel::LatencyTable;
using costmodel::ModelConfig;
using costmodel::Resolution;
using cluster::Topology;
using serving::Request;
using serving::RequestTracker;
using serving::ScheduleContext;

void
ExpectPlansIdentical(const serving::RoundPlan& got,
                     const serving::RoundPlan& want)
{
  ASSERT_EQ(got.assignments.size(), want.assignments.size());
  for (std::size_t i = 0; i < got.assignments.size(); ++i) {
    const auto& a = got.assignments[i];
    const auto& b = want.assignments[i];
    EXPECT_EQ(a.requests, b.requests) << "assignment " << i;
    EXPECT_EQ(a.mask, b.mask) << "assignment " << i;
    EXPECT_EQ(a.max_steps, b.max_steps) << "assignment " << i;
  }
}

/** Random-context sweep: a warm scheduler reused across rounds must
 * match a scheduler built fresh for each call, bit for bit. */
class PlanEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(PlanEquivalenceSweep, FastPathMatchesReference)
{
  auto [seed, model_idx] = GetParam();
  auto model =
      model_idx == 0 ? ModelConfig::FluxDev() : ModelConfig::Sd3Medium();
  auto topo = Topology::H100Node();
  costmodel::StepCostModel cost(&model, &topo);
  auto table = LatencyTable::Profile(cost, 4, 20, 5);

  TetriScheduler warm(&table);

  Rng rng(seed);
  RequestTracker tracker;
  const int num_requests = 1 + static_cast<int>(rng.NextBelow(24));
  const TimeUs base_now = 1000000;
  for (RequestId id = 0; id < num_requests; ++id) {
    workload::TraceRequest meta;
    meta.id = id;
    meta.resolution = costmodel::ResolutionFromIndex(
        static_cast<int>(rng.NextBelow(4)));
    meta.arrival_us =
        base_now - static_cast<TimeUs>(rng.NextBelow(3000000));
    meta.deadline_us =
        meta.arrival_us +
        static_cast<TimeUs>(
            workload::SloPolicy::BaseTargetSec(meta.resolution) * 1e6 *
            rng.NextRange(0.7, 1.7));
    meta.num_steps = 50;
    Request& req = tracker.Admit(meta);
    req.steps_done = static_cast<int>(rng.NextBelow(49));
    if (rng.NextDouble() < 0.5) {
      req.last_degree = 1 << rng.NextBelow(4);
      req.last_mask = cluster::FullMask(req.last_degree)
                      << rng.NextBelow(4);
    }
  }

  // Several rounds against the same warm scheduler: round 2+ runs on
  // carried scratch buffers and memos, which must not change any
  // output.
  for (int round = 0; round < 3; ++round) {
    const TimeUs now = base_now + round * warm.RoundDurationUs();
    auto schedulable = tracker.Schedulable(now);
    if (schedulable.empty()) break;
    ScheduleContext ctx;
    ctx.now = now;
    ctx.round_end = now + warm.RoundDurationUs();
    ctx.free_gpus =
        cluster::FullMask(1 + static_cast<int>(rng.NextBelow(8)));
    ctx.schedulable = &schedulable;
    ctx.topology = &topo;
    ctx.table = &table;

    TetriScheduler fresh(&table);
    ExpectPlansIdentical(warm.Plan(ctx), fresh.Plan(ctx));

    // Advance request state a little so later rounds see different
    // queues (mimic partial execution without running the engine).
    for (Request* req : schedulable) {
      if (rng.NextDouble() < 0.4 && req->RemainingSteps() > 1) {
        req->steps_done += 1;
      }
    }
  }
}

/** The events of @p sink with their round ordinals cleared, so a warm
 * scheduler's round can be compared with a fresh scheduler's first. */
std::vector<trace::TraceEvent>
EventsAnyRound(const trace::RingBufferSink& sink)
{
  std::vector<trace::TraceEvent> events = sink.events();
  for (trace::TraceEvent& ev : events) ev.round = 0;
  return events;
}

/**
 * Late-heavy sweep: queues up to 512 deep, `now` past most effective
 * deadlines and some degree-capped retries, so Stage 1 answers most
 * entries with its late verdict while the staircases it compares
 * against are partly warm. A warm scheduler must match a fresh one; a
 * recording sink must change neither plan, and the warm traced
 * scheduler must emit the fresh traced scheduler's events.
 */
TEST_P(PlanEquivalenceSweep, LateHeavyBacklogMatchesFresh)
{
  auto [seed, model_idx] = GetParam();
  auto model =
      model_idx == 0 ? ModelConfig::FluxDev() : ModelConfig::Sd3Medium();
  auto topo = Topology::H100Node();
  costmodel::StepCostModel cost(&model, &topo);
  auto table = LatencyTable::Profile(cost, 4, 20, 5);

  TetriScheduler warm(&table);
  TetriScheduler warm_traced(&table);
  trace::RingBufferSink warm_sink;
  warm_traced.set_trace(&warm_sink);

  Rng rng(1000 + seed);
  RequestTracker tracker;
  const int num_requests = 1 + static_cast<int>(rng.NextBelow(512));
  const TimeUs base_now = 20000000;
  for (RequestId id = 0; id < num_requests; ++id) {
    workload::TraceRequest meta;
    meta.id = id;
    meta.resolution = costmodel::ResolutionFromIndex(
        static_cast<int>(rng.NextBelow(4)));
    // Ages up to 12 s against 1.5-5 s base budgets: most deadlines are
    // behind `now` or too close for the fastest remaining trajectory.
    meta.arrival_us =
        base_now - static_cast<TimeUs>(rng.NextBelow(12000000));
    meta.deadline_us =
        meta.arrival_us +
        static_cast<TimeUs>(
            workload::SloPolicy::BaseTargetSec(meta.resolution) * 1e6 *
            rng.NextRange(0.7, 1.7));
    meta.num_steps = 50;
    Request& req = tracker.Admit(meta);
    req.steps_done = static_cast<int>(rng.NextBelow(49));
    if (rng.NextDouble() < 0.5) {
      req.last_degree = 1 << rng.NextBelow(4);
      req.last_mask = cluster::FullMask(req.last_degree)
                      << rng.NextBelow(4);
    }
    if (rng.NextDouble() < 0.1) req.degree_cap = 1 << rng.NextBelow(3);
  }

  for (int round = 0; round < 3; ++round) {
    const TimeUs now = base_now + round * warm.RoundDurationUs();
    auto schedulable = tracker.Schedulable(now);
    if (schedulable.empty()) break;
    ScheduleContext ctx;
    ctx.now = now;
    ctx.round_end = now + warm.RoundDurationUs();
    ctx.free_gpus =
        cluster::FullMask(1 + static_cast<int>(rng.NextBelow(8)));
    ctx.schedulable = &schedulable;
    ctx.topology = &topo;
    ctx.table = &table;

    TetriScheduler fresh(&table);
    TetriScheduler fresh_traced(&table);
    trace::RingBufferSink fresh_sink;
    fresh_traced.set_trace(&fresh_sink);
    warm_sink.Clear();

    const serving::RoundPlan want = fresh.Plan(ctx);
    ExpectPlansIdentical(warm.Plan(ctx), want);
    ExpectPlansIdentical(warm_traced.Plan(ctx), want);
    ExpectPlansIdentical(fresh_traced.Plan(ctx), want);
    ASSERT_EQ(warm_sink.dropped(), 0u);
    ASSERT_EQ(fresh_sink.dropped(), 0u);
    EXPECT_EQ(EventsAnyRound(warm_sink), EventsAnyRound(fresh_sink));

    for (Request* req : schedulable) {
      if (rng.NextDouble() < 0.4 && req->RemainingSteps() > 1) {
        req->steps_done += 1;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanEquivalenceSweep,
                         ::testing::Combine(::testing::Range(1, 40),
                                            ::testing::Values(0, 1)));

/**
 * Text form of one serving run: the aggregates, then one line per
 * request record and per timeline row:
 *
 *   record <id> <completion_us> <gpu_time_us> <steps> <degree_step_sum>
 *   row <start_us> <end_us> <mask> <batch> <steps> <request,...>
 *
 * Doubles print with 17 significant digits, so equal text means
 * bit-equal values.
 */
std::string
RenderRun(const serving::ServingResult& result)
{
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "aggregate makespan_us=%" PRId64
                " assignments=%d dropped=%d busy_gpu_us=%.17g\n",
                static_cast<std::int64_t>(result.makespan_us),
                result.num_assignments, result.num_dropped,
                result.busy_gpu_us);
  out << line;
  for (const auto& r : result.records) {
    std::snprintf(line, sizeof(line),
                  "record %" PRId64 " %" PRId64 " %.17g %d %.17g\n",
                  static_cast<std::int64_t>(r.id),
                  static_cast<std::int64_t>(r.completion_us),
                  r.gpu_time_us, r.steps_executed, r.degree_step_sum);
    out << line;
  }
  for (const auto& e : result.timeline.entries()) {
    std::snprintf(line, sizeof(line),
                  "row %" PRId64 " %" PRId64 " 0x%" PRIx64 " %d %d ",
                  static_cast<std::int64_t>(e.start_us),
                  static_cast<std::int64_t>(e.end_us),
                  static_cast<std::uint64_t>(e.mask), e.batch, e.steps);
    out << line;
    for (std::size_t i = 0; i < e.requests.size(); ++i) {
      out << (i == 0 ? "" : ",") << e.requests[i];
    }
    out << "\n";
  }
  return out.str();
}

/** The six end-to-end runs (FLUX/SD3 x SLO scale), one section each. */
const std::tuple<int, double> kEndToEndRuns[] = {
    {0, 0.8}, {0, 1.0}, {0, 1.4}, {1, 0.8}, {1, 1.0}, {1, 1.4}};

std::string
SectionHeader(int model_idx, double slo_scale)
{
  std::ostringstream out;
  out << "run model=" << (model_idx == 0 ? "flux" : "sd3")
      << " slo_scale=" << slo_scale << "\n";
  return out.str();
}

/** Serve a mixed-resolution trace to completion under the default
 * scheduler and render the run. */
std::string
EndToEndSection(int model_idx, double slo_scale)
{
  auto model =
      model_idx == 0 ? ModelConfig::FluxDev() : ModelConfig::Sd3Medium();
  auto topo = Topology::H100Node();
  serving::ServingConfig config;
  config.record_timeline = true;
  serving::ServingSystem system(&topo, &model, config);

  workload::TraceSpec spec;
  spec.num_requests = 100;
  spec.slo_scale = slo_scale;
  if (model_idx == 1) spec.mix = workload::ResolutionMix::Skewed();
  auto trace = workload::BuildTrace(spec);

  TetriScheduler scheduler(&system.table());
  return SectionHeader(model_idx, slo_scale) +
         RenderRun(system.Run(&scheduler, trace));
}

std::string
GoldenPath()
{
  return std::string(TETRI_SOURCE_DIR) +
         "/tests/golden/plan_equivalence.golden";
}

/** The committed section for one run, or "" when absent. */
std::string
GoldenSection(int model_idx, double slo_scale)
{
  std::ifstream in(GoldenPath());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::string header = SectionHeader(model_idx, slo_scale);
  const auto start = text.find(header);
  if (start == std::string::npos) return "";
  const auto end = text.find("run model=", start + header.size());
  return text.substr(start, end == std::string::npos ? std::string::npos
                                                     : end - start);
}

/** End-to-end golden run: the production path must reproduce the
 * recorded run exactly, assignment for assignment. */
class EndToEndEquivalence
    : public ::testing::TestWithParam<std::tuple<int, double>> {
};

TEST_P(EndToEndEquivalence, RunsAreAssignmentIdentical)
{
  auto [model_idx, slo_scale] = GetParam();
  const char* regen = std::getenv("TETRI_REGEN_GOLDEN");
  if (regen != nullptr && *regen != '\0') {
    // One file holds all six runs; write it once, from the first case.
    if (std::make_tuple(model_idx, slo_scale) == kEndToEndRuns[0]) {
      std::ofstream out(GoldenPath());
      ASSERT_TRUE(out.good()) << "cannot write " << GoldenPath();
      for (const auto& [m, s] : kEndToEndRuns) out << EndToEndSection(m, s);
    }
    GTEST_SKIP() << "golden file regenerated at " << GoldenPath();
  }

  const std::string expected = GoldenSection(model_idx, slo_scale);
  ASSERT_FALSE(expected.empty())
      << "missing section in " << GoldenPath()
      << " (regenerate with TETRI_REGEN_GOLDEN=1)";
  const std::string actual = EndToEndSection(model_idx, slo_scale);
  if (actual == expected) return;
  // Report the first differing line rather than two large blobs.
  std::istringstream a(actual);
  std::istringstream e(expected);
  std::string a_line;
  std::string e_line;
  int line_no = 1;
  while (std::getline(a, a_line) && std::getline(e, e_line) &&
         a_line == e_line) {
    ++line_no;
  }
  FAIL() << "run diverges from the golden at section line " << line_no
         << "\n  got:  " << a_line << "\n  want: " << e_line
         << "\nif intentional, regenerate with TETRI_REGEN_GOLDEN=1 and "
            "commit the diff";
}

INSTANTIATE_TEST_SUITE_P(MixedTraces, EndToEndEquivalence,
                         ::testing::ValuesIn(kEndToEndRuns));

}  // namespace
}  // namespace tetri::core
