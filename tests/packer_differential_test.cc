/**
 * @file
 * Packer differential-testing harness (the proof obligation for
 * tetri::packers): every registered Stage-2 packer — the
 * group-knapsack DP ("dp") and the SET-style progressive-filling
 * heuristic ("progressive") — runs on the same generated workloads
 * and must satisfy cross-packer invariants:
 *
 *  - feasibility: choice indices valid, gpus_used == sum of chosen
 *    degrees <= capacity, survivors/running/work accounting exact;
 *  - "dp" agrees bit for bit with oracle::PackRoundReference, the seed
 *    nested-vector DP kept as an independent test oracle;
 *  - progressive survivors never exceed the DP's (the DP is
 *    survivor-optimal, which oracle::PackRoundExhaustive re-proves on
 *    small instances);
 *  - progressive at min_utilization = 0 is a greedy fixpoint: no
 *    single widening move that fits the leftover capacity improves
 *    (survival, then work) — the no-waste invariant;
 *  - progressive at min_utilization > 0 either meets the utilization
 *    bound or has shed down to at most one running group;
 *  - at the scheduler level, an explicit TetriOptions::packer = kDp
 *    reproduces the default scheduler assignment for assignment, and a
 *    progressive scheduler serves full traces (pow2 and non-pow2)
 *    with a clean audit: GPUs never overlap, every admitted request
 *    reaches a terminal state, deadlines accounting holds.
 *
 * The sweep is seed-pinned: every instance is a pure function of its
 * seed. TETRI_PACKER_SEED=<N> reruns exactly one seed; on any
 * invariant violation the harness dumps the offending instance to
 * packer_replay_seed<N>.txt (uploaded by CI as the repro artifact).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "audit/checkers.h"
#include "chaos/chaos.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "oracle/packing.h"
#include "packers/packer.h"
#include "packers/progressive.h"
#include "serving/request_tracker.h"
#include "serving/system.h"
#include "util/rng.h"

namespace tetri::packers {
namespace {

using cluster::Topology;
using costmodel::LatencyTable;
using costmodel::ModelConfig;

// ---------------------------------------------------------------
// Instance generation (pure function of the seed)
// ---------------------------------------------------------------

struct Instance {
  int capacity = 0;
  std::vector<PackGroup> groups;
};

/** Randomized option groups; @p non_pow2 mixes in degrees 3/5/6/7. */
Instance
GenInstance(std::uint64_t seed, bool non_pow2)
{
  Rng rng(seed);
  Instance inst;
  inst.capacity = 1 + static_cast<int>(rng.NextBelow(16));
  const int num_groups = static_cast<int>(rng.NextBelow(25));
  const int pow2_degrees[] = {1, 2, 4, 8};
  const int all_degrees[] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (int g = 0; g < num_groups; ++g) {
    PackGroup group;
    group.id = g;
    group.survives_if_idle = rng.NextDouble() < 0.4;
    // Occasionally a group with no options (late request Stage 2
    // cannot help) — packers must pass it through untouched.
    const int num_options =
        rng.NextDouble() < 0.1 ? 0 : 1 + static_cast<int>(rng.NextBelow(4));
    for (int o = 0; o < num_options; ++o) {
      PackOption opt;
      opt.degree = non_pow2
                       ? all_degrees[rng.NextBelow(8)]
                       : pow2_degrees[rng.NextBelow(4)];
      opt.steps = 1 + static_cast<int>(rng.NextBelow(10));
      opt.survives = rng.NextDouble() < 0.6;
      opt.work = rng.NextRange(0.01, 2.0);
      group.options.push_back(opt);
    }
    inst.groups.push_back(std::move(group));
  }
  return inst;
}

std::string
RenderInstance(const Instance& inst, std::uint64_t seed, bool non_pow2)
{
  std::ostringstream oss;
  oss << "packer differential replay\n"
      << "seed " << seed << (non_pow2 ? " non_pow2" : " pow2")
      << "\ncapacity " << inst.capacity << "\ngroups "
      << inst.groups.size() << "\n";
  for (const PackGroup& g : inst.groups) {
    oss << "group " << g.id << " idle_survives "
        << (g.survives_if_idle ? 1 : 0) << "\n";
    for (const PackOption& o : g.options) {
      oss << "  option degree " << o.degree << " steps " << o.steps
          << " survives " << (o.survives ? 1 : 0) << " work " << o.work
          << "\n";
    }
  }
  return oss.str();
}

/** Dump the instance for offline replay; returns the file path. */
std::string
DumpReplay(const Instance& inst, std::uint64_t seed, bool non_pow2)
{
  const std::string path =
      "packer_replay_seed" + std::to_string(seed) + ".txt";
  std::ofstream out(path);
  out << RenderInstance(inst, seed, non_pow2);
  return path;
}

// ---------------------------------------------------------------
// Invariant checks
// ---------------------------------------------------------------

/** Feasibility + accounting of one result, any packer. */
void
ValidateResult(const Instance& inst, const PackResult& result,
               std::string_view packer)
{
  const int n = static_cast<int>(inst.groups.size());
  ASSERT_EQ(static_cast<int>(result.choice.size()), n) << packer;
  int survivors = 0;
  int gpus = 0;
  int running = 0;
  double work = 0.0;
  for (int i = 0; i < n; ++i) {
    const PackGroup& g = inst.groups[i];
    const int c = result.choice[i];
    ASSERT_GE(c, -1) << packer << " group " << i;
    ASSERT_LT(c, static_cast<int>(g.options.size()))
        << packer << " group " << i;
    if (c < 0) {
      survivors += g.survives_if_idle ? 1 : 0;
      continue;
    }
    const PackOption& o = g.options[c];
    survivors += o.survives ? 1 : 0;
    gpus += o.degree;
    work += o.work;
    ++running;
  }
  EXPECT_EQ(result.survivors, survivors) << packer;
  EXPECT_EQ(result.gpus_used, gpus) << packer;
  EXPECT_EQ(result.running, running) << packer;
  EXPECT_LE(result.gpus_used, inst.capacity) << packer;
  EXPECT_TRUE(WorkNearlyEqual(result.work, work))
      << packer << ": accounted work " << result.work << " vs summed "
      << work;
}

void
ExpectBitIdentical(const PackResult& a, const PackResult& b)
{
  EXPECT_EQ(a.choice, b.choice);
  EXPECT_EQ(a.survivors, b.survivors);
  EXPECT_EQ(a.gpus_used, b.gpus_used);
  EXPECT_EQ(a.running, b.running);
  EXPECT_EQ(a.work, b.work);  // same arithmetic path, exact
}

/**
 * The progressive packer's greedy-fixpoint (no-waste) invariant at
 * min_utilization = 0: no single move — admitting an unchosen group or
 * widening a chosen one — that fits the leftover capacity improves
 * (survival gain, then non-trivial work gain), mirroring the
 * redistribute loop's exit condition.
 */
void
ExpectNoWaste(const Instance& inst, const PackResult& result)
{
  const int leftover = inst.capacity - result.gpus_used;
  if (leftover <= 0) return;
  for (std::size_t i = 0; i < inst.groups.size(); ++i) {
    const PackGroup& g = inst.groups[i];
    const int cur = result.choice[i];
    const int cur_sv = cur < 0 ? (g.survives_if_idle ? 1 : 0)
                               : (g.options[cur].survives ? 1 : 0);
    const double cur_wk = cur < 0 ? 0.0 : g.options[cur].work;
    const int cur_deg = cur < 0 ? 0 : g.options[cur].degree;
    for (const PackOption& o : g.options) {
      const int ddeg = o.degree - cur_deg;
      if (ddeg <= 0 || ddeg > leftover) continue;
      const int dsv = (o.survives ? 1 : 0) - cur_sv;
      const bool improves =
          dsv > 0 || (dsv == 0 && o.work > cur_wk &&
                      !WorkNearlyEqual(o.work, cur_wk));
      EXPECT_FALSE(improves)
          << "no-waste violated: group " << i << " could move to "
          << "degree " << o.degree << " within leftover " << leftover;
    }
  }
}

// ---------------------------------------------------------------
// The differential sweep
// ---------------------------------------------------------------

struct SweepCase {
  std::uint64_t seed = 0;
  bool non_pow2 = false;
};

void
RunDifferentialCase(const SweepCase& sweep_case)
{
  const Instance inst = GenInstance(sweep_case.seed, sweep_case.non_pow2);
  const int n = static_cast<int>(inst.groups.size());

  auto dp = MakePacker(PackerKind::kDp);
  PackerOptions greedy_opts;
  greedy_opts.min_utilization = 0.0;
  auto progressive_greedy = MakePacker(PackerKind::kProgressive,
                                       greedy_opts);
  PackerOptions bounded_opts;
  bounded_opts.min_utilization = 0.5;
  auto progressive_bounded = MakePacker(PackerKind::kProgressive,
                                        bounded_opts);
  ASSERT_TRUE(dp && progressive_greedy && progressive_bounded);

  PackResult dp_result;
  PackResult greedy_result;
  PackResult bounded_result;
  dp->Pack(inst.groups.data(), n, inst.capacity, &dp_result);
  progressive_greedy->Pack(inst.groups.data(), n, inst.capacity,
                           &greedy_result);
  progressive_bounded->Pack(inst.groups.data(), n, inst.capacity,
                            &bounded_result);

  // Invariant 1: every packer's result is feasible and accounted.
  ValidateResult(inst, dp_result, "dp");
  ValidateResult(inst, greedy_result, "progressive(min_util=0)");
  ValidateResult(inst, bounded_result, "progressive(min_util=0.5)");

  // Invariant 2: the DP matches the seed nested-vector oracle.
  ExpectBitIdentical(dp_result,
                     oracle::PackRoundReference(inst.groups, inst.capacity));

  // Invariant 3: the DP is survivor-optimal, so the heuristic can
  // never beat it.
  EXPECT_LE(greedy_result.survivors, dp_result.survivors);
  EXPECT_LE(bounded_result.survivors, dp_result.survivors);

  // Invariant 4: greedy fixpoint (no-waste) without the bound.
  ExpectNoWaste(inst, greedy_result);

  // Invariant 5: the bound holds, or the packer shed to <= 1 group.
  if (bounded_result.running > 1) {
    EXPECT_GE(PackUtilization(inst.groups.data(), n, bounded_result),
              0.5 - 1e-12);
  }

  // Invariant 6 (small instances): the exhaustive oracle agrees with
  // the DP on the full objective and upper-bounds the heuristic.
  if (n <= 6 && inst.capacity <= 8) {
    const PackResult exhaustive =
        oracle::PackRoundExhaustive(inst.groups, inst.capacity);
    EXPECT_EQ(dp_result.survivors, exhaustive.survivors);
    EXPECT_TRUE(WorkNearlyEqual(dp_result.work, exhaustive.work))
        << "dp work " << dp_result.work << " vs exhaustive "
        << exhaustive.work;
    EXPECT_LE(greedy_result.survivors, exhaustive.survivors);
  }
}

/** TETRI_PACKER_SEED pins the sweep to one seed for replay. */
std::optional<std::uint64_t>
PinnedSeed()
{
  const char* env = std::getenv("TETRI_PACKER_SEED");
  if (env == nullptr || *env == '\0') return std::nullopt;
  return std::strtoull(env, nullptr, 10);
}

class PackerDifferential : public ::testing::TestWithParam<int> {
};

TEST_P(PackerDifferential, InvariantsHoldOnRandomizedInstances)
{
  // Each shard covers 20 seeds in both degree regimes; the suite
  // totals 260 seeds x 2 regimes, comfortably past the 200-workload
  // floor the harness promises.
  const std::uint64_t base = static_cast<std::uint64_t>(GetParam()) * 20;
  const auto pinned = PinnedSeed();
  for (std::uint64_t offset = 0; offset < 20; ++offset) {
    const std::uint64_t seed = base + offset;
    if (pinned.has_value() && seed != *pinned) continue;
    for (const bool non_pow2 : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (non_pow2 ? " non_pow2" : " pow2"));
      SweepCase sweep_case;
      sweep_case.seed = seed;
      sweep_case.non_pow2 = non_pow2;
      RunDifferentialCase(sweep_case);
      if (::testing::Test::HasFailure()) {
        const Instance inst = GenInstance(seed, non_pow2);
        const std::string path = DumpReplay(inst, seed, non_pow2);
        FAIL() << "invariant violation at seed " << seed
               << "; replay with TETRI_PACKER_SEED=" << seed
               << " (instance dumped to " << path << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PackerDifferential,
                         ::testing::Range(0, 13));

// ---------------------------------------------------------------
// Registry surface
// ---------------------------------------------------------------

TEST(PackerRegistry, NamesRoundTrip)
{
  const auto names = RegisteredPackerNames();
  ASSERT_EQ(names, (std::vector<std::string_view>{"dp", "progressive"}));
  for (std::string_view name : names) {
    const auto kind = PackerKindFromName(name);
    ASSERT_TRUE(kind.has_value()) << name;
    EXPECT_EQ(PackerKindName(*kind), name);
    auto packer = MakePacker(name);
    ASSERT_NE(packer, nullptr) << name;
    EXPECT_EQ(packer->name(), name);
  }
  EXPECT_FALSE(PackerKindFromName("nonsense").has_value());
  EXPECT_EQ(MakePacker("nonsense"), nullptr);
}

TEST(PackerRegistry, RetiredNamesAreRejected)
{
  // "auto" and "staircase" were aliases of the DP; only "dp" names it.
  for (std::string_view name : {"auto", "staircase"}) {
    EXPECT_FALSE(PackerKindFromName(name).has_value()) << name;
    EXPECT_EQ(MakePacker(name), nullptr) << name;
  }
}

TEST(PackerRegistry, EmptyInputIsEmptyResult)
{
  for (std::string_view name : RegisteredPackerNames()) {
    auto packer = MakePacker(name);
    PackResult result;
    packer->Pack(nullptr, 0, 8, &result);
    EXPECT_TRUE(result.choice.empty()) << name;
    EXPECT_EQ(result.survivors, 0) << name;
    EXPECT_EQ(result.gpus_used, 0) << name;
  }
}

TEST(ProgressivePacker, EvictsLowDemandGroupBelowUtilizationBound)
{
  // One heavyweight (demand 1.0, degree 4) plus one featherweight
  // (demand 0.001, degree 4): utilization with both ~ a half of the
  // bound, so the featherweight must be evicted.
  Instance inst;
  inst.capacity = 8;
  for (int g = 0; g < 2; ++g) {
    PackGroup group;
    group.id = g;
    group.survives_if_idle = true;
    PackOption opt;
    opt.degree = 4;
    opt.steps = 5;
    opt.survives = true;
    opt.work = g == 0 ? 1.0 : 0.001;
    group.options.push_back(opt);
    inst.groups.push_back(group);
  }
  PackerOptions opts;
  opts.min_utilization = 0.9;
  auto packer = MakePacker(PackerKind::kProgressive, opts);
  PackResult result;
  packer->Pack(inst.groups.data(), 2, inst.capacity, &result);
  EXPECT_EQ(result.choice[0], 0);
  EXPECT_EQ(result.choice[1], -1);
  EXPECT_EQ(result.running, 1);
}

TEST(ProgressivePacker, FillsNonPow2CapacityThePow2DpStrands)
{
  // Capacity 7 with degree-{3,4} options: the pow2-disciplined option
  // set can use at most 4+2+1 of such groups, but with only degree-3
  // and degree-4 options available the DP strands GPUs a non-pow2
  // packer can use. Both groups fit exactly at 3 + 4 = 7.
  Instance inst;
  inst.capacity = 7;
  for (int g = 0; g < 2; ++g) {
    PackGroup group;
    group.id = g;
    group.survives_if_idle = false;
    PackOption opt;
    opt.degree = g == 0 ? 3 : 4;
    opt.steps = 5;
    opt.survives = true;
    opt.work = 1.0;
    group.options.push_back(opt);
    inst.groups.push_back(group);
  }
  PackerOptions opts;
  opts.min_utilization = 0.0;
  auto packer = MakePacker(PackerKind::kProgressive, opts);
  PackResult result;
  packer->Pack(inst.groups.data(), 2, inst.capacity, &result);
  EXPECT_EQ(result.running, 2);
  EXPECT_EQ(result.gpus_used, 7);
  EXPECT_EQ(result.survivors, 2);
}

// ---------------------------------------------------------------
// Scheduler-level differential
// ---------------------------------------------------------------

void
ExpectPlansIdentical(const serving::RoundPlan& a,
                     const serving::RoundPlan& b)
{
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t i = 0; i < a.assignments.size(); ++i) {
    EXPECT_EQ(a.assignments[i].requests, b.assignments[i].requests)
        << "assignment " << i;
    EXPECT_EQ(a.assignments[i].mask, b.assignments[i].mask)
        << "assignment " << i;
    EXPECT_EQ(a.assignments[i].max_steps, b.assignments[i].max_steps)
        << "assignment " << i;
  }
}

/** Random schedulable queues, mirroring plan_equivalence_test. */
void
FillRandomQueue(serving::RequestTracker* tracker, Rng* rng,
                TimeUs base_now)
{
  const int num_requests = 1 + static_cast<int>(rng->NextBelow(24));
  for (RequestId id = 0; id < num_requests; ++id) {
    workload::TraceRequest meta;
    meta.id = id;
    meta.resolution = costmodel::ResolutionFromIndex(
        static_cast<int>(rng->NextBelow(4)));
    meta.arrival_us =
        base_now - static_cast<TimeUs>(rng->NextBelow(3000000));
    meta.deadline_us =
        meta.arrival_us +
        static_cast<TimeUs>(
            workload::SloPolicy::BaseTargetSec(meta.resolution) * 1e6 *
            rng->NextRange(0.7, 1.7));
    meta.num_steps = 50;
    serving::Request& req = tracker->Admit(meta);
    req.steps_done = static_cast<int>(rng->NextBelow(49));
  }
}

/** An explicit TetriOptions::packer = kDp is the default scheduler:
 * same name, same plans. */
TEST(SchedulerPackerDifferential, DpPackersReproduceBuiltinStage2)
{
  const auto model = ModelConfig::FluxDev();
  const auto topo = Topology::H100Node();
  costmodel::StepCostModel cost(&model, &topo);
  const auto table = LatencyTable::Profile(cost, 4, 20, 5);

  core::TetriScheduler builtin(&table);
  core::TetriOptions dp_opts;
  dp_opts.packer = PackerKind::kDp;
  core::TetriScheduler via_dp(&table, dp_opts);

  EXPECT_EQ(builtin.Name(), "TetriServe");
  EXPECT_EQ(via_dp.Name(), builtin.Name());

  for (int seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    serving::RequestTracker tracker;
    const TimeUs now = 1000000;
    FillRandomQueue(&tracker, &rng, now);
    auto schedulable = tracker.Schedulable(now);
    serving::ScheduleContext ctx;
    ctx.now = now;
    ctx.round_end = now + builtin.RoundDurationUs();
    ctx.free_gpus =
        cluster::FullMask(1 + static_cast<int>(rng.NextBelow(8)));
    ctx.schedulable = &schedulable;
    ctx.topology = &topo;
    ctx.table = &table;

    const auto base_plan = builtin.Plan(ctx);
    ExpectPlansIdentical(base_plan, via_dp.Plan(ctx));
  }
}

/** End-to-end audited runs: a progressive scheduler (pow2 table, and
 * extended table with non-pow2 placement) serves full mixed traces
 * with zero invariant violations and full request conservation. */
class ProgressiveServing
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
};

TEST_P(ProgressiveServing, AuditedRunIsCleanAndConserving)
{
  const auto [model_idx, non_pow2] = GetParam();
  const auto model =
      model_idx == 0 ? ModelConfig::FluxDev() : ModelConfig::Sd3Medium();
  const auto topo = Topology::H100Node();

  audit::Auditor auditor;
  audit::InstallStandardCheckers(auditor, non_pow2);

  serving::ServingConfig config;
  config.extended_degrees = non_pow2;
  config.auditor = &auditor;
  serving::ServingSystem system(&topo, &model, config);
  EXPECT_EQ(system.table().extended_degrees(), non_pow2);

  core::TetriOptions opts;
  opts.packer = PackerKind::kProgressive;
  opts.allow_non_pow2 = non_pow2;
  core::TetriScheduler scheduler(&system.table(), opts);

  workload::TraceSpec spec;
  spec.num_requests = 80;
  spec.slo_scale = 1.2;
  if (model_idx == 1) spec.mix = workload::ResolutionMix::Skewed();
  const auto trace = workload::BuildTrace(spec);
  const auto result = system.Run(&scheduler, trace);

  EXPECT_EQ(auditor.violations().size(), 0u)
      << auditor.Summary();
  // Conservation: every admitted request has a terminal record.
  EXPECT_EQ(result.records.size(), trace.requests.size());
  int terminal = 0;
  for (const auto& record : result.records) {
    if (record.outcome != metrics::Outcome::kUnfinished) ++terminal;
  }
  EXPECT_EQ(terminal, static_cast<int>(trace.requests.size()));
  // The run made real progress.
  EXPECT_GT(result.Sar().met, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ProgressiveServing,
    ::testing::Combine(::testing::Values(0, 1),
                       ::testing::Values(false, true)));

/** Fragmentation scenario: one failed GPU leaves 7 healthy. The
 * extended-degree progressive scheduler must attain at least the SLO
 * attainment of the pow2 DP — the headline claim of non-pow2 SP. */
TEST(SchedulerPackerDifferential, ProgressiveAttainmentOnFragmentedNode)
{
  const auto model = ModelConfig::FluxDev();
  const auto topo = Topology::H100Node();

  workload::TraceSpec spec;
  spec.num_requests = 60;
  spec.slo_scale = 1.1;
  const auto trace = workload::BuildTrace(spec);

  // Fail one GPU before the first arrival and keep it down for the
  // whole run: every round packs into a 7-GPU free set.
  auto make_chaos = [&]() {
    chaos::ChaosConfig config;
    chaos::ScriptedFailure failure;
    failure.at_us = 0;
    failure.gpu = 7;
    failure.recover_after_us = UsFromSec(10000.0);
    config.scripted.push_back(failure);
    return config;
  };

  auto run = [&](bool extended, PackerKind packer) {
    chaos::ChaosController controller(make_chaos());
    serving::ServingConfig config;
    config.extended_degrees = extended;
    config.on_run_setup = controller.Hook();
    serving::ServingSystem system(&topo, &model, config);
    core::TetriOptions opts;
    opts.packer = packer;
    opts.allow_non_pow2 = extended;
    core::TetriScheduler scheduler(&system.table(), opts);
    return system.Run(&scheduler, trace).Sar();
  };

  const auto dp_sar = run(false, PackerKind::kDp);
  const auto progressive_sar = run(true, PackerKind::kProgressive);
  EXPECT_GE(progressive_sar.met, dp_sar.met)
      << "progressive attained " << progressive_sar.met << "/"
      << progressive_sar.total << " vs dp " << dp_sar.met << "/"
      << dp_sar.total << " on the fragmented node";
}

}  // namespace
}  // namespace tetri::packers
