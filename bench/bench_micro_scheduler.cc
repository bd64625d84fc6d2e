/**
 * @file
 * Microbenchmarks of TetriServe's control plane: the group-knapsack DP
 * (Algorithm 1), deadline-aware allocation, round-aware planning, the
 * Stage-1 staircase (cold build and warm lookups), a full Plan()
 * invocation at varying queue depths (also over a mostly-late
 * backlog), and the engine's jittered span
 * per dispatch — substantiating
 * the paper's claim of millisecond control-plane latency (§5, Table 6).
 *
 * Two modes:
 *  - default: google-benchmark micro suite (BM_*).
 *  - `--json=PATH [--smoke]`: the scheduler regression harness. For a
 *    (queue depth x GPU count) matrix it times steady-state Plan()
 *    calls and writes their p50/p99 latencies to PATH
 *    (BENCH_scheduler.json). `--smoke` shrinks the sample counts for
 *    CI.
 *
 * Chaos knobs (compose with either mode): `--chaos-seed=N` runs one
 * deterministic failure/recovery serving cycle before the benchmark
 * proper, injecting `--fail-gpus=K` (default 1) seeded GPU failures
 * through tetri::chaos, and reports the recovery accounting (a
 * "chaos" block in the JSON when `--json=` is active). CI's
 * bench-smoke job uses this to exercise the recovery path end to end.
 *
 * The chaos cycle always runs fully traced (tetri::trace): the JSON
 * gains a "trace" block of virtual-time percentiles (step latency,
 * pack utilization, admission slack) that is bit-identical across
 * identical runs, and `--trace-out=PATH` additionally writes the
 * cycle's Perfetto/Chrome timeline JSON for inspection.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "serving/system.h"
#include "trace/perfetto.h"
#include "trace/summary.h"
#include "trace/trace.h"

#include "core/allocation.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/request_tracker.h"
#include "util/check.h"
#include "util/jitter.h"
#include "util/rng.h"
#include "util/rounding.h"
#include "workload/slo.h"

namespace tetri {
namespace {

struct Fixture {
  Fixture()
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

Fixture& F()
{
  static Fixture fixture;
  return fixture;
}

std::vector<packers::PackGroup>
RandomGroups(int count, Rng& rng)
{
  std::vector<packers::PackGroup> groups;
  for (int g = 0; g < count; ++g) {
    packers::PackGroup group;
    group.id = g;
    group.survives_if_idle = rng.NextDouble() < 0.5;
    for (int o = 0; o < 2; ++o) {
      packers::PackOption opt;
      opt.degree = 1 << rng.NextBelow(4);
      opt.steps = 1 + static_cast<int>(rng.NextBelow(8));
      opt.survives = rng.NextDouble() < 0.7;
      opt.work = rng.NextDouble();
      group.options.push_back(opt);
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

void
BM_PackRound(benchmark::State& state)
{
  Rng rng(7);
  auto groups = RandomGroups(static_cast<int>(state.range(0)), rng);
  packers::PackScratch scratch;
  packers::PackResult result;
  for (auto _ : state) {
    packers::PackRoundInto(groups.data(), static_cast<int>(groups.size()),
                           8, &scratch, &result);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PackRound)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void
BM_FindPlan(benchmark::State& state)
{
  const auto& table = F().table;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::FindPlan(
        table, costmodel::Resolution::k2048, 50, 4.5e6));
  }
}
BENCHMARK(BM_FindPlan);

void
BM_RoundAwarePlan(benchmark::State& state)
{
  std::vector<core::RoundDegreeInfo> info;
  core::BuildRoundDegreeInfo(F().table, costmodel::Resolution::k2048, 3e5,
                             &info);
  core::AllocationPlan plan;
  for (auto _ : state) {
    core::RoundAwarePlanInto(info, 50, 4.5e6, 3e5, &plan);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_RoundAwarePlan);

/** Stage 1 on its own: the round-aware planner's staircase for one
 * (resolution, remaining steps) key, probed over an even grid of
 * slacks from 0 to 1.5x its widest breakpoint, visited in a fixed
 * shuffled order (Stage 1 meets keys in queue order, not slack
 * order). */
struct StaircaseKey {
  std::vector<core::RoundDegreeInfo> info;
  std::vector<double> slacks;
  int steps = 0;
  double tau = 0.0;

  StaircaseKey(int res_index, int remaining_steps, int num_slacks)
      : steps(remaining_steps),
        tau(static_cast<double>(
            core::TetriScheduler::ComputeRoundDuration(F().table, 5)))
  {
    core::BuildRoundDegreeInfo(F().table,
                               costmodel::ResolutionFromIndex(res_index),
                               tau, &info);
    core::PlanStaircase probe;
    core::BuildPlanStaircase(info, steps, tau, &probe);
    const double widest = probe.thresholds.back();
    for (int i = 0; i < num_slacks; ++i) {
      slacks.push_back(1.5 * widest * i / num_slacks);
    }
    Rng rng(static_cast<std::uint64_t>(num_slacks));
    for (int i = num_slacks - 1; i > 0; --i) {
      std::swap(slacks[i], slacks[rng.NextBelow(i + 1)]);
    }
  }
};

/** Build a staircase and answer its first lookups: the Stage-1 cost a
 * (resolution, steps) key pays once per round window. */
void
BM_StaircaseCold(benchmark::State& state)
{
  const StaircaseKey key(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1)), 8);
  core::PlanStaircase staircase;
  for (auto _ : state) {
    core::BuildPlanStaircase(key.info, key.steps, key.tau, &staircase);
    for (double slack : key.slacks) {
      benchmark::DoNotOptimize(
          &core::ResolveRoundPlan(&staircase, key.info, slack));
    }
  }
}
BENCHMARK(BM_StaircaseCold)->ArgsProduct({{0, 2, 3}, {10, 50}});

/** Warm Stage-1 lookups over a slack grid: the per-request cost of
 * Stage 1 once a key's breakpoints are resolved. */
void
BM_Stage1Lookup(benchmark::State& state)
{
  const StaircaseKey key(static_cast<int>(state.range(0)),
                         static_cast<int>(state.range(1)), 64);
  core::PlanStaircase staircase;
  core::BuildPlanStaircase(key.info, key.steps, key.tau, &staircase);
  for (double slack : key.slacks) {
    core::ResolveRoundPlan(&staircase, key.info, slack);
  }
  for (auto _ : state) {
    for (double slack : key.slacks) {
      benchmark::DoNotOptimize(
          &core::ResolveRoundPlan(&staircase, key.info, slack));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(key.slacks.size()));
}
BENCHMARK(BM_Stage1Lookup)->ArgsProduct({{0, 2, 3}, {10, 50}});

/** Shared queue construction for BM_FullPlan and the regression
 * harness: `depth` mixed-resolution requests with randomized SLO
 * scales, all pending at t=0. */
void
FillQueue(serving::RequestTracker* tracker, int depth)
{
  Rng rng(depth);
  for (int i = 0; i < depth; ++i) {
    workload::TraceRequest meta;
    meta.id = i;
    meta.resolution = costmodel::ResolutionFromIndex(
        static_cast<int>(rng.NextBelow(4)));
    meta.arrival_us = 0;
    meta.deadline_us = static_cast<TimeUs>(
        workload::SloPolicy::BaseTargetSec(meta.resolution) * 1e6 *
        rng.NextRange(0.9, 1.5));
    meta.num_steps = 50;
    tracker->Admit(meta);
  }
}

/** Fraction of @p schedulable that Stage 1 finds definitely late at
 * @p now: the round-aware planner fits no trajectory into the
 * request's effective slack (deadline less VAE decode and margin). */
double
LateFraction(const core::TetriScheduler& sched,
             const std::vector<serving::Request*>& schedulable, TimeUs now)
{
  const costmodel::LatencyTable& table = F().table;
  const double tau = static_cast<double>(sched.RoundDurationUs());
  std::vector<core::RoundDegreeInfo> info;
  core::AllocationPlan plan;
  int late = 0;
  for (const serving::Request* req : schedulable) {
    const serving::RequestMeta& meta = req->meta;
    const double budget =
        static_cast<double>(meta.deadline_us - meta.arrival_us);
    const double slack = static_cast<double>(meta.deadline_us) -
                         table.VaeDecodeUs(meta.resolution) -
                         sched.options().deadline_margin_frac * budget -
                         static_cast<double>(now);
    core::BuildRoundDegreeInfo(table, meta.resolution, tau, &info);
    core::RoundAwarePlanInto(info, req->RemainingSteps(),
                             std::max(slack, 0.0), tau, &plan);
    if (!plan.feasible) ++late;
  }
  return static_cast<double>(late) /
         static_cast<double>(schedulable.size());
}

/** Steady-state Plan() over FillQueue(depth) on 8 GPUs at @p now;
 * reports the queue's Stage-1 late fraction as `late_frac`. */
void
RunFullPlan(benchmark::State& state, TimeUs now)
{
  const int depth = static_cast<int>(state.range(0));
  auto& fixture = F();
  core::TetriScheduler sched(&fixture.table);

  serving::RequestTracker tracker;
  FillQueue(&tracker, depth);
  auto schedulable = tracker.Schedulable(now);
  serving::ScheduleContext ctx;
  ctx.now = now;
  ctx.round_end = now + sched.RoundDurationUs();
  ctx.free_gpus = cluster::FullMask(8);
  ctx.schedulable = &schedulable;
  ctx.topology = &fixture.topo;
  ctx.table = &fixture.table;

  const double late_frac = LateFraction(sched, schedulable, now);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.Plan(ctx));
  }
  state.counters["late_frac"] = late_frac;
}

void
BM_FullPlan(benchmark::State& state)
{
  RunFullPlan(state, 0);
}
BENCHMARK(BM_FullPlan)
    ->Arg(2)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(4096);

// A hopeless backlog: 2.5 s into the queue's life, ~95% of entries are
// definitely late at Stage 1, as on replay_burst. Depth 52 is
// replay_burst's mean queue.
constexpr TimeUs kLateBacklogNowUs = 2'500'000;

void
BM_FullPlanLateBacklog(benchmark::State& state)
{
  RunFullPlan(state, kLateBacklogNowUs);
  TETRI_CHECK_MSG(state.counters["late_frac"] >= 0.9,
                  "late backlog is only " << state.counters["late_frac"]
                                          << " late");
}
BENCHMARK(BM_FullPlanLateBacklog)->Arg(52)->Arg(256)->Arg(1024);

// One dispatch's jittered span, as the engine prices it: a 95 ms step
// mean and a cv of 0.5%, inside Table 1's profiled range. The exact
// variant is the per-step libm loop util::JitteredSpanUs falls back
// to; per_step is the figure to compare. The step counts are
// replay_long's common dispatch lengths (1, 5, 13, 20) and whole
// requests (28, 50).
constexpr double kJitterMeanUs = 95'000.0;
constexpr double kJitterCv = 0.005;

void
SetTimePerStep(benchmark::State& state, int steps)
{
  state.counters["per_step"] = benchmark::Counter(
      static_cast<double>(steps),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void
BM_JitterSpanExact(benchmark::State& state)
{
  const int steps = static_cast<int>(state.range(0));
  Rng rng(17);
  for (auto _ : state) {
    double exec_us = 0.0;
    for (int s = 0; s < steps; ++s) {
      exec_us +=
          kJitterMeanUs * std::max(0.5, rng.NextGaussian(1.0, kJitterCv));
    }
    benchmark::DoNotOptimize(util::RoundUs(exec_us));
  }
  SetTimePerStep(state, steps);
}
BENCHMARK(BM_JitterSpanExact)
    ->Arg(1)
    ->Arg(4)
    ->Arg(5)
    ->Arg(13)
    ->Arg(20)
    ->Arg(28)
    ->Arg(50);

void
BM_JitterSpanCertified(benchmark::State& state)
{
  const int steps = static_cast<int>(state.range(0));
  Rng rng(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::JitteredSpanUs(
        &rng, kJitterMeanUs, kJitterCv, steps, nullptr));
  }
  SetTimePerStep(state, steps);
}
BENCHMARK(BM_JitterSpanCertified)
    ->Arg(1)
    ->Arg(4)
    ->Arg(5)
    ->Arg(13)
    ->Arg(20)
    ->Arg(28)
    ->Arg(50);

// ---------------------------------------------------------------
// Chaos cycle (--chaos-seed=N [--fail-gpus=K])
// ---------------------------------------------------------------

struct ChaosCycle {
  std::uint64_t seed = 0;
  int fail_gpus = 0;
  int gpu_failures = 0;
  int gpu_recoveries = 0;
  int aborted = 0;
  int requeues = 0;
  int dropped = 0;
  int cancelled = 0;
  double lost_gpu_us = 0.0;
  std::size_t trace_events = 0;
  /** Virtual-time percentile summary of the cycle's decision trace. */
  trace::TraceSummary summary;
};

/** One deterministic failure/recovery serving cycle through
 * tetri::chaos: seeded GPU failures against a short FLUX trace on the
 * fixture node, with the recovery accounting surfaced for CI. The
 * cycle runs fully traced; @p trace_out, when non-empty, receives the
 * Perfetto timeline JSON. */
ChaosCycle
RunChaosCycle(std::uint64_t seed, int fail_gpus,
              const std::string& trace_out)
{
  chaos::ChaosConfig config;
  config.seed = seed;
  config.gpu_failures = fail_gpus;
  config.mean_time_to_recover_sec = 1.0;
  chaos::ChaosController controller(config);

  trace::Tracer tracer;
  trace::PerfettoSink perfetto;
  tracer.AddSink(&perfetto);

  serving::ServingConfig sc;
  sc.on_run_setup = controller.Hook();
  sc.trace = &tracer;
  serving::ServingSystem system(&F().topo, &F().model, sc);
  core::TetriScheduler scheduler(&system.table());

  workload::TraceSpec spec;
  spec.num_requests = 40;
  spec.slo_scale = 1.5;
  spec.seed = seed + 1;
  const auto result = system.Run(&scheduler, workload::BuildTrace(spec));

  const auto events = perfetto.events();
  if (!trace_out.empty()) {
    TETRI_CHECK_MSG(trace::WritePerfettoFile(events,
                                             F().topo.num_gpus(),
                                             trace_out),
                    "cannot write trace JSON to " << trace_out);
    std::printf("chaos cycle trace: %zu events -> %s\n", events.size(),
                trace_out.c_str());
  }

  ChaosCycle cycle;
  cycle.summary = trace::Summarize(events);
  cycle.seed = seed;
  cycle.fail_gpus = fail_gpus;
  cycle.gpu_failures = result.recovery.gpu_failures;
  cycle.gpu_recoveries = result.recovery.gpu_recoveries;
  cycle.aborted = result.recovery.aborted_assignments;
  cycle.requeues = result.recovery.requeues;
  cycle.dropped = result.num_dropped;
  cycle.cancelled = result.num_cancelled;
  cycle.lost_gpu_us = result.recovery.lost_gpu_us;
  cycle.trace_events = controller.trace().size();
  TETRI_CHECK_MSG(cycle.gpu_failures >= 1,
                  "chaos cycle injected no GPU failure");
  std::printf("chaos cycle: seed=%llu failures=%d recoveries=%d "
              "aborted=%d requeues=%d dropped=%d cancelled=%d "
              "lost_gpu_us=%.0f events=%zu\n",
              static_cast<unsigned long long>(cycle.seed),
              cycle.gpu_failures, cycle.gpu_recoveries, cycle.aborted,
              cycle.requeues, cycle.dropped, cycle.cancelled,
              cycle.lost_gpu_us, cycle.trace_events);
  return cycle;
}

// ---------------------------------------------------------------
// Regression harness (--json=PATH [--smoke])
// ---------------------------------------------------------------

struct CellResult {
  int depth = 0;
  int gpus = 0;
  int samples = 0;
  double fast_p50_us = 0.0;
  double fast_p99_us = 0.0;
};

double
Percentile(std::vector<double>* samples, double p)
{
  std::sort(samples->begin(), samples->end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(samples->size() - 1));
  return (*samples)[idx];
}

/** Time `iters` steady-state Plan() calls, returning per-call wall
 * microseconds. The first `warmup` calls are discarded so Plan() is
 * measured with a warm arena and warm memo caches (its contract). */
std::vector<double>
TimePlans(core::TetriScheduler* sched, serving::ScheduleContext* ctx,
          int warmup, int iters)
{
  using clock = std::chrono::steady_clock;
  std::vector<double> out;
  out.reserve(iters);
  for (int i = 0; i < warmup + iters; ++i) {
    const auto start = clock::now();
    auto plan = sched->Plan(*ctx);
    const auto stop = clock::now();
    benchmark::DoNotOptimize(plan);
    if (i >= warmup) {
      out.push_back(
          std::chrono::duration<double, std::micro>(stop - start)
              .count());
    }
  }
  return out;
}

CellResult
RunCell(int depth, int gpus, int warmup, int iters)
{
  auto& fixture = F();
  core::TetriScheduler sched(&fixture.table);

  serving::RequestTracker tracker;
  FillQueue(&tracker, depth);
  auto schedulable = tracker.Schedulable(0);
  serving::ScheduleContext ctx;
  ctx.now = 0;
  ctx.round_end = sched.RoundDurationUs();
  ctx.free_gpus = cluster::FullMask(gpus);
  ctx.schedulable = &schedulable;
  ctx.topology = &fixture.topo;
  ctx.table = &fixture.table;

  auto samples = TimePlans(&sched, &ctx, warmup, iters);

  CellResult cell;
  cell.depth = depth;
  cell.gpus = gpus;
  cell.samples = iters;
  cell.fast_p50_us = Percentile(&samples, 0.50);
  cell.fast_p99_us = Percentile(&samples, 0.99);
  return cell;
}

int
RunRegression(const std::string& json_path, bool smoke,
              const ChaosCycle* chaos)
{
  const int warmup = smoke ? 5 : 20;
  const int iters = smoke ? 40 : 400;
  const int depths[] = {8, 16, 32, 64, 128, 256};
  const int gpu_counts[] = {2, 4, 8};

  std::vector<CellResult> cells;
  std::printf("%8s %6s %12s %12s\n", "depth", "gpus", "fast_p50",
              "fast_p99");
  for (int gpus : gpu_counts) {
    for (int depth : depths) {
      auto cell = RunCell(depth, gpus, warmup, iters);
      std::printf("%8d %6d %10.1fus %10.1fus\n", cell.depth, cell.gpus,
                  cell.fast_p50_us, cell.fast_p99_us);
      cells.push_back(cell);
    }
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmark\": \"tetri_scheduler_plan\",\n");
  std::fprintf(out, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(out, "  \"configs\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    std::fprintf(out,
                 "    {\"queue_depth\": %d, \"num_gpus\": %d, "
                 "\"samples\": %d, \"fast_p50_us\": %.3f, "
                 "\"fast_p99_us\": %.3f}%s\n",
                 c.depth, c.gpus, c.samples, c.fast_p50_us,
                 c.fast_p99_us, i + 1 < cells.size() ? "," : "");
  }
  const bool has_chaos = chaos != nullptr;
  std::fprintf(out, "  ]%s\n", has_chaos ? "," : "");
  if (has_chaos) {
    std::fprintf(out,
                 "  \"chaos\": {\"seed\": %llu, \"fail_gpus\": %d, "
                 "\"gpu_failures\": %d, \"gpu_recoveries\": %d, "
                 "\"aborted\": %d, \"requeues\": %d, \"dropped\": %d, "
                 "\"cancelled\": %d, \"lost_gpu_us\": %.1f, "
                 "\"trace_events\": %zu},\n",
                 static_cast<unsigned long long>(chaos->seed),
                 chaos->fail_gpus, chaos->gpu_failures,
                 chaos->gpu_recoveries, chaos->aborted, chaos->requeues,
                 chaos->dropped, chaos->cancelled, chaos->lost_gpu_us,
                 chaos->trace_events);
    // Every field below is derived from virtual-time trace events, so
    // this block is bit-identical across identical runs — a regression
    // test pins that stability.
    const trace::TraceSummary& s = chaos->summary;
    std::fprintf(
        out,
        "  \"trace\": {\"events\": %llu, \"rounds\": %d, "
        "\"dispatches\": %d, \"steps\": %d, \"drops\": %d, "
        "\"aborts\": %d, \"gpu_failures\": %d, "
        "\"step_p50_us\": %.3f, \"step_p90_us\": %.3f, "
        "\"step_p99_us\": %.3f, \"pack_util_p50\": %.6f, "
        "\"admission_slack_p50_us\": %.3f}\n",
        static_cast<unsigned long long>(s.num_events), s.rounds,
        s.dispatches, s.steps, s.drops, s.aborts, s.gpu_failures,
        s.step_latency_us.Percentile(50),
        s.step_latency_us.Percentile(90),
        s.step_latency_us.Percentile(99),
        s.pack_utilization.Percentile(50),
        s.admission_slack_us.Percentile(50));
  }
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace tetri

int
main(int argc, char** argv)
{
  std::string json_path;
  std::string trace_out;
  bool smoke = false;
  bool chaos = false;
  std::uint64_t chaos_seed = 1;
  int fail_gpus = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--chaos-seed=", 13) == 0) {
      chaos = true;
      chaos_seed = std::strtoull(argv[i] + 13, nullptr, 10);
    } else if (std::strncmp(argv[i], "--fail-gpus=", 12) == 0) {
      chaos = true;
      fail_gpus = std::atoi(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
    }
  }
  tetri::ChaosCycle cycle;
  if (chaos) {
    cycle = tetri::RunChaosCycle(chaos_seed, fail_gpus, trace_out);
  }
  if (!json_path.empty()) {
    return tetri::RunRegression(json_path, smoke,
                                chaos ? &cycle : nullptr);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
