/**
 * @file
 * The two trace-replay workloads. Both replay generated traces through
 * ServingSystem::Run under TetriScheduler with default options; they
 * differ in which layer dominates the host cost (see README.md):
 *
 *  - replay_long: three 16k-request Poisson traces. The request tracker's
 *    scans over everything ever admitted dominate; Plan() sees a queue
 *    of one or two requests.
 *  - replay_burst: many ~1k-request MMPP traces on a fragmented 4xA40
 *    fabric with seeded GPU failures. The planner and the abort/requeue
 *    paths dominate; the tracker stays small.
 *
 * Untraced runs measure the end-to-end metrics. The traced run replays
 * each trace twice, plain and then with the probes attached, checks the
 * two produce identical records, and reports the per-layer split.
 */
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "audit/checkers.h"
#include "chaos/chaos.h"
#include "cluster/topology.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "metrics/histogram.h"
#include "metrics/metrics.h"
#include "probes.h"
#include "serving/system.h"
#include "workload/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tetri::metrics::Outcome;
using tetri::metrics::RequestRecord;
using tetri::serving::ServingResult;
using tetri::serving::ServingSystem;

/** Set-up is repeated and its median reported, so one slow allocation
 * does not move setup_s. */
constexpr int kSetupRepeats = 5;
/** Consecutive-seed traces per run. Several long traces average out
 * how much one trace's load mix moves its cost and its latency
 * percentiles. */
constexpr int kLongTraces = 3;
/** Long enough that bookkeeping dominates and the working set exceeds
 * L2, short enough (~4.3 s a replay on 4 cores) that a 30 s run replays
 * every trace twice and keeps the fastest pass. */
constexpr int kLongRequests = 16000;
constexpr int kBurstTraces = 48;

struct ReplayConfig {
  tetri::costmodel::ModelConfig model;
  tetri::cluster::Topology topology;
  std::vector<tetri::workload::TraceSpec> specs;
  int gpu_failures_per_trace = 0;
};

ReplayConfig
LongConfig(std::uint64_t seed)
{
  ReplayConfig c{tetri::costmodel::ModelConfig::FluxDev(),
                 tetri::cluster::Topology::H100Node(8),
                 {},
                 0};
  for (int k = 0; k < kLongTraces; ++k) {
    tetri::workload::TraceSpec spec;
    spec.num_requests = kLongRequests;
    spec.arrival_rate_per_min = 12.0;
    spec.slo_scale = 1.0;
    spec.mix = tetri::workload::ResolutionMix::Skewed();
    spec.seed = seed * kLongTraces + static_cast<std::uint64_t>(k) + 1;
    c.specs.push_back(spec);
  }
  return c;
}

ReplayConfig
BurstConfig(std::uint64_t seed)
{
  ReplayConfig c{tetri::costmodel::ModelConfig::Sd3Medium(),
                 tetri::cluster::Topology::A40Node(4),
                 {},
                 10};
  for (int k = 0; k < kBurstTraces; ++k) {
    tetri::workload::TraceSpec spec;
    spec.num_requests = 1000;
    spec.arrival_rate_per_min = 120.0;
    spec.slo_scale = 1.5;
    spec.mix = tetri::workload::ResolutionMix::Uniform();
    spec.bursty = true;
    spec.seed = seed * kBurstTraces + static_cast<std::uint64_t>(k) + 1;
    c.specs.push_back(spec);
  }
  return c;
}

/** Forwards ServingConfig::on_run_setup to the chaos controller of the
 * trace being replayed (the config is fixed at construction). */
struct ChaosSlot {
  tetri::chaos::ChaosController* current = nullptr;
};

tetri::serving::ServingConfig
MakeConfig(const ReplayConfig& c, ChaosSlot* slot)
{
  tetri::serving::ServingConfig config;
  if (c.gpu_failures_per_trace > 0) {
    config.on_run_setup = [slot](const tetri::serving::RunContext& ctx) {
      if (slot->current != nullptr) slot->current->Attach(ctx);
    };
  }
  return config;
}

tetri::chaos::ChaosConfig
ChaosFor(const ReplayConfig& c, std::size_t k)
{
  tetri::chaos::ChaosConfig chaos;
  chaos.seed = c.specs[k].seed;
  chaos.gpu_failures = c.gpu_failures_per_trace;
  return chaos;
}

std::vector<tetri::workload::Trace>
BuildTraces(const ReplayConfig& c)
{
  std::vector<tetri::workload::Trace> traces;
  traces.reserve(c.specs.size());
  for (const auto& spec : c.specs) {
    traces.push_back(tetri::workload::BuildTrace(spec));
  }
  return traces;
}

/** Everything a replay decides, so traced and untraced runs compare. */
std::uint64_t
ResultDigest(const ServingResult& r)
{
  Digest d;
  for (const RequestRecord& rec : r.records) {
    d.Add(static_cast<std::uint64_t>(rec.id));
    d.Add(static_cast<std::uint64_t>(rec.completion_us));
    d.Add(static_cast<std::uint64_t>(rec.outcome));
    d.Add(static_cast<std::uint64_t>(rec.drop_reason));
    d.Add(static_cast<std::uint64_t>(rec.steps_executed));
    d.Add(static_cast<std::uint64_t>(rec.failure_retries));
    d.AddDouble(rec.gpu_time_us);
    d.AddDouble(rec.degree_step_sum);
  }
  d.AddDouble(r.busy_gpu_us);
  d.Add(static_cast<std::uint64_t>(r.makespan_us));
  d.Add(static_cast<std::uint64_t>(r.num_scheduler_calls));
  d.Add(static_cast<std::uint64_t>(r.num_assignments));
  d.Add(static_cast<std::uint64_t>(r.num_reconfigs));
  d.Add(static_cast<std::uint64_t>(r.num_latent_transfers));
  d.Add(static_cast<std::uint64_t>(r.latent_transfer_us));
  d.Add(static_cast<std::uint64_t>(r.recovery.aborted_assignments));
  return d.value();
}

/** Conservation: every offered request ends completed, dropped or
 * cancelled, and nothing completes before it arrives. */
void
CheckConservation(const ServingResult& r, std::size_t offered,
                  const std::string& where, Report* report)
{
  std::size_t completed = 0;
  std::size_t dropped = 0;
  std::size_t cancelled = 0;
  bool causal = true;
  for (const RequestRecord& rec : r.records) {
    if (rec.outcome == Outcome::kCompleted) ++completed;
    if (rec.outcome == Outcome::kDropped) ++dropped;
    if (rec.outcome == Outcome::kCancelled) ++cancelled;
    if (rec.Completed() && rec.completion_us < rec.arrival_us) causal = false;
  }
  report->Check(r.records.size() == offered &&
                    completed + dropped + cancelled == offered,
                where + ": completed + dropped + cancelled != offered");
  report->Check(causal, where + ": a request completed before arriving");
}

/** First-pass outcomes summed over a run's traces. */
struct Totals {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t met = 0;
  std::uint64_t dropped = 0;
  std::uint64_t cancelled = 0;
  double busy_gpu_us = 0.0;
  double capacity_gpu_us = 0.0;
  std::vector<double> latency_s;

  void Add(const ServingResult& r, int num_gpus)
  {
    const tetri::metrics::SarSummary sar = r.Sar();
    offered += r.records.size();
    met += static_cast<std::uint64_t>(sar.met);
    for (const RequestRecord& rec : r.records) {
      if (rec.outcome == Outcome::kCompleted) {
        ++completed;
        latency_s.push_back(tetri::SecFromUs(rec.LatencyUs()));
      }
    }
    dropped += static_cast<std::uint64_t>(r.num_dropped);
    cancelled += static_cast<std::uint64_t>(r.num_cancelled);
    busy_gpu_us += r.busy_gpu_us;
    capacity_gpu_us += static_cast<double>(r.makespan_us) * num_gpus;
  }
};

struct Replayed {
  ServingResult result;
  double wall_s = 0.0;
};

/** One untraced replay under a fresh scheduler. */
Replayed
ReplayPlain(const ReplayConfig& c, std::size_t k, ServingSystem& system,
            ChaosSlot* slot, const tetri::workload::Trace& trace)
{
  tetri::core::TetriScheduler scheduler(&system.table());
  tetri::chaos::ChaosController chaos(ChaosFor(c, k));
  slot->current = &chaos;
  Replayed out;
  const std::int64_t start = NowNs();
  out.result = system.Run(&scheduler, trace);
  out.wall_s = SecondsSince(start);
  slot->current = nullptr;
  return out;
}

/** A run's traces and profiled system. Set-up runs kSetupRepeats times,
 * keeping the last result and every repetition's timings. */
struct Prepared {
  std::vector<tetri::workload::Trace> traces;
  std::unique_ptr<ServingSystem> system;
  std::vector<double> build_s;
  std::vector<double> profile_s;
  std::vector<double> total_s;
};

Prepared
Prepare(const ReplayConfig& c, ChaosSlot* slot)
{
  Prepared p;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::int64_t start = NowNs();
    std::vector<tetri::workload::Trace> built = BuildTraces(c);
    const std::int64_t built_ns = NowNs();
    auto profiled = std::make_unique<ServingSystem>(
        &c.topology, &c.model, MakeConfig(c, slot));
    const std::int64_t end = NowNs();
    p.build_s.push_back(static_cast<double>(built_ns - start) * 1e-9);
    p.profile_s.push_back(static_cast<double>(end - built_ns) * 1e-9);
    p.total_s.push_back(static_cast<double>(end - start) * 1e-9);
    p.traces = std::move(built);
    p.system = std::move(profiled);
  }
  return p;
}

Report
RunEndToEnd(const ReplayConfig& c, const RunOptions& options)
{
  Report report;
  ChaosSlot slot;
  Prepared prepared = Prepare(c, &slot);
  const std::vector<tetri::workload::Trace>& traces = prepared.traces;
  ServingSystem& system = *prepared.system;

  // Every trace is replayed once; passes over the set repeat while the
  // next replay still fits in the time budget. A repeat must reproduce
  // the first pass's records exactly.
  std::vector<std::vector<double>> walls(traces.size());
  std::vector<std::uint64_t> digests(traces.size(), 0);
  Totals totals;
  const std::int64_t start = NowNs();
  std::size_t replays = 0;
  for (;; ++replays) {
    const std::size_t k = replays % traces.size();
    const bool first = replays < traces.size();
    if (!first && SecondsSince(start) + walls[k].back() > options.seconds) {
      break;
    }
    const Replayed run = ReplayPlain(c, k, system, &slot, traces[k]);
    walls[k].push_back(run.wall_s);
    report.attempted += traces[k].requests.size();
    const std::uint64_t digest = ResultDigest(run.result);
    if (first) {
      digests[k] = digest;
      CheckConservation(run.result, traces[k].requests.size(),
                        "trace " + std::to_string(k), &report);
      totals.Add(run.result, c.topology.num_gpus());
    } else {
      report.Check(digest == digests[k],
                   "trace " + std::to_string(k) +
                       ": replay is not deterministic");
    }
  }

  // Each trace's host cost is its fastest pass. The machine's other
  // work only ever adds time, and on a shared 4-core box it came and
  // went within a run (pass walls of one run spread by ~40%), while the
  // fastest pass repeated within a few percent across runs.
  double requests = 0.0;
  double wall = 0.0;
  for (std::size_t k = 0; k < traces.size(); ++k) {
    requests += static_cast<double>(traces[k].requests.size());
    wall += *std::min_element(walls[k].begin(), walls[k].end());
  }
  report.Set("req_per_s", requests / wall);
  report.Set("slo_attainment", static_cast<double>(totals.met) /
                                   static_cast<double>(totals.offered));
  report.Set("latency_p50_ms", Percentile(totals.latency_s, 50) * 1e3);
  report.Set("served_frac", static_cast<double>(totals.completed) /
                                static_cast<double>(totals.offered));
  report.Set("setup_s", Median(prepared.total_s));

  Digest all;
  for (std::uint64_t d : digests) all.Add(d);
  char line[160];
  std::snprintf(line, sizeof(line),
                "%zu traces, %zu replays, records digest %016llx, "
                "gpu_util %.4f",
                traces.size(), replays,
                static_cast<unsigned long long>(all.value()),
                totals.busy_gpu_us / totals.capacity_gpu_us);
  report.notes.push_back(line);
  return report;
}

/** Mean of each latency part over the requests at or above the p99
 * latency: what the tail is made of. */
LatencyParts
TailComposition(const std::vector<LatencyParts>& parts)
{
  std::vector<double> latency;
  latency.reserve(parts.size());
  for (const LatencyParts& p : parts) latency.push_back(p.latency);
  const double p99 = Percentile(latency, 99);
  LatencyParts sum;
  double n = 0.0;
  for (const LatencyParts& p : parts) {
    if (p.latency < p99) continue;
    sum.queue_wait += p.queue_wait;
    sum.transfer_stall += p.transfer_stall;
    sum.execution += p.execution;
    sum.tail += p.tail;
    n += 1.0;
  }
  if (n > 0.0) {
    sum.queue_wait /= n;
    sum.transfer_stall /= n;
    sum.execution /= n;
    sum.tail /= n;
  }
  sum.latency = p99;
  return sum;
}

Report
RunTraced(const ReplayConfig& c)
{
  Report report;
  ChaosSlot slot;
  Prepared prepared = Prepare(c, &slot);
  const std::vector<tetri::workload::Trace>& traces = prepared.traces;
  ServingSystem& system = *prepared.system;

  ReplaySplit split;
  double plain_wall_s = 0.0;
  double traced_wall_s = 0.0;
  PlanStats plan;
  std::vector<LatencyParts> parts;
  std::vector<double> price_error;
  std::vector<double> straddle_error;
  std::uint64_t violations = 0;
  Totals totals;
  tetri::metrics::RecoveryCounters recovery;
  double reconfig_stall_us = 0.0;
  double latent_transfer_us = 0.0;
  std::uint64_t engine_assignments = 0;
  std::uint64_t reconfigs = 0;
  std::uint64_t latent_transfers = 0;
  Digest all;

  for (std::size_t k = 0; k < traces.size(); ++k) {
    const std::string where = "trace " + std::to_string(k);
    const Replayed plain = ReplayPlain(c, k, system, &slot, traces[k]);
    plain_wall_s += plain.wall_s;

    // The probes ride a second system built from the same config, so
    // its profiled table is identical; only the sink and a fresh
    // auditor (checker state is per run) are added.
    ReplayProbe probe(&traces[k], &system.table(), &c.topology);
    tetri::audit::Auditor auditor;
    tetri::audit::InstallStandardCheckers(auditor);
    tetri::serving::ServingConfig config = MakeConfig(c, &slot);
    config.trace = &probe;
    config.auditor = &auditor;
    ServingSystem traced(&c.topology, &c.model, config);
    tetri::core::TetriScheduler inner(&traced.table());
    TimedScheduler timed(&inner, &probe);
    tetri::chaos::ChaosController chaos(ChaosFor(c, k));
    slot.current = &chaos;
    probe.Begin();
    const ServingResult result = traced.Run(&timed, traces[k]);
    probe.End();
    slot.current = nullptr;

    const std::uint64_t digest = ResultDigest(result);
    report.Check(digest == ResultDigest(plain.result),
                 where + ": traced records differ from untraced records");
    report.Check(result.audit_violations == 0,
                 where + ": audit violations: " + result.audit_summary);
    CheckConservation(result, traces[k].requests.size(), where, &report);
    report.Check(probe.split().decomposition_mismatches == 0,
                 where + ": latency parts do not sum to latency");
    all.Add(digest);

    report.attempted += traces[k].requests.size();
    violations += result.audit_violations;
    traced_wall_s += probe.run_wall_s();
    split.Merge(probe.split());
    plan.Merge(timed.stats());
    parts.insert(parts.end(), probe.parts().begin(), probe.parts().end());
    price_error.insert(price_error.end(), probe.price_error().begin(),
                       probe.price_error().end());
    straddle_error.insert(straddle_error.end(),
                          probe.straddle_price_error().begin(),
                          probe.straddle_price_error().end());
    totals.Add(result, c.topology.num_gpus());
    recovery.gpu_failures += result.recovery.gpu_failures;
    recovery.aborted_assignments += result.recovery.aborted_assignments;
    recovery.requeues += result.recovery.requeues;
    recovery.timeout_drops += result.recovery.timeout_drops;
    recovery.retry_drops += result.recovery.retry_drops;
    recovery.infeasible_drops += result.recovery.infeasible_drops;
    reconfig_stall_us += result.reconfig_stall_us;
    latent_transfer_us += static_cast<double>(result.latent_transfer_us);
    engine_assignments += static_cast<std::uint64_t>(result.num_assignments);
    reconfigs += static_cast<std::uint64_t>(result.num_reconfigs);
    latent_transfers +=
        static_cast<std::uint64_t>(result.num_latent_transfers);
  }

  report.Set("workload.build_trace_ms", Median(prepared.build_s) * 1e3);
  report.Set("costmodel.profile_ms", Median(prepared.profile_s) * 1e3);

  plan.Report(&report);

  report.Set("serving.snapshot_self_s", split.snapshot_s);
  report.Set("serving.tick_tail_self_s", split.tick_tail_s);
  report.Set("serving.idle_tick_self_s", split.idle_tick_s);
  report.Set("serving.dispatch_self_s", split.dispatch_s);
  report.Set("serving.prologue_self_s", split.prologue_s);
  report.Set("serving.epilogue_self_s", split.epilogue_s);
  report.Set("sim.events_fired", static_cast<double>(split.events_fired));
  report.Set("sim.event_self_us_mean",
             split.other_events > 0
                 ? split.event_s * 1e6 /
                       static_cast<double>(split.other_events)
                 : 0.0);
  report.Set("sim.queue_pop_self_s", split.queue_pop_s);

  const double wall = traced_wall_s;
  report.Set("share.bookkeeping",
             (split.snapshot_s + split.tick_tail_s + split.idle_tick_s) /
                 wall);
  report.Set("share.plan", split.plan_s / wall);
  report.Set("share.dispatch", split.dispatch_s / wall);
  report.Set("share.sim_events", (split.event_s + split.queue_pop_s) / wall);
  report.Set("share.run_edges", (split.prologue_s + split.epilogue_s) / wall);
  report.Set("serving.unattributed_frac", split.unattributed_s / wall);
  report.Set("trace.overhead_frac", traced_wall_s / plain_wall_s - 1.0);

  report.Set("engine.assignments", static_cast<double>(engine_assignments));
  report.Set("engine.reconfigs", static_cast<double>(reconfigs));
  report.Set("engine.reconfig_stall_s", reconfig_stall_us * 1e-6);
  report.Set("engine.gpu_util", totals.busy_gpu_us / totals.capacity_gpu_us);
  report.Set("latent.transfers", static_cast<double>(latent_transfers));
  report.Set("latent.transfer_s", latent_transfer_us * 1e-6);
  report.Set("engine.price_error_p50", Percentile(price_error, 50));
  report.Set("engine.price_error_p99", Percentile(price_error, 99));
  report.Set("engine.straddle_price_error_p50",
             Percentile(straddle_error, 50));
  report.Set("engine.straddle_price_error_p99",
             Percentile(straddle_error, 99));
  report.Set("engine.straddle_dispatch_frac",
             price_error.empty()
                 ? 0.0
                 : static_cast<double>(straddle_error.size()) /
                       static_cast<double>(price_error.size()));

  report.Set("chaos.gpu_failures", recovery.gpu_failures);
  report.Set("chaos.aborted_assignments", recovery.aborted_assignments);
  report.Set("chaos.requeues", recovery.requeues);
  report.Set("serving.timeout_drops", recovery.timeout_drops);
  report.Set("serving.retry_drops",
             recovery.retry_drops + recovery.infeasible_drops);
  report.Set("failed_frac",
             static_cast<double>(totals.dropped + totals.cancelled) /
                 static_cast<double>(totals.offered));
  report.Set("audit.violations", static_cast<double>(violations));

  // Per-request virtual-time decomposition, bucketed like every other
  // latency histogram in the tree (queue waits of 0 land in the first
  // bucket, so their percentiles read as <= 0.1 ms).
  auto histogram = [] {
    return tetri::metrics::Histogram::LogSpaced(1e-4, 1e4, 320);
  };
  tetri::metrics::Histogram queue = histogram();
  tetri::metrics::Histogram transfer = histogram();
  tetri::metrics::Histogram execution = histogram();
  tetri::metrics::Histogram tail = histogram();
  for (const LatencyParts& p : parts) {
    queue.Add(p.queue_wait);
    transfer.Add(p.transfer_stall);
    execution.Add(p.execution);
    tail.Add(p.tail);
  }
  report.Set("serving.queue_wait_p50_s", queue.Percentile(50));
  report.Set("serving.queue_wait_p99_s", queue.Percentile(99));
  report.Set("serving.transfer_stall_p50_s", transfer.Percentile(50));
  report.Set("serving.transfer_stall_p99_s", transfer.Percentile(99));
  report.Set("serving.execution_p50_s", execution.Percentile(50));
  report.Set("serving.execution_p99_s", execution.Percentile(99));
  report.Set("serving.tail_p50_s", tail.Percentile(50));
  report.Set("serving.tail_p99_s", tail.Percentile(99));
  const LatencyParts p99 = TailComposition(parts);
  report.Set("serving.p99_queue_wait_s", p99.queue_wait);
  report.Set("serving.p99_transfer_stall_s", p99.transfer_stall);
  report.Set("serving.p99_execution_s", p99.execution);
  report.Set("serving.p99_tail_s", p99.tail);
  report.Set("serving.latency_p99_s", p99.latency);

  char line[200];
  std::snprintf(line, sizeof(line),
                "%zu traces traced, records digest %016llx (traced == "
                "untraced), audit violations %llu, sim_latency_p99 %.3f s",
                traces.size(), static_cast<unsigned long long>(all.value()),
                static_cast<unsigned long long>(violations), p99.latency);
  report.notes.push_back(line);
  if (split.unattributed_s / wall >= 0.10) {
    report.notes.push_back(
        "warning: more than 10% of Run() wall time is unattributed");
  }
  return report;
}

}  // namespace

Report
RunReplayLong(const RunOptions& options)
{
  const ReplayConfig c = LongConfig(options.seed);
  return options.trace ? RunTraced(c) : RunEndToEnd(c, options);
}

Report
RunReplayBurst(const RunOptions& options)
{
  const ReplayConfig c = BurstConfig(options.seed);
  return options.trace ? RunTraced(c) : RunEndToEnd(c, options);
}

}  // namespace perfbench
