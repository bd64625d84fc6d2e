/**
 * @file
 * End-to-end scaling benchmark for the simulated serving loop: how the
 * wall cost of ServingSystem::Run grows with trace length.
 *
 * Workload: FLUX.1-dev on one 8xH100 node, TetriScheduler with default
 * options, Poisson arrivals at 12 req/min (the paper's default rate),
 * skewed resolution mix, SLO scale 1.0. One trace per length N; smoke
 * mode runs N = 1k, 4k, 16k, 64k and full mode adds 256k and 1M.
 *
 * Each N is replayed several times (enough passes to simulate at least
 * kMinSimulated requests, never fewer than two) and the fastest pass is
 * kept, so a descheduled pass on a shared machine does not count.
 * Passes interleave across the lengths for the same reason.
 * Trace generation and latency-table profiling are outside the timed
 * region; only Run() is on the clock. Every pass must conserve
 * requests (completed + dropped == N) and repeat the first pass's
 * results exactly, or the bench aborts.
 *
 * A loop whose per-tick cost is O(working set) costs the same per
 * request at every N; the headline is the ratio of per-request cost at
 * the largest N to the smallest. `bench_gate` fails a report whose
 * ratio exceeds 1.5 (see tools/bench_gate.cc).
 *
 * Usage:
 *   bench_e2e_scaling [--smoke] [--json=PATH]
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "core/tetri_scheduler.h"
#include "costmodel/model_config.h"
#include "serving/system.h"
#include "util/check.h"
#include "util/wallclock.h"
#include "workload/trace.h"

namespace tetri {
namespace {

/** Passes per N continue until at least this many requests have been
 * simulated (smoke / full). */
constexpr int kMinSimulatedSmoke = 256'000;
constexpr int kMinSimulatedFull = 1'000'000;

struct ScalingRow {
  int num_requests = 0;
  int reps = 0;
  double best_wall_s = 0.0;
  double req_per_s = 0.0;
  double us_per_request = 0.0;
  /** Share of the fastest pass spent inside Scheduler::Plan. */
  double plan_frac = 0.0;
  double slo_attainment = 0.0;
};

/** One trace length: its trace, its first pass's completions (the
 * determinism reference) and its running result row. */
struct Length {
  workload::Trace trace;
  std::vector<TimeUs> first_completions;
  ScalingRow row;
};

workload::Trace
ScalingTrace(int num_requests)
{
  workload::TraceSpec spec;
  spec.num_requests = num_requests;
  spec.arrival_rate_per_min = 12.0;
  spec.slo_scale = 1.0;
  spec.mix = workload::ResolutionMix::Skewed();
  spec.seed = 1;
  return workload::BuildTrace(spec);
}

/** Replay @p length once; keep the pass if it is the fastest so far. */
void
RunPass(serving::ServingSystem& system, Length* length, int rep)
{
  const int n = length->row.num_requests;
  core::TetriScheduler scheduler(&system.table());
  const util::WallTimer wall;
  const serving::ServingResult result = system.Run(&scheduler, length->trace);
  const double wall_s = wall.ElapsedSec();

  int completed = 0;
  std::vector<TimeUs> completions;
  completions.reserve(result.records.size());
  for (const metrics::RequestRecord& rec : result.records) {
    if (rec.Completed()) ++completed;
    completions.push_back(rec.completion_us);
  }
  TETRI_CHECK_MSG(completed + result.num_dropped == n,
                  "conservation: " << completed << " completed + "
                                   << result.num_dropped
                                   << " dropped != " << n);
  ScalingRow& row = length->row;
  if (rep == 0) {
    length->first_completions = std::move(completions);
    row.slo_attainment = result.Sar().overall;
  } else {
    TETRI_CHECK_MSG(completions == length->first_completions,
                    "replay of N=" << n << " is not deterministic");
  }
  if (rep == 0 || wall_s < row.best_wall_s) {
    row.best_wall_s = wall_s;
    row.plan_frac = result.scheduler_wall_us_total * 1e-6 / wall_s;
  }
  row.req_per_s = n / row.best_wall_s;
  row.us_per_request = row.best_wall_s * 1e6 / n;
}

}  // namespace
}  // namespace tetri

int
main(int argc, char** argv)
{
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<int> lengths = {1'000, 4'000, 16'000, 64'000};
  if (!smoke) {
    lengths.push_back(256'000);
    lengths.push_back(1'000'000);
  }
  const int min_simulated = smoke ? tetri::kMinSimulatedSmoke
                                  : tetri::kMinSimulatedFull;

  const auto model = tetri::costmodel::ModelConfig::FluxDev();
  const auto topology = tetri::cluster::Topology::H100Node(8);
  tetri::serving::ServingSystem system(&topology, &model);

  // Passes interleave across lengths (pass 0 of every N, then pass 1,
  // ...), so a stretch of load on a shared machine slows every length
  // alike instead of one.
  std::vector<tetri::Length> lengths_state(lengths.size());
  int max_reps = 0;
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    lengths_state[i].trace = tetri::ScalingTrace(lengths[i]);
    lengths_state[i].row.num_requests = lengths[i];
    lengths_state[i].row.reps = std::max(2, min_simulated / lengths[i]);
    max_reps = std::max(max_reps, lengths_state[i].row.reps);
  }
  for (int rep = 0; rep < max_reps; ++rep) {
    for (tetri::Length& length : lengths_state) {
      if (rep < length.row.reps) tetri::RunPass(system, &length, rep);
    }
  }

  std::vector<tetri::ScalingRow> rows;
  std::printf("%10s %6s %12s %12s %14s %10s %8s\n", "requests", "reps",
              "best_wall_s", "req/s", "us/request", "plan_frac", "sar");
  for (const tetri::Length& length : lengths_state) {
    const tetri::ScalingRow& row = length.row;
    std::printf("%10d %6d %12.4f %12.0f %14.3f %10.3f %8.3f\n",
                row.num_requests, row.reps, row.best_wall_s,
                row.req_per_s, row.us_per_request, row.plan_frac,
                row.slo_attainment);
    rows.push_back(row);
  }
  const double ratio =
      rows.back().us_per_request / rows.front().us_per_request;
  std::printf("per-request cost ratio (N=%d vs N=%d): %.3fx\n",
              rows.back().num_requests, rows.front().num_requests, ratio);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   json_path.c_str());
      return 2;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"e2e_scaling\",\n");
    std::fprintf(out, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(out,
                 "  \"workload\": \"FLUX.1-dev 8xH100, TetriScheduler, "
                 "Poisson 12 req/min, skewed mix, slo_scale 1.0\",\n");
    std::fprintf(out, "  \"cost_ratio\": %.4f,\n", ratio);
    std::fprintf(out, "  \"scaling\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(out,
                   "    {\"num_requests\": %d, \"reps\": %d, "
                   "\"best_wall_s\": %.6f, \"req_per_s\": %.0f, "
                   "\"us_per_request\": %.4f, \"plan_frac\": %.4f, "
                   "\"slo_attainment\": %.6f}%s\n",
                   r.num_requests, r.reps, r.best_wall_s, r.req_per_s,
                   r.us_per_request, r.plan_frac, r.slo_attainment,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
