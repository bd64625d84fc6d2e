/**
 * @file
 * perfbench: the repository's benchmark. One invocation runs one
 * workload for a given seed and time budget and prints either the
 * end-to-end metrics (--trace 0) or the per-layer metrics of a traced
 * run (--trace 1). The last line of standard output is one JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
 *
 * Usage:
 *   perfbench --workload replay_long|replay_burst|runtime_submit
 *             --seed N --seconds S --trace 0|1
 *   perfbench --list-metrics     (the catalogue below, as JSON)
 *
 * Exit status: 0 when the run completed and printed its result (the
 * "correct" field carries the verdict of the output checks), 2 on a
 * usage error.
 */
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

namespace perfbench {

double
PeakRssMb()
{
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/** Printed for every workload by an untraced run. */
constexpr MetricDef kEndToEnd[] = {
    {"req_per_s", "req/s"},
    {"slo_attainment", "fraction"},
    {"latency_p50_ms", "ms"},
    {"served_frac", "fraction"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/** Printed for every workload by a traced run. A layer the workload
 * does not run reads 0 (README.md says which workload feeds which). */
constexpr MetricDef kPerLayer[] = {
    {"workload.build_trace_ms", "ms"},
    {"costmodel.profile_ms", "ms"},
    {"core.plan_calls", "count"},
    {"core.plan_self_s", "s"},
    {"core.plan_p50_us", "us"},
    {"core.plan_p99_us", "us"},
    {"core.queue_depth_mean", "count"},
    {"core.queue_depth_max", "count"},
    {"core.assignments_per_plan", "count"},
    {"serving.snapshot_self_s", "s"},
    {"serving.tick_tail_self_s", "s"},
    {"serving.idle_tick_self_s", "s"},
    {"serving.dispatch_self_s", "s"},
    {"serving.prologue_self_s", "s"},
    {"serving.epilogue_self_s", "s"},
    {"sim.events_fired", "count"},
    {"sim.event_self_us_mean", "us"},
    {"sim.queue_pop_self_s", "s"},
    {"share.bookkeeping", "fraction"},
    {"share.plan", "fraction"},
    {"share.dispatch", "fraction"},
    {"share.sim_events", "fraction"},
    {"share.run_edges", "fraction"},
    {"serving.unattributed_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
    {"engine.assignments", "count"},
    {"engine.reconfigs", "count"},
    {"engine.reconfig_stall_s", "s"},
    {"engine.gpu_util", "fraction"},
    {"latent.transfers", "count"},
    {"latent.transfer_s", "s"},
    {"engine.price_error_p50", "fraction"},
    {"engine.price_error_p99", "fraction"},
    {"engine.straddle_price_error_p50", "fraction"},
    {"engine.straddle_price_error_p99", "fraction"},
    {"engine.straddle_dispatch_frac", "fraction"},
    {"chaos.gpu_failures", "count"},
    {"chaos.aborted_assignments", "count"},
    {"chaos.requeues", "count"},
    {"serving.timeout_drops", "count"},
    {"serving.retry_drops", "count"},
    {"failed_frac", "fraction"},
    {"audit.violations", "count"},
    {"serving.queue_wait_p50_s", "s"},
    {"serving.queue_wait_p99_s", "s"},
    {"serving.transfer_stall_p50_s", "s"},
    {"serving.transfer_stall_p99_s", "s"},
    {"serving.execution_p50_s", "s"},
    {"serving.execution_p99_s", "s"},
    {"serving.tail_p50_s", "s"},
    {"serving.tail_p99_s", "s"},
    {"serving.p99_queue_wait_s", "s"},
    {"serving.p99_transfer_stall_s", "s"},
    {"serving.p99_execution_s", "s"},
    {"serving.p99_tail_s", "s"},
    {"serving.latency_p99_s", "s"},
    {"runtime.submit_p50_us", "us"},
    {"runtime.submit_p99_us", "us"},
    {"runtime.admit_wait_p50_us", "us"},
    {"runtime.plan_wait_p50_us", "us"},
    {"runtime.plan_p50_us", "us"},
    {"runtime.rounds_per_request", "count"},
    {"runtime.rounds_per_request_b", "count"},
    {"runtime.dispatch_wait_p50_us", "us"},
    {"runtime.worker_p50_us", "us"},
    {"runtime.apply_p50_us", "us"},
    {"runtime.queue_delay_p50_us", "us"},
    {"runtime.generator_late_p99_us", "us"},
    {"runtime.generator_late_max_us", "us"},
    {"runtime.latency_p99_traced_us", "us"},
};

std::string
Number(double x)
{
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, result.ptr);
}

std::string
Escaped(const std::string& s)
{
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c == '\n' ? ' ' : c);
  }
  return out;
}

void
ListMetrics()
{
  auto list = [](const char* key, const MetricDef* defs, std::size_t n,
                 bool last) {
    std::printf("\"%s\": [", key);
    for (std::size_t i = 0; i < n; ++i) {
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", defs[i].name, defs[i].unit);
    }
    std::printf("]%s", last ? "" : ", ");
  };
  std::printf("{");
  list("end_to_end", kEndToEnd, std::size(kEndToEnd), false);
  list("per_layer", kPerLayer, std::size(kPerLayer), true);
  std::printf("}\n");
}

int
Usage(const char* argv0)
{
  std::fprintf(stderr,
               "usage: %s --workload replay_long|replay_burst|"
               "runtime_submit --seed N --seconds S --trace 0|1\n"
               "       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char** argv)
{
  using namespace perfbench;
  std::string workload;
  RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      ListMetrics();
      return 0;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = *value != '\0' && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = *value != '\0' && *end == '\0' && options.seconds > 0 &&
                     options.seconds <= 600;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage(argv[0]);
      }
      options.trace = value[0] == '1';
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_seed || !have_seconds) return Usage(argv[0]);

  Report report;
  if (workload == "replay_long") {
    report = RunReplayLong(options);
  } else if (workload == "replay_burst") {
    report = RunReplayBurst(options);
  } else if (workload == "runtime_submit") {
    report = RunRuntimeSubmit(options);
  } else {
    return Usage(argv[0]);
  }
  if (!options.trace) report.Set("peak_rss_mb", PeakRssMb());
  report.Check(report.attempted > 0, "no request was offered");

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : report.notes) {
    std::printf("  %s\n", note.c_str());
  }

  const MetricDef* defs = options.trace ? kPerLayer : kEndToEnd;
  const std::size_t n =
      options.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  std::string json;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = report.values.find(defs[i].name);
    double value = 0.0;
    if (it != report.values.end()) {
      value = it->second;
    } else if (!options.trace) {
      report.Check(false, std::string("metric not measured: ") + defs[i].name);
    }
    if (!std::isfinite(value)) {
      report.Check(false, std::string("metric not finite: ") + defs[i].name);
      value = -1.0;
    }
    std::printf("  %-36s %16.6g %s\n", defs[i].name, value, defs[i].unit);
    json += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
            "\": {\"value\": " + Number(value) + ", \"unit\": \"" +
            defs[i].unit + "\"}";
  }
  for (const auto& [name, value] : report.values) {
    bool known = false;
    for (std::size_t i = 0; i < n; ++i) known |= name == defs[i].name;
    if (!known) report.Check(false, "metric outside the catalogue: " + name);
  }
  for (const std::string& error : report.errors) {
    std::printf("  CHECK FAILED: %s\n", Escaped(error).c_str());
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(report.attempted),
      static_cast<unsigned long long>(report.failed), json.c_str());
  return 0;
}
