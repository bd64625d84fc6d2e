/**
 * @file
 * Benchmark regression gate for scheduler Plan() latency.
 *
 * Compares a fresh `bench_micro_scheduler --json` report against the
 * committed baseline (BENCH_scheduler.json at the repo root), matching
 * configs by (queue_depth, num_gpus). The gate fails when the geometric
 * mean of the per-config fast_p50_us ratios (current / baseline)
 * exceeds the threshold — the geomean absorbs per-cell CI noise while
 * still catching an across-the-board slowdown.
 *
 * When the current report carries a "scaling" block (produced by
 * `bench_e2e_scaling`), the gate enforces a linear serving loop: for
 * every scheduler in the block, the per-request wall cost at the
 * largest trace length may be at most kScalingMaxRatio (1.5) times the
 * cost at the smallest. Rows without a "scheduler" field form one
 * group. A scaling report needs no "configs" array; the geomean check
 * then does not apply.
 *
 * Usage:
 *   bench_gate <baseline.json> <current.json>
 *              [--threshold=1.20]
 *              [--append-trajectory=<path> --label=<text>]
 *
 * --append-trajectory appends one JSONL record per invocation to the
 * tracked trajectory file so per-PR plan latency is an auditable
 * series, not a single overwritten number.
 *
 * Exit codes: 0 within threshold, 1 regression, 2 usage/parse error.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

/** Largest allowed per-request cost growth from the smallest to the
 * largest trace length of a bench_e2e_scaling report. */
constexpr double kScalingMaxRatio = 1.5;

struct Config {
  int queue_depth = 0;
  int num_gpus = 0;
  double fast_p50_us = 0.0;
  double fast_p99_us = 0.0;
};

struct ScalingRow {
  std::string scheduler;
  int num_requests = 0;
  double us_per_request = 0.0;
};

struct Report {
  std::string mode;
  std::vector<Config> configs;
  std::vector<ScalingRow> scaling;  // optional "scaling" block
};

/** Extract the number following "<key>": in @p obj, or NAN. */
double
NumberField(const std::string& obj, const std::string& key)
{
  const std::string needle = "\"" + key + "\":";
  const auto pos = obj.find(needle);
  if (pos == std::string::npos) return NAN;
  return std::strtod(obj.c_str() + pos + needle.size(), nullptr);
}

/** Extract the string following "<key>": " in @p obj, or "". */
std::string
StringField(const std::string& obj, const std::string& key)
{
  const std::string needle = "\"" + key + "\": \"";
  const auto pos = obj.find(needle);
  if (pos == std::string::npos) return "";
  const auto start = pos + needle.size();
  const auto end = obj.find('"', start);
  if (end == std::string::npos) return "";
  return obj.substr(start, end - start);
}

/**
 * Every flat {...} object inside the array that follows "<key>" in
 * @p text; empty when the key is absent.
 */
std::vector<std::string>
ArrayObjects(const std::string& text, const std::string& key)
{
  std::vector<std::string> objects;
  const auto key_pos = text.find("\"" + key + "\"");
  if (key_pos == std::string::npos) return objects;
  const auto open = text.find('[', key_pos);
  const auto close = text.find(']', key_pos);
  if (open == std::string::npos || close == std::string::npos) {
    return objects;
  }
  std::size_t pos = open;
  while (true) {
    const auto obj_open = text.find('{', pos);
    if (obj_open == std::string::npos || obj_open > close) break;
    const auto obj_close = text.find('}', obj_open);
    if (obj_close == std::string::npos) break;
    objects.push_back(text.substr(obj_open, obj_close - obj_open + 1));
    pos = obj_close + 1;
  }
  return objects;
}

/**
 * Minimal parse of the bench_micro_scheduler JSON shape: pull the
 * "mode" string and every {...} object inside the "configs" array, or
 * the bench_e2e_scaling shape with its "scaling" array.
 * Deliberately not a general JSON parser — the producer is ours and
 * writes flat objects with no nested braces inside configs.
 */
bool
ParseReport(const std::string& path, Report* out)
{
  std::ifstream in(path);
  if (!in) {
    std::cerr << "bench_gate: cannot read '" << path << "'\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const auto mode_pos = text.find("\"mode\": \"");
  if (mode_pos != std::string::npos) {
    const auto start = mode_pos + 9;
    const auto end = text.find('"', start);
    if (end != std::string::npos) {
      out->mode = text.substr(start, end - start);
    }
  }

  for (const std::string& obj : ArrayObjects(text, "configs")) {
    Config c;
    c.queue_depth = static_cast<int>(NumberField(obj, "queue_depth"));
    c.num_gpus = static_cast<int>(NumberField(obj, "num_gpus"));
    c.fast_p50_us = NumberField(obj, "fast_p50_us");
    c.fast_p99_us = NumberField(obj, "fast_p99_us");
    if (c.queue_depth > 0 && c.num_gpus > 0 &&
        std::isfinite(c.fast_p50_us)) {
      out->configs.push_back(c);
    }
  }

  // Scaling block (bench_e2e_scaling): such a report carries no
  // configs array.
  for (const std::string& obj : ArrayObjects(text, "scaling")) {
    ScalingRow row;
    row.scheduler = StringField(obj, "scheduler");
    row.num_requests = static_cast<int>(NumberField(obj, "num_requests"));
    row.us_per_request = NumberField(obj, "us_per_request");
    if (row.num_requests > 0 && row.us_per_request > 0) {
      out->scaling.push_back(row);
    }
  }

  if (out->configs.empty() && out->scaling.empty()) {
    std::cerr << "bench_gate: no configs or scaling rows parsed from '"
              << path << "'\n";
    return false;
  }
  return true;
}

/**
 * Idempotent append: a re-run with the same label (same commit)
 * replaces its own entry instead of duplicating it, so CI retries and
 * local reruns keep the trajectory one-line-per-label. @p fields is the
 * record's JSON members after "label" and "mode".
 */
bool
AppendTrajectory(const std::string& path, const std::string& label,
                 const std::string& mode, const std::string& fields)
{
  const std::string label_key = "\"label\": \"" + label + "\"";
  std::vector<std::string> kept;
  bool replaced = false;
  {
    std::ifstream in(path);
    std::string existing;
    while (std::getline(in, existing)) {
      if (existing.find(label_key) != std::string::npos) {
        replaced = true;
        continue;
      }
      if (!existing.empty()) kept.push_back(existing);
    }
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "bench_gate: cannot write '" << path << "'\n";
    return false;
  }
  for (const std::string& existing : kept) out << existing << "\n";
  out << "{" << label_key << ", \"mode\": \"" << mode << "\", " << fields
      << "}\n";
  std::printf("bench_gate: %s '%s' in %s\n",
              replaced ? "replaced" : "appended", label.c_str(),
              path.c_str());
  return true;
}

/**
 * Print the scaling rows (with the baseline's cost at the same
 * scheduler and N when it has one) and return, per scheduler, the
 * per-request cost at the largest N over the cost at the smallest.
 */
std::map<std::string, double>
ScalingCostRatios(const Report& baseline, const Report& current)
{
  std::map<std::pair<std::string, int>, double> base_cost;
  for (const ScalingRow& row : baseline.scaling) {
    base_cost[{row.scheduler, row.num_requests}] = row.us_per_request;
  }
  std::printf("%-12s %10s %14s %14s %8s\n", "scheduler", "requests",
              "base_us_req", "cur_us_req", "vs_base");
  std::map<std::string, std::pair<const ScalingRow*, const ScalingRow*>>
      extremes;  // scheduler -> (smallest N, largest N)
  for (const ScalingRow& row : current.scaling) {
    const std::string name = row.scheduler.empty() ? "-" : row.scheduler;
    const auto it = base_cost.find({row.scheduler, row.num_requests});
    if (it != base_cost.end()) {
      std::printf("%-12s %10d %14.3f %14.3f %7.2fx\n", name.c_str(),
                  row.num_requests, it->second, row.us_per_request,
                  row.us_per_request / it->second);
    } else {
      std::printf("%-12s %10d %14s %14.3f %8s\n", name.c_str(),
                  row.num_requests, "-", row.us_per_request, "-");
    }
    auto [ext, fresh] = extremes.try_emplace(row.scheduler, &row, &row);
    if (fresh) continue;
    auto& [smallest, largest] = ext->second;
    if (row.num_requests < smallest->num_requests) smallest = &row;
    if (row.num_requests > largest->num_requests) largest = &row;
  }
  std::map<std::string, double> ratios;
  for (const auto& [scheduler, ext] : extremes) {
    ratios[scheduler] =
        ext.second->us_per_request / ext.first->us_per_request;
  }
  return ratios;
}

int
Usage()
{
  std::cerr << "usage: bench_gate <baseline.json> <current.json> "
               "[--threshold=R] "
               "[--append-trajectory=PATH --label=TEXT]\n";
  return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
  std::string baseline_path;
  std::string current_path;
  std::string trajectory_path;
  std::string label;
  double threshold = 1.20;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      threshold = std::strtod(arg.c_str() + 12, nullptr);
      if (!(threshold > 0)) return Usage();
    } else if (arg.rfind("--append-trajectory=", 0) == 0) {
      trajectory_path = arg.substr(20);
    } else if (arg.rfind("--label=", 0) == 0) {
      label = arg.substr(8);
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (current_path.empty()) {
      current_path = arg;
    } else {
      return Usage();
    }
  }
  if (baseline_path.empty() || current_path.empty()) return Usage();
  if (!trajectory_path.empty() && label.empty()) {
    std::cerr << "bench_gate: --append-trajectory requires --label\n";
    return Usage();
  }

  Report baseline;
  Report current;
  if (!ParseReport(baseline_path, &baseline) ||
      !ParseReport(current_path, &current)) {
    return 2;
  }

  // Scaling report (bench_e2e_scaling): the serving loop is linear when
  // the per-request cost stays flat as the trace grows, under every
  // scheduler. The ratio is within one run, so machine speed cancels
  // out of it.
  if (!current.scaling.empty()) {
    const std::map<std::string, double> ratios =
        ScalingCostRatios(baseline, current);
    double ratio = 0.0;
    std::string by_scheduler;
    for (const auto& [scheduler, r] : ratios) {
      ratio = std::max(ratio, r);
      if (scheduler.empty()) continue;
      std::printf("bench_gate: %s per-request cost largest/smallest N "
                  "%.3fx\n", scheduler.c_str(), r);
      char cell[96];
      std::snprintf(cell, sizeof(cell), "%s\"%s\": %.4f",
                    by_scheduler.empty() ? "" : ", ", scheduler.c_str(), r);
      by_scheduler += cell;
    }
    const bool pass = ratio <= kScalingMaxRatio;
    std::printf(
        "bench_gate: per-request cost largest/smallest N %.3fx "
        "(worst scheduler; max %.2fx, current mode '%s')\n",
        ratio, kScalingMaxRatio, current.mode.c_str());
    if (!trajectory_path.empty()) {
      char fields[160];
      std::snprintf(fields, sizeof(fields),
                    "\"scaling_cost_ratio\": %.4f, "
                    "\"scaling_max_ratio\": %.2f, \"pass\": %s",
                    ratio, kScalingMaxRatio, pass ? "true" : "false");
      std::string record = fields;
      if (!by_scheduler.empty()) {
        record += ", \"scaling_cost_ratio_by_scheduler\": {" +
                  by_scheduler + "}";
      }
      if (!AppendTrajectory(trajectory_path, label, current.mode,
                            record)) {
        return 2;
      }
    }
    if (!pass) {
      std::cerr << "bench_gate: FAIL — per-request cost grows "
                << std::fixed << ratio
                << "x from the smallest to the largest trace\n";
      return 1;
    }
    if (current.configs.empty()) {
      std::printf("bench_gate: OK\n");
      return 0;
    }
  }

  std::map<std::pair<int, int>, Config> by_key;
  for (const Config& c : baseline.configs) {
    by_key[{c.queue_depth, c.num_gpus}] = c;
  }

  std::printf("%8s %6s %14s %14s %8s\n", "depth", "gpus",
              "base_p50_us", "cur_p50_us", "ratio");
  double log_sum = 0.0;
  int matched = 0;
  for (const Config& cur : current.configs) {
    const auto it = by_key.find({cur.queue_depth, cur.num_gpus});
    if (it == by_key.end()) continue;
    const Config& base = it->second;
    if (!(base.fast_p50_us > 0) || !(cur.fast_p50_us > 0)) continue;
    const double ratio = cur.fast_p50_us / base.fast_p50_us;
    std::printf("%8d %6d %14.3f %14.3f %7.2fx\n", cur.queue_depth,
                cur.num_gpus, base.fast_p50_us, cur.fast_p50_us,
                ratio);
    log_sum += std::log(ratio);
    ++matched;
  }
  if (matched == 0) {
    std::cerr << "bench_gate: no configs matched between '"
              << baseline_path << "' and '" << current_path << "'\n";
    return 2;
  }
  const double geomean = std::exp(log_sum / matched);
  std::printf(
      "bench_gate: %d config(s), geomean fast_p50 ratio %.3f "
      "(threshold %.2f, current mode '%s')\n",
      matched, geomean, threshold, current.mode.c_str());

  if (!trajectory_path.empty()) {
    char fields[256];
    std::snprintf(fields, sizeof(fields),
                  "\"configs\": %d, \"geomean_fast_p50_ratio\": %.4f, "
                  "\"threshold\": %.2f, \"pass\": %s",
                  matched, geomean, threshold,
                  geomean <= threshold ? "true" : "false");
    if (!AppendTrajectory(trajectory_path, label, current.mode, fields)) {
      return 2;
    }
  }

  if (geomean > threshold) {
    std::cerr << "bench_gate: FAIL — plan latency regressed "
              << std::fixed << geomean << "x geomean vs baseline\n";
    return 1;
  }
  std::printf("bench_gate: OK\n");
  return 0;
}
