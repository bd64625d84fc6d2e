/**
 * @file
 * Benchmark regression gate for the scheduler fast path.
 *
 * Compares a fresh `bench_micro_scheduler --json` report against the
 * committed baseline (BENCH_scheduler.json at the repo root), matching
 * configs by (queue_depth, num_gpus). The gate fails when the geometric
 * mean of the per-config fast_p50_us ratios (current / baseline)
 * exceeds the threshold — the geomean absorbs per-cell CI noise while
 * still catching an across-the-board slowdown.
 *
 * When the current report carries a "churn" block (produced by
 * `bench_micro_scheduler --churn`), the gate additionally enforces the
 * incremental-replanning floor: every cell with queue_depth <= 64 must
 * show at least --churn-min-speedup p50 speedup over from-scratch
 * replanning. Reports without the block skip the check.
 *
 * When the current report carries a "scaling" block (produced by
 * `bench_e2e_scaling`), the gate enforces a linear serving loop: the
 * per-request wall cost at the largest trace length may be at most
 * kScalingMaxRatio (1.5) times the cost at the smallest. A scaling
 * report needs no "configs" array; the geomean check then does not
 * apply.
 *
 * Usage:
 *   bench_gate <baseline.json> <current.json>
 *              [--threshold=1.20] [--churn-min-speedup=5.0]
 *              [--append-trajectory=<path> --label=<text>]
 *
 * --append-trajectory appends one JSONL record per invocation to the
 * tracked trajectory file so per-PR plan latency is an auditable
 * series, not a single overwritten number.
 *
 * Exit codes: 0 within threshold, 1 regression, 2 usage/parse error.
 */
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

struct PackerRow {
  std::string packer;
  double plan_p50_us = 0.0;
  int frag_met = 0;
  int frag_total = 0;
};

struct ChurnRow {
  int queue_depth = 0;
  int num_gpus = 0;
  double inc_p50_us = 0.0;
  double speedup_p50 = 0.0;
  double memo_hit_frac = 0.0;
};

struct ScalingRow {
  int num_requests = 0;
  double us_per_request = 0.0;
};

struct Report {
  std::string mode;
  std::vector<Config> configs;
  std::vector<PackerRow> packers;  // optional "packers" block
  std::vector<ChurnRow> churn;     // optional "churn" block
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
 * "mode" string and every {...} object inside the "configs" array
 * (plus the optional "churn" and "packers" arrays, when present), or
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

  // Optional churn block (bench_micro_scheduler --churn): incremental
  // vs from-scratch replanning under single-request churn. Older
  // reports predate it, so absence is not an error.
  for (const std::string& obj : ArrayObjects(text, "churn")) {
    ChurnRow row;
    row.queue_depth = static_cast<int>(NumberField(obj, "queue_depth"));
    row.num_gpus = static_cast<int>(NumberField(obj, "num_gpus"));
    row.inc_p50_us = NumberField(obj, "inc_p50_us");
    row.speedup_p50 = NumberField(obj, "speedup_p50");
    row.memo_hit_frac = NumberField(obj, "memo_hit_frac");
    if (row.queue_depth > 0 && row.num_gpus > 0 &&
        std::isfinite(row.speedup_p50)) {
      out->churn.push_back(row);
    }
  }

  // Optional packer-matrix block (bench_micro_scheduler --packers).
  // Older reports predate it, so absence is not an error.
  for (const std::string& obj : ArrayObjects(text, "packers")) {
    PackerRow row;
    row.packer = StringField(obj, "packer");
    row.plan_p50_us = NumberField(obj, "plan_p50_us");
    row.frag_met = static_cast<int>(NumberField(obj, "frag_met"));
    row.frag_total = static_cast<int>(NumberField(obj, "frag_total"));
    if (!row.packer.empty() && std::isfinite(row.plan_p50_us)) {
      out->packers.push_back(row);
    }
  }

  // Scaling block (bench_e2e_scaling): such a report carries no
  // configs array.
  for (const std::string& obj : ArrayObjects(text, "scaling")) {
    ScalingRow row;
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
 * Print the scaling rows (with the baseline's cost at the same N when
 * it has one) and return the per-request cost at the largest N over
 * the cost at the smallest.
 */
double
ScalingCostRatio(const Report& baseline, const Report& current)
{
  std::map<int, double> base_cost;
  for (const ScalingRow& row : baseline.scaling) {
    base_cost[row.num_requests] = row.us_per_request;
  }
  std::printf("%10s %14s %14s %8s\n", "requests", "base_us_req",
              "cur_us_req", "vs_base");
  const ScalingRow* smallest = &current.scaling.front();
  const ScalingRow* largest = &current.scaling.front();
  for (const ScalingRow& row : current.scaling) {
    const auto it = base_cost.find(row.num_requests);
    if (it != base_cost.end()) {
      std::printf("%10d %14.3f %14.3f %7.2fx\n", row.num_requests,
                  it->second, row.us_per_request,
                  row.us_per_request / it->second);
    } else {
      std::printf("%10d %14s %14.3f %8s\n", row.num_requests, "-",
                  row.us_per_request, "-");
    }
    if (row.num_requests < smallest->num_requests) smallest = &row;
    if (row.num_requests > largest->num_requests) largest = &row;
  }
  return largest->us_per_request / smallest->us_per_request;
}

int
Usage()
{
  std::cerr << "usage: bench_gate <baseline.json> <current.json> "
               "[--threshold=R] [--churn-min-speedup=R] "
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
  double churn_min_speedup = 5.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0) {
      threshold = std::strtod(arg.c_str() + 12, nullptr);
      if (!(threshold > 0)) return Usage();
    } else if (arg.rfind("--churn-min-speedup=", 0) == 0) {
      churn_min_speedup = std::strtod(arg.c_str() + 20, nullptr);
      if (!(churn_min_speedup > 0)) return Usage();
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
  // the per-request cost stays flat as the trace grows. The ratio is
  // within one run, so machine speed cancels out of it.
  if (!current.scaling.empty()) {
    const double ratio = ScalingCostRatio(baseline, current);
    const bool pass = ratio <= kScalingMaxRatio;
    std::printf(
        "bench_gate: per-request cost largest/smallest N %.3fx "
        "(max %.2fx, current mode '%s')\n",
        ratio, kScalingMaxRatio, current.mode.c_str());
    if (!trajectory_path.empty()) {
      char fields[160];
      std::snprintf(fields, sizeof(fields),
                    "\"scaling_cost_ratio\": %.4f, "
                    "\"scaling_max_ratio\": %.2f, \"pass\": %s",
                    ratio, kScalingMaxRatio, pass ? "true" : "false");
      if (!AppendTrajectory(trajectory_path, label, current.mode,
                            fields)) {
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

  // Packer matrix (when the current report carries one): print the
  // rows and enforce the recorded invariant — the progressive
  // packer's SLO attainment on the fragmented-node scenario must be
  // at least the DP's. Reports without the block (older baselines,
  // runs without --packers) skip the check.
  if (!current.packers.empty()) {
    const PackerRow* dp = nullptr;
    const PackerRow* progressive = nullptr;
    std::printf("%12s %14s %10s %12s\n", "packer", "plan_p50_us",
                "frag_met", "frag_total");
    for (const PackerRow& row : current.packers) {
      std::printf("%12s %14.3f %10d %12d\n", row.packer.c_str(),
                  row.plan_p50_us, row.frag_met, row.frag_total);
      if (row.packer == "dp") dp = &row;
      if (row.packer == "progressive") progressive = &row;
    }
    if (dp != nullptr && progressive != nullptr &&
        progressive->frag_met < dp->frag_met) {
      std::cerr << "bench_gate: FAIL — progressive packer met "
                << progressive->frag_met << "/"
                << progressive->frag_total
                << " SLOs on the fragmented node vs dp's "
                << dp->frag_met << "\n";
      return 1;
    }
  }

  // Churn block (when the current report carries one): print the rows
  // and enforce the incremental-replanning headline — at interactive
  // queue depths (<= 64) the incremental path must beat from-scratch
  // replanning by at least --churn-min-speedup on p50. Reports without
  // the block (older baselines, runs without --churn) skip the check.
  if (!current.churn.empty()) {
    std::map<std::pair<int, int>, const ChurnRow*> churn_base;
    for (const ChurnRow& row : baseline.churn) {
      churn_base[{row.queue_depth, row.num_gpus}] = &row;
    }
    std::printf("%8s %6s %14s %10s %8s %10s\n", "depth", "gpus",
                "inc_p50_us", "speedup", "memo", "vs_base");
    bool churn_fail = false;
    for (const ChurnRow& row : current.churn) {
      const auto it =
          churn_base.find({row.queue_depth, row.num_gpus});
      const bool has_base =
          it != churn_base.end() && it->second->inc_p50_us > 0 &&
          row.inc_p50_us > 0;
      const double vs_base =
          has_base ? row.inc_p50_us / it->second->inc_p50_us : NAN;
      std::printf("%8d %6d %14.3f %9.2fx %7.0f%% %9s\n",
                  row.queue_depth, row.num_gpus, row.inc_p50_us,
                  row.speedup_p50, row.memo_hit_frac * 100.0,
                  has_base
                      ? (std::to_string(vs_base).substr(0, 4) + "x")
                            .c_str()
                      : "-");
      if (row.queue_depth <= 64 &&
          row.speedup_p50 < churn_min_speedup) {
        std::cerr << "bench_gate: FAIL — churn speedup "
                  << row.speedup_p50 << "x at depth "
                  << row.queue_depth << " below floor "
                  << churn_min_speedup << "x\n";
        churn_fail = true;
      }
    }
    if (churn_fail) return 1;
  }

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
