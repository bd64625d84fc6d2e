/**
 * @file
 * Result plumbing shared by every workload: the metric values a run
 * measured, its request accounting and correctness verdict, plus the
 * small statistics and hashing helpers the workloads need. main.cc owns
 * the metric catalogue (names, units, order) and the output format.
 */
#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host clock in nanoseconds. */
inline std::int64_t
NowNs()
{
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double
SecondsSince(std::int64_t start_ns)
{
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

/** Exact percentile (linear interpolation between order statistics). */
inline double
Percentile(std::vector<double> values, double p)
{
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double
Median(std::vector<double> values)
{
  return Percentile(std::move(values), 50.0);
}

/** FNV-1a over a stream of 64-bit words. */
class Digest {
 public:
  void Add(std::uint64_t word)
  {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void AddDouble(double x)
  {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(x));
    std::memcpy(&bits, &x, sizeof(bits));
    Add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/** What a workload hands back to main(). */
struct Report {
  /** Metric values by catalogue name (see main.cc). */
  std::map<std::string, double> values;
  /** Requests handed to the system (the JSON "attempted"). */
  std::uint64_t attempted = 0;
  /** Of those, requests refused at the front door, failed or lost (the
   * JSON "failed"). Scheduler drops are outcomes, reported by
   * served_frac. */
  std::uint64_t failed = 0;
  /** Every correctness check passed. */
  bool correct = true;
  std::vector<std::string> errors;
  /** Free-form lines printed above the metric table. */
  std::vector<std::string> notes;

  void Set(const std::string& name, double value) { values[name] = value; }

  /** Record a correctness check; a failed one marks the run incorrect. */
  void Check(bool ok, const std::string& what)
  {
    if (ok) return;
    correct = false;
    errors.push_back(what);
  }
};

/** Peak resident set size of this process, MiB. */
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H
