/**
 * @file
 * Differential-testing harness for the Stage-2 group-knapsack DP
 * (packers/dp_packer.h): PackRoundInto runs on generated option groups
 * and must satisfy:
 *
 *  - feasibility: choice indices valid, gpus_used == sum of chosen
 *    degrees <= capacity, survivors/running/work accounting exact;
 *  - bit-for-bit agreement with oracle::PackRoundReference, the seed
 *    nested-vector DP kept as an independent test oracle;
 *  - on small instances, agreement with oracle::PackRoundExhaustive on
 *    the full objective (survivor-optimality).
 *
 * Instances come in two width regimes: power-of-two option widths (the
 * ones the scheduler emits) and odd widths 1..8. The DP never looks at
 * whether a width is a power of two, so odd widths probe the same code
 * on more capacity shapes.
 *
 * The sweep is seed-pinned: every instance is a pure function of its
 * seed. TETRI_PACKER_SEED=<N> reruns exactly one seed; on any
 * invariant violation the harness dumps the offending instance to
 * packer_replay_seed<N>.txt (uploaded by CI as the repro artifact).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "oracle/packing.h"
#include "packers/dp_packer.h"
#include "util/rng.h"

namespace tetri::packers {
namespace {

// ---------------------------------------------------------------
// Instance generation (pure function of the seed)
// ---------------------------------------------------------------

struct Instance {
  int capacity = 0;
  std::vector<PackGroup> groups;
};

/** Randomized option groups; @p odd_widths mixes in widths 3/5/6/7. */
Instance
GenInstance(std::uint64_t seed, bool odd_widths)
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
    // cannot help) — the DP must pass it through untouched.
    const int num_options =
        rng.NextDouble() < 0.1 ? 0 : 1 + static_cast<int>(rng.NextBelow(4));
    for (int o = 0; o < num_options; ++o) {
      PackOption opt;
      opt.degree = odd_widths
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
RenderInstance(const Instance& inst, std::uint64_t seed, bool odd_widths)
{
  std::ostringstream oss;
  oss << "packer differential replay\n"
      << "seed " << seed << (odd_widths ? " odd_widths" : " pow2")
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
DumpReplay(const Instance& inst, std::uint64_t seed, bool odd_widths)
{
  const std::string path =
      "packer_replay_seed" + std::to_string(seed) + ".txt";
  std::ofstream out(path);
  out << RenderInstance(inst, seed, odd_widths);
  return path;
}

// ---------------------------------------------------------------
// Invariant checks
// ---------------------------------------------------------------

/** Feasibility + accounting of one result. */
void
ValidateResult(const Instance& inst, const PackResult& result)
{
  const int n = static_cast<int>(inst.groups.size());
  ASSERT_EQ(static_cast<int>(result.choice.size()), n);
  int survivors = 0;
  int gpus = 0;
  int running = 0;
  double work = 0.0;
  for (int i = 0; i < n; ++i) {
    const PackGroup& g = inst.groups[i];
    const int c = result.choice[i];
    ASSERT_GE(c, -1) << "group " << i;
    ASSERT_LT(c, static_cast<int>(g.options.size()))
        << "group " << i;
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
  EXPECT_EQ(result.survivors, survivors);
  EXPECT_EQ(result.gpus_used, gpus);
  EXPECT_EQ(result.running, running);
  EXPECT_LE(result.gpus_used, inst.capacity);
  EXPECT_TRUE(WorkNearlyEqual(result.work, work))
      << "accounted work " << result.work << " vs summed "
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

// ---------------------------------------------------------------
// The differential sweep
// ---------------------------------------------------------------

void
RunDifferentialCase(std::uint64_t seed, bool odd_widths)
{
  const Instance inst = GenInstance(seed, odd_widths);
  const int n = static_cast<int>(inst.groups.size());

  PackScratch scratch;
  PackResult dp_result;
  PackRoundInto(inst.groups.data(), n, inst.capacity, &scratch,
                &dp_result);

  // Invariant 1: the result is feasible and accounted.
  ValidateResult(inst, dp_result);

  // Invariant 2: the DP matches the seed nested-vector oracle.
  ExpectBitIdentical(dp_result,
                     oracle::PackRoundReference(inst.groups, inst.capacity));

  // Invariant 3 (small instances): the exhaustive oracle agrees with
  // the DP on the full objective.
  if (n <= 6 && inst.capacity <= 8) {
    const PackResult exhaustive =
        oracle::PackRoundExhaustive(inst.groups, inst.capacity);
    EXPECT_EQ(dp_result.survivors, exhaustive.survivors);
    EXPECT_TRUE(WorkNearlyEqual(dp_result.work, exhaustive.work))
        << "dp work " << dp_result.work << " vs exhaustive "
        << exhaustive.work;
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
  // Each shard covers 20 seeds in both width regimes; the suite
  // totals 260 seeds x 2 regimes, comfortably past the 200-workload
  // floor the harness promises.
  const std::uint64_t base = static_cast<std::uint64_t>(GetParam()) * 20;
  const auto pinned = PinnedSeed();
  for (std::uint64_t offset = 0; offset < 20; ++offset) {
    const std::uint64_t seed = base + offset;
    if (pinned.has_value() && seed != *pinned) continue;
    for (const bool odd_widths : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (odd_widths ? " odd_widths" : " pow2"));
      RunDifferentialCase(seed, odd_widths);
      if (::testing::Test::HasFailure()) {
        const Instance inst = GenInstance(seed, odd_widths);
        const std::string path = DumpReplay(inst, seed, odd_widths);
        FAIL() << "invariant violation at seed " << seed
               << "; replay with TETRI_PACKER_SEED=" << seed
               << " (instance dumped to " << path << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PackerDifferential,
                         ::testing::Range(0, 13));

}  // namespace
}  // namespace tetri::packers
