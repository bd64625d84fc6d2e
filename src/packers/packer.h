/**
 * @file
 * Pluggable Stage-2 round-packer interface.
 *
 * TetriScheduler's Stage 2 consumes per-request option groups
 * (dp_packer.h) and must pick at most one option per group subject to
 * the round's GPU capacity. Historically that choice was hard-wired to
 * the group-knapsack DP; this interface makes the policy pluggable so
 * alternative packers — notably the SET-style utilization-driven
 * progressive-filling packer (progressive.h) — can be compared on the
 * exact same inputs. Two implementations are registered:
 *
 *   "dp"          the group-knapsack DP (PackRoundInto), the default;
 *   "progressive" utilization-driven progressive filling with a
 *                 min-utilization bound and support for
 *                 non-power-of-two degrees (heuristic: feasible but
 *                 not survivor-optimal).
 *
 * Selection is via TetriOptions::packer; the differential harness
 * (tests/packer_differential_test.cc) runs every registered packer on
 * generated workloads and cross-checks feasibility invariants.
 */
#ifndef TETRI_PACKERS_PACKER_H
#define TETRI_PACKERS_PACKER_H

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "packers/dp_packer.h"

namespace tetri::packers {

/** Which Stage-2 packer TetriScheduler runs. */
enum class PackerKind {
  /** The group-knapsack DP (PackRoundInto). */
  kDp = 0,
  /** SET-style progressive filling (progressive.h). */
  kProgressive,
};

/** Tuning shared by MakePacker; packers ignore fields they lack. */
struct PackerOptions {
  /**
   * Minimum utilization the progressive-filling packer accepts
   * (SET-ISCA2023 `min_util`): the chosen set's demand divided by
   * gpus_used x the slowest member's demand-per-GPU. Groups are
   * evicted (smallest demand first) until the bound holds.
   */
  double min_utilization = 0.5;
};

/** One Stage-2 packing policy. Implementations are single-threaded
 * and may keep internal scratch across Pack() calls. */
class RoundPacker {
 public:
  virtual ~RoundPacker() = default;

  /** Registry name ("dp", "progressive"). */
  virtual std::string_view name() const = 0;

  /**
   * Pack the first @p num_groups entries of @p groups into
   * @p capacity GPUs, writing the chosen option per group into
   * @p result (same contract as PackRoundInto). Every implementation
   * must emit a feasible result: gpus_used <= capacity, choice indices
   * in range, and the survivors/gpus_used/running/work accounting
   * consistent with the choices.
   */
  virtual void Pack(const PackGroup* groups, int num_groups,
                    int capacity, PackResult* result) = 0;
};

/** Registry name of a kind. */
std::string_view PackerKindName(PackerKind kind);

/** Parse a registry name; nullopt for unknown names. */
std::optional<PackerKind> PackerKindFromName(std::string_view name);

/** Names of all registered packers. */
std::vector<std::string_view> RegisteredPackerNames();

/** Construct a packer. */
std::unique_ptr<RoundPacker> MakePacker(PackerKind kind,
                                        PackerOptions options = {});

/** Construct by registry name; nullptr for unknown names. */
std::unique_ptr<RoundPacker> MakePacker(std::string_view name,
                                        PackerOptions options = {});

}  // namespace tetri::packers

#endif  // TETRI_PACKERS_PACKER_H
