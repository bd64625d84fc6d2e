#include "oracle/packing.h"

#include <functional>

#include "util/check.h"

namespace tetri::oracle {

using packers::PackGroup;
using packers::PackOption;
using packers::PackResult;
using packers::PackValueBetter;

namespace {

/** Lexicographic DP value: survivors desc, work desc, width asc. */
struct Value {
  int survivors = -1;  // -1 marks unreachable states
  double work = 0.0;
  int width = 0;

  bool Reachable() const { return survivors >= 0; }

  bool BetterThan(const Value& other) const {
    return PackValueBetter(survivors, work, width, other.survivors,
                           other.work, other.width);
  }
};

}  // namespace

PackResult
PackRoundReference(const std::vector<PackGroup>& groups, int capacity)
{
  TETRI_CHECK(capacity >= 0);
  const int num_groups = static_cast<int>(groups.size());

  // dp[i][c]: best value after deciding groups [0, i) with total width
  // exactly <= c handled by allowing the none option everywhere and
  // scanning all c at the end. parent[i][c] = chosen option index.
  std::vector<std::vector<Value>> dp(
      num_groups + 1, std::vector<Value>(capacity + 1));
  std::vector<std::vector<int>> parent(
      num_groups + 1, std::vector<int>(capacity + 1, -2));
  std::vector<std::vector<int>> parent_c(
      num_groups + 1, std::vector<int>(capacity + 1, -1));

  dp[0][0] = Value{0, 0, 0};
  for (int i = 0; i < num_groups; ++i) {
    const PackGroup& group = groups[i];
    for (int c = 0; c <= capacity; ++c) {
      if (!dp[i][c].Reachable()) continue;
      // Option `none`.
      {
        Value candidate = dp[i][c];
        candidate.survivors += group.survives_if_idle ? 1 : 0;
        if (candidate.BetterThan(dp[i + 1][c])) {
          dp[i + 1][c] = candidate;
          parent[i + 1][c] = -1;
          parent_c[i + 1][c] = c;
        }
      }
      // Concrete allocations.
      for (int oi = 0; oi < static_cast<int>(group.options.size());
           ++oi) {
        const PackOption& opt = group.options[oi];
        TETRI_CHECK(opt.degree >= 1 && opt.steps >= 1);
        const int nc = c + opt.degree;
        if (nc > capacity) continue;
        Value candidate = dp[i][c];
        candidate.survivors += opt.survives ? 1 : 0;
        candidate.work += opt.work;
        candidate.width += opt.degree;
        if (candidate.BetterThan(dp[i + 1][nc])) {
          dp[i + 1][nc] = candidate;
          parent[i + 1][nc] = oi;
          parent_c[i + 1][nc] = c;
        }
      }
    }
  }

  // Pick the best final state over all capacities.
  int best_c = 0;
  for (int c = 1; c <= capacity; ++c) {
    if (dp[num_groups][c].Reachable() &&
        dp[num_groups][c].BetterThan(dp[num_groups][best_c])) {
      best_c = c;
    }
  }

  PackResult result;
  result.choice.assign(num_groups, -1);
  int c = best_c;
  for (int i = num_groups; i >= 1; --i) {
    TETRI_CHECK(parent[i][c] >= -1);
    result.choice[i - 1] = parent[i][c];
    c = parent_c[i][c];
  }
  const Value& best = dp[num_groups][best_c];
  result.survivors = best.survivors;
  result.gpus_used = best.width;
  result.work = best.work;
  for (int choice : result.choice) {
    if (choice >= 0) ++result.running;
  }
  return result;
}

PackResult
PackRoundExhaustive(const std::vector<PackGroup>& groups, int capacity)
{
  const int num_groups = static_cast<int>(groups.size());
  PackResult best;
  best.survivors = -1;
  std::vector<int> choice(num_groups, -1);

  std::function<void(int, int, int, double)> recurse =
      [&](int i, int used, int survivors, double work) {
        if (used > capacity) return;
        if (i == num_groups) {
          // Shared comparator: DP and exhaustive must agree on which
          // packings tie (epsilon on work) and how ties break.
          const bool better =
              best.survivors < 0 ||
              PackValueBetter(survivors, work, used, best.survivors,
                              best.work, best.gpus_used);
          if (better) {
            best.choice = choice;
            best.survivors = survivors;
            best.gpus_used = used;
            best.work = work;
            best.running = 0;
            for (int ch : choice) {
              if (ch >= 0) ++best.running;
            }
          }
          return;
        }
        const PackGroup& group = groups[i];
        choice[i] = -1;
        recurse(i + 1, used,
                survivors + (group.survives_if_idle ? 1 : 0), work);
        for (int oi = 0; oi < static_cast<int>(group.options.size());
             ++oi) {
          choice[i] = oi;
          recurse(i + 1, used + group.options[oi].degree,
                  survivors + (group.options[oi].survives ? 1 : 0),
                  work + group.options[oi].work);
        }
        choice[i] = -1;
      };
  recurse(0, 0, 0, 0.0);
  return best;
}

}  // namespace tetri::oracle
