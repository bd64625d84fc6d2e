#include "packers/dp_packer.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace tetri::packers {

bool
WorkNearlyEqual(double a, double b)
{
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) <= 1e-9 * scale;
}

bool
PackValueBetter(int survivors_a, double work_a, int width_a,
                int survivors_b, double work_b, int width_b)
{
  if (survivors_a != survivors_b) return survivors_a > survivors_b;
  if (!WorkNearlyEqual(work_a, work_b)) return work_a > work_b;
  return width_a < width_b;
}

void
PackScratch::Reserve(int num_groups, int capacity)
{
  const std::size_t row = static_cast<std::size_t>(capacity) + 1;
  const std::size_t table =
      (static_cast<std::size_t>(num_groups) + 1) * row;
  for (int r = 0; r < 2; ++r) {
    if (survivors[r].size() < row) {
      survivors[r].resize(row);
      work[r].resize(row);
      width[r].resize(row);
    }
  }
  if (parent.size() < table) {
    parent.resize(table);
    parent_c.resize(table);
  }
}

void
PackRoundInto(const PackGroup* groups, int num_groups, int capacity,
              PackScratch* scratch, PackResult* result)
{
  TETRI_CHECK(capacity >= 0);
  TETRI_CHECK(scratch != nullptr && result != nullptr);
  TETRI_CHECK(num_groups >= 0 && (num_groups == 0 || groups != nullptr));
  const int row = capacity + 1;
  scratch->Reserve(num_groups, capacity);

  // Row 0: only the zero-width state is reachable. Values live in two
  // rolling rows; only the parent tables span every group.
  scratch->survivors[0][0] = 0;
  scratch->work[0][0] = 0.0;
  scratch->width[0][0] = 0;

  // States wider than `reach` are unreachable after group i: its
  // widest option adds at most that many GPUs to the widest state of
  // row i. Each row is written and scanned only up to its reach, so
  // cells above it may hold a previous call's values and are never
  // read.
  int reach = 0;
  for (int i = 0; i < num_groups; ++i) {
    const PackGroup& group = groups[i];
    const int num_options = static_cast<int>(group.options.size());
    int widest = 0;
    for (const PackOption& opt : group.options) {
      TETRI_CHECK(opt.degree >= 1 && opt.steps >= 1);
      widest = std::max(widest, opt.degree);
    }
    const int cur_reach = reach;
    reach = std::min(capacity, cur_reach + widest);
    const int* cur_sv = scratch->survivors[i & 1].data();
    const double* cur_wk = scratch->work[i & 1].data();
    const int* cur_wd = scratch->width[i & 1].data();
    int* nxt_sv = scratch->survivors[(i + 1) & 1].data();
    double* nxt_wk = scratch->work[(i + 1) & 1].data();
    int* nxt_wd = scratch->width[(i + 1) & 1].data();
    int* par = scratch->parent.data() +
               static_cast<std::size_t>(i + 1) * row;
    int* par_c = scratch->parent_c.data() +
                 static_cast<std::size_t>(i + 1) * row;
    for (int c = 0; c <= reach; ++c) {
      nxt_sv[c] = -1;
      nxt_wk[c] = 0.0;
      nxt_wd[c] = 0;
      par[c] = -2;
      par_c[c] = -1;
    }
    const int idle_bonus = group.survives_if_idle ? 1 : 0;
    for (int c = 0; c <= cur_reach; ++c) {
      if (cur_sv[c] < 0) continue;
      // Option `none`.
      {
        const int cand_sv = cur_sv[c] + idle_bonus;
        if (PackValueBetter(cand_sv, cur_wk[c], cur_wd[c], nxt_sv[c],
                            nxt_wk[c], nxt_wd[c])) {
          nxt_sv[c] = cand_sv;
          nxt_wk[c] = cur_wk[c];
          nxt_wd[c] = cur_wd[c];
          par[c] = -1;
          par_c[c] = c;
        }
      }
      // Concrete allocations.
      for (int oi = 0; oi < num_options; ++oi) {
        const PackOption& opt = group.options[oi];
        const int nc = c + opt.degree;
        if (nc > capacity) continue;
        const int cand_sv = cur_sv[c] + (opt.survives ? 1 : 0);
        const double cand_wk = cur_wk[c] + opt.work;
        const int cand_wd = cur_wd[c] + opt.degree;
        if (PackValueBetter(cand_sv, cand_wk, cand_wd, nxt_sv[nc],
                            nxt_wk[nc], nxt_wd[nc])) {
          nxt_sv[nc] = cand_sv;
          nxt_wk[nc] = cand_wk;
          nxt_wd[nc] = cand_wd;
          par[nc] = oi;
          par_c[nc] = c;
        }
      }
    }
  }

  // Pick the best final state over all reachable widths.
  const int* fin_sv = scratch->survivors[num_groups & 1].data();
  const double* fin_wk = scratch->work[num_groups & 1].data();
  const int* fin_wd = scratch->width[num_groups & 1].data();
  int best_c = 0;
  for (int c = 1; c <= reach; ++c) {
    if (fin_sv[c] >= 0 &&
        PackValueBetter(fin_sv[c], fin_wk[c], fin_wd[c], fin_sv[best_c],
                        fin_wk[best_c], fin_wd[best_c])) {
      best_c = c;
    }
  }

  result->choice.assign(num_groups, -1);
  result->running = 0;
  int c = best_c;
  for (int i = num_groups; i >= 1; --i) {
    const int* par =
        scratch->parent.data() + static_cast<std::size_t>(i) * row;
    const int* par_c =
        scratch->parent_c.data() + static_cast<std::size_t>(i) * row;
    TETRI_CHECK(par[c] >= -1);
    result->choice[i - 1] = par[c];
    c = par_c[c];
  }
  result->survivors = fin_sv[best_c];
  result->gpus_used = fin_wd[best_c];
  result->work = fin_wk[best_c];
  for (int choice : result->choice) {
    if (choice >= 0) ++result->running;
  }
}

}  // namespace tetri::packers
