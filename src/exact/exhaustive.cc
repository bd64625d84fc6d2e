#include "exact/exhaustive.h"

#include <algorithm>
#include <limits>

#include "cluster/gpu_set.h"
#include "util/check.h"
#include "util/wallclock.h"

namespace tetri::exact {

namespace {

struct SearchState {
  const costmodel::LatencyTable* table;
  int num_gpus;
  const std::vector<ExactRequest>* requests;
  double timeout_seconds;
  std::vector<int> degrees;  // searchable degrees, descending
  util::WallTimer timer;

  std::vector<double> gpu_free;     // per-GPU next free time (us)
  std::vector<int> steps_done;      // per-request progress
  std::vector<double> ready;        // per-request earliest next start
  std::vector<bool> missed;         // deadline already blown
  std::vector<double> min_step_us;  // fastest step time per request
  std::vector<double> min_gpu_us;   // cheapest GPU-time per step

  int best_met = -1;
  double best_gpu_us = 0.0;
  double used_gpu_us = 0.0;
  std::int64_t nodes = 0;
  bool timed_out = false;

  bool Expired() {
    if (timed_out) return true;
    // Check the clock every few thousand nodes to keep overhead low.
    if ((nodes & 0xFFF) == 0) {
      const double elapsed = timer.ElapsedSec();
      if (elapsed > timeout_seconds) timed_out = true;
    }
    return timed_out;
  }
};

void
Record(SearchState& st)
{
  int met = 0;
  for (std::size_t i = 0; i < st.requests->size(); ++i) {
    if (!st.missed[i]) ++met;
  }
  if (met > st.best_met ||
      (met == st.best_met && st.used_gpu_us < st.best_gpu_us)) {
    st.best_met = met;
    st.best_gpu_us = st.used_gpu_us;
  }
}

void
Search(SearchState& st)
{
  ++st.nodes;
  if (st.Expired()) return;

  // Upper bound prune on the primary objective (requests met) and,
  // on ties, the secondary objective (GPU time): even with every
  // remaining step at its cheapest degree, can this branch beat the
  // incumbent?
  int done_or_alive = 0;
  bool all_done = true;
  double optimistic_gpu = st.used_gpu_us;
  for (std::size_t i = 0; i < st.requests->size(); ++i) {
    if (!st.missed[i]) ++done_or_alive;
    const int left = (*st.requests)[i].steps - st.steps_done[i];
    if (left > 0) all_done = false;
    optimistic_gpu += left * st.min_gpu_us[i];
  }
  if (done_or_alive < st.best_met) return;
  if (done_or_alive == st.best_met &&
      optimistic_gpu >= st.best_gpu_us) {
    return;
  }
  if (all_done) {
    Record(st);
    return;
  }

  // Choose the next step to place: branch over every unfinished
  // request, every searchable degree (fastest first, so good schedules
  // are found early and the bound prunes aggressively), every GPU
  // subset.
  for (std::size_t i = 0; i < st.requests->size(); ++i) {
    const ExactRequest& req = (*st.requests)[i];
    if (st.steps_done[i] >= req.steps) continue;
    for (int k : st.degrees) {
      if (k > st.num_gpus) continue;
      const double step_us =
          st.table->StepTimeUs(req.resolution, k);
      for (GpuMask mask : cluster::AllSubsetsOfSize(
               cluster::FullMask(st.num_gpus), k)) {
        double start = st.ready[i];
        for (int g : cluster::GpuIndices(mask)) {
          start = std::max(start, st.gpu_free[g]);
        }
        const double end = start + step_us;

        // Apply.
        std::vector<double> saved_free;
        for (int g : cluster::GpuIndices(mask)) {
          saved_free.push_back(st.gpu_free[g]);
          st.gpu_free[g] = end;
        }
        const double saved_ready = st.ready[i];
        const bool saved_missed = st.missed[i];
        st.ready[i] = end;
        st.steps_done[i] += 1;
        st.used_gpu_us += k * step_us;
        // Miss detection with an optimistic remaining-work bound, so
        // hopeless branches are recognized as early as possible.
        const double optimistic_finish =
            end + (req.steps - st.steps_done[i]) * st.min_step_us[i];
        if (optimistic_finish > static_cast<double>(req.deadline_us)) {
          st.missed[i] = true;
        }

        Search(st);

        // Undo.
        st.steps_done[i] -= 1;
        st.ready[i] = saved_ready;
        st.missed[i] = saved_missed;
        st.used_gpu_us -= k * step_us;
        std::size_t idx = 0;
        for (int g : cluster::GpuIndices(mask)) {
          st.gpu_free[g] = saved_free[idx++];
        }
        if (st.timed_out) return;
      }
    }
  }
}

}  // namespace

ExactResult
SolveExhaustive(const costmodel::LatencyTable& table, int num_gpus,
                const std::vector<ExactRequest>& requests,
                double timeout_seconds)
{
  TETRI_CHECK(num_gpus >= 1 && num_gpus <= 16);
  SearchState st;
  st.table = &table;
  st.num_gpus = num_gpus;
  st.requests = &requests;
  st.timeout_seconds = timeout_seconds;
  st.degrees = table.degrees();
  std::sort(st.degrees.rbegin(), st.degrees.rend());
  TETRI_CHECK(!st.degrees.empty());
  st.timer.Restart();
  st.gpu_free.assign(num_gpus, 0.0);
  st.steps_done.assign(requests.size(), 0);
  st.missed.assign(requests.size(), false);
  st.ready.clear();
  st.min_step_us.clear();
  for (const ExactRequest& req : requests) {
    st.ready.push_back(static_cast<double>(req.arrival_us));
    // Optimistic per-step bounds over every searchable degree.
    // Admissible: every reachable schedule pays at least these.
    double min_step = std::numeric_limits<double>::infinity();
    double min_gpu = std::numeric_limits<double>::infinity();
    for (int k : st.degrees) {
      min_step = std::min(min_step,
                          table.StepTimeUs(req.resolution, k));
      min_gpu = std::min(min_gpu, table.GpuTimeUs(req.resolution, k));
    }
    st.min_step_us.push_back(min_step);
    st.min_gpu_us.push_back(min_gpu);
  }

  Search(st);

  ExactResult result;
  result.met = std::max(st.best_met, 0);
  result.gpu_seconds = st.best_gpu_us / 1e6;
  result.timed_out = st.timed_out;
  result.wall_seconds = st.timer.ElapsedSec();
  result.nodes = st.nodes;
  return result;
}

}  // namespace tetri::exact
