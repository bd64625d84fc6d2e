/**
 * @file
 * RequestTracker incremental bookkeeping, checked against brute force.
 *
 * The tracker keeps a running active count and a queued-membership set
 * so that NumActive() and Schedulable(now) cost O(working set). The
 * differential sweep drives seeded random operation sequences (admits
 * with past and future arrivals, kQueued <-> kRunning requeues,
 * terminal transitions from both live states, deadline edits through
 * held references) and after every operation compares both queries to
 * a recount over every request ever admitted — the original O(all)
 * algorithm, kept here as the oracle. A second test pins reference
 * stability: references from Admit and pointers from Schedulable must
 * survive any number of later admissions.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "serving/request_tracker.h"
#include "util/rng.h"

namespace tetri::serving {
namespace {

workload::TraceRequest
MakeMeta(RequestId id, TimeUs arrival, TimeUs deadline)
{
  workload::TraceRequest meta;
  meta.id = id;
  meta.arrival_us = arrival;
  meta.deadline_us = deadline;
  meta.resolution = costmodel::Resolution::k512;
  meta.num_steps = 10;
  return meta;
}

/** The pre-incremental NumActive: count over every admitted request. */
int
OracleNumActive(const std::vector<Request*>& all)
{
  int count = 0;
  for (const Request* req : all) {
    if (req->Active()) ++count;
  }
  return count;
}

/** The pre-incremental Schedulable: filter and sort every request. */
std::vector<Request*>
OracleSchedulable(const std::vector<Request*>& all, TimeUs now)
{
  std::vector<Request*> out;
  for (Request* req : all) {
    if (req->state == RequestState::kQueued && req->Arrived(now)) {
      out.push_back(req);
    }
  }
  std::sort(out.begin(), out.end(), [](const Request* a, const Request* b) {
    if (a->meta.deadline_us != b->meta.deadline_us) {
      return a->meta.deadline_us < b->meta.deadline_us;
    }
    return a->meta.id < b->meta.id;
  });
  return out;
}

/** Uniformly pick an admitted request currently in @p state, or null. */
Request*
PickInState(const std::vector<Request*>& all, RequestState state, Rng* rng)
{
  std::vector<Request*> candidates;
  for (Request* req : all) {
    if (req->state == state) candidates.push_back(req);
  }
  if (candidates.empty()) return nullptr;
  return candidates[rng->NextBelow(candidates.size())];
}

RequestState
PickTerminal(Rng* rng)
{
  constexpr RequestState kTerminal[] = {RequestState::kFinished,
                                        RequestState::kDropped,
                                        RequestState::kCancelled};
  return kTerminal[rng->NextBelow(3)];
}

TEST(RequestTrackerPropertyTest, MatchesBruteForceRecount)
{
  constexpr int kSeeds = 200;
  constexpr int kOpsPerSeed = 400;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(static_cast<std::uint64_t>(seed));
    RequestTracker tracker;
    std::vector<Request*> all;  // references returned by Admit
    TimeUs now = 0;
    RequestId next_id = 0;
    for (int op = 0; op < kOpsPerSeed; ++op) {
      const std::uint64_t kind = rng.NextBelow(7);
      if (kind <= 1) {
        // Admit; half the arrivals lie in the future, so Schedulable's
        // arrival filter matters. Deadlines collide on purpose to
        // exercise the id tie-break.
        const TimeUs arrival =
            now + static_cast<TimeUs>(rng.NextBelow(200)) - 100;
        const TimeUs deadline =
            arrival + 1 + static_cast<TimeUs>(rng.NextBelow(8)) * 50;
        Request& req = tracker.Admit(MakeMeta(next_id++, arrival, deadline));
        all.push_back(&req);
      } else if (kind == 2) {
        if (Request* req = PickInState(all, RequestState::kQueued, &rng)) {
          tracker.Transition(*req, RequestState::kRunning, now);
        }
      } else if (kind == 3) {
        // Requeue (assignment finished or aborted).
        if (Request* req = PickInState(all, RequestState::kRunning, &rng)) {
          tracker.Transition(*req, RequestState::kQueued, now);
        }
      } else if (kind == 4) {
        // Terminal transition from either live state.
        const RequestState from = rng.NextBelow(2) == 0
                                      ? RequestState::kQueued
                                      : RequestState::kRunning;
        if (Request* req = PickInState(all, from, &rng)) {
          tracker.Transition(*req, PickTerminal(&rng), now);
        }
      } else if (kind == 5) {
        // Deadline edit through the reference Admit returned.
        if (!all.empty()) {
          Request* req = all[rng.NextBelow(all.size())];
          req->meta.deadline_us =
              req->meta.arrival_us + 1 +
              static_cast<TimeUs>(rng.NextBelow(8)) * 50;
        }
      } else {
        now += static_cast<TimeUs>(rng.NextBelow(60));
      }

      ASSERT_EQ(tracker.NumActive(), OracleNumActive(all)) << "op " << op;
      ASSERT_EQ(tracker.Schedulable(now), OracleSchedulable(all, now))
          << "op " << op;
    }
    for (Request* req : all) {
      ASSERT_EQ(&tracker.Get(req->meta.id), req);
    }
  }
}

TEST(RequestTrackerPropertyTest, RecordsFollowAdmissionOrder)
{
  RequestTracker tracker;
  const RequestId ids[] = {5, 2, 9, 0};
  for (RequestId id : ids) tracker.Admit(MakeMeta(id, 0, 100));
  tracker.Transition(tracker.Get(2), RequestState::kFinished, 10);
  const auto records = tracker.Records();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].id, ids[i]);
  }
}

TEST(RequestTrackerPropertyTest, ReferencesSurviveLaterAdmissions)
{
  RequestTracker tracker;
  Request& first = tracker.Admit(MakeMeta(0, 0, 1000));
  tracker.Admit(MakeMeta(1, 0, 500));
  const std::vector<Request*> held = tracker.Schedulable(0);
  ASSERT_EQ(held.size(), 2u);

  for (RequestId id = 2; id < 10'002; ++id) {
    tracker.Admit(MakeMeta(id, 0, 10'000 + id));
  }

  // Read through the stale handles: with storage that relocates on
  // growth these are dangling, which the sanitizer jobs flag.
  EXPECT_EQ(first.meta.id, 0);
  EXPECT_EQ(first.meta.deadline_us, 1000);
  EXPECT_EQ(&first, &tracker.Get(0));
  EXPECT_EQ(held[0]->meta.id, 1);
  EXPECT_EQ(held[1]->meta.id, 0);
  EXPECT_EQ(held[0], &tracker.Get(1));
  tracker.Transition(first, RequestState::kRunning, 0);
  EXPECT_EQ(tracker.NumActive(), 10'002);
  EXPECT_EQ(tracker.Schedulable(0).size(), 10'001u);
}

TEST(RequestTrackerPropertyTest, TerminalTransitionsLeaveTheWorkingSet)
{
  RequestTracker tracker;
  for (RequestId id = 0; id < 4; ++id) {
    tracker.Admit(MakeMeta(id, 0, 100 + id));
  }
  tracker.Transition(tracker.Get(1), RequestState::kRunning, 1);
  tracker.Transition(tracker.Get(1), RequestState::kFinished, 2);
  tracker.Transition(tracker.Get(3), RequestState::kDropped, 2);
  EXPECT_EQ(tracker.NumActive(), 2);
  const auto list = tracker.Schedulable(5);
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0]->meta.id, 0);
  EXPECT_EQ(list[1]->meta.id, 2);
}

TEST(RequestTrackerDeathTest, TransitionOfForeignRequestPanics)
{
  RequestTracker tracker;
  tracker.Admit(MakeMeta(0, 0, 100));
  Request stranger;
  stranger.meta = MakeMeta(0, 0, 100);
  EXPECT_DEATH(tracker.Transition(stranger, RequestState::kRunning, 0),
               "not owned");
}

}  // namespace
}  // namespace tetri::serving
