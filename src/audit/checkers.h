/**
 * @file
 * The concrete invariant checkers (one per scheduler invariant the
 * paper relies on) and helpers that install the standard suite. Each
 * is a trace sink that switches on the event kind:
 *
 *  - EventTimeMonotonicityChecker: the virtual clock never runs
 *    backwards and nothing is scheduled in the past.
 *  - GpuConservationChecker: round plans use only free GPUs, worker
 *    sets are disjoint, no GPU outside the node is touched, and every
 *    sequence-parallel degree is a power of two; at the engine level,
 *    dispatch/complete never oversubscribe a GPU.
 *  - RequestLifecycleChecker: request state transitions follow the
 *    legal machine Queued->Running->{Queued,Finished}, Queued->Dropped.
 *  - DeadlineAccountingChecker: deadlines are after arrivals, a
 *    dispatch never exceeds a member's remaining steps, batch members
 *    share a resolution, step accounting adds up exactly at finish,
 *    and scheduler invocations move forward in time.
 *  - LatentLifetimeChecker: a request's latent buffer is never
 *    assigned after release (use-after-release) or released twice.
 *  - GpuHealthChecker: no plan, dispatch, or latent placement ever
 *    touches a GPU that failed and has not recovered; fail/recover
 *    notifications bracket sanely.
 *  - RequestConservationChecker: every admitted request reaches
 *    exactly one terminal state (finished/dropped/cancelled) by end of
 *    run — no request is silently lost or counted twice across
 *    failures and requeues.
 *  - CostModelSanityChecker: profiled latencies are finite, positive,
 *    and monotone in resolution; runs once over the table at install.
 *
 * Every event is O(1) amortized per checker (IdTable lookups and bit
 * operations; a kComplete walks its flight's members); the cost-model
 * sweep is O(table) once.
 */
#ifndef TETRI_AUDIT_CHECKERS_H
#define TETRI_AUDIT_CHECKERS_H

#include <functional>
#include <vector>

#include "audit/audit.h"
#include "audit/id_table.h"
#include "costmodel/resolution.h"

namespace tetri::costmodel {
class LatencyTable;
}  // namespace tetri::costmodel

namespace tetri::audit {

/** Virtual-time monotonicity of the event queue. */
class EventTimeMonotonicityChecker final : public Checker {
 public:
  EventTimeMonotonicityChecker();
  std::string_view name() const override {
    return "event-time-monotonicity";
  }
  void OnEvent(const TraceEvent& event) override;
};

/** Per-round GPU conservation and power-of-two SP degrees. */
class GpuConservationChecker final : public Checker {
 public:
  GpuConservationChecker();
  std::string_view name() const override { return "gpu-conservation"; }
  void OnEvent(const TraceEvent& event) override;

 private:
  /** The current kRoundPlan's free GPUs and node, and the GPUs its
   * assignments booked so far. */
  GpuMask round_free_ = 0;
  GpuMask round_all_ = 0;
  GpuMask round_used_ = 0;
  /** GPUs currently executing, mirrored from dispatch/complete. */
  GpuMask busy_ = 0;
};

/** Failed GPUs never receive work until they recover. */
class GpuHealthChecker final : public Checker {
 public:
  GpuHealthChecker();
  std::string_view name() const override { return "gpu-health"; }
  void OnEvent(const TraceEvent& event) override;

 private:
  /** GPUs currently failed, mirrored from fail/recover events. */
  GpuMask failed_ = 0;
};

/**
 * Every admitted request reaches exactly one terminal state (finished,
 * dropped or cancelled) by the end of the run, and the terminal counts
 * reconcile exactly — completed + dropped + cancelled == admitted —
 * under any schedule of failures, requeues, and retries. Double
 * admission, terminal transitions for unknown requests, and double
 * terminals are violations too, so a watchdog requeue racing a late
 * worker completion cannot silently count a request twice. Serves
 * both the simulated serving loop and the concurrent runtime.
 */
class RequestConservationChecker final : public Checker {
 public:
  RequestConservationChecker();
  std::string_view name() const override {
    return "request-conservation";
  }
  void OnEvent(const TraceEvent& event) override;

  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::size_t open_count() const {
    return admitted_ - completed_ - dropped_ - cancelled_;
  }

 private:
  void OnTransition(const TraceEvent& event);
  void OnRunEnd(TimeUs now);

  /** Admitted requests; true once they reached a terminal state. */
  IdTable<bool> terminal_;
  std::uint64_t admitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t cancelled_ = 0;
};

/** Request state-machine legality. */
class RequestLifecycleChecker final : public Checker {
 public:
  RequestLifecycleChecker();
  std::string_view name() const override { return "request-lifecycle"; }
  void OnEvent(const TraceEvent& event) override;

 private:
  void OnTransition(const TraceEvent& event);

  /** Tracked state per request (serving::RequestState as int). */
  IdTable<int> state_;
};

/**
 * Deadline and per-step accounting consistency. The members a
 * kComplete credits are the kMember events of the in-flight kDispatch
 * on the same GPU set (in-flight sets are disjoint); their id lists
 * live in reused flight slots.
 */
class DeadlineAccountingChecker final : public Checker {
 public:
  DeadlineAccountingChecker();
  std::string_view name() const override {
    return "deadline-accounting";
  }
  void OnEvent(const TraceEvent& event) override;

 private:
  struct Account {
    TimeUs deadline_us = 0;
    int num_steps = 0;
    int steps_done = 0;
  };
  /** One in-flight dispatch; mask == 0 marks a free slot. */
  struct Flight {
    GpuMask mask = 0;
    std::vector<RequestId> members;
  };

  void OnAdmit(const TraceEvent& event);
  void OnRoundPlan(const TraceEvent& event);
  void OnDispatch(const TraceEvent& event);
  void OnMember(const TraceEvent& event);
  /** Close the flight on @p event's mask, crediting its members with
   * @p credit steps each. */
  void OnRelease(const TraceEvent& event, bool credit);
  void OnTransition(const TraceEvent& event);

  IdTable<Account> accounts_;
  std::vector<Flight> flights_;
  /** The latest kDispatch, which the kMember events that follow it
   * belong to; null once its flight closed. */
  Flight* open_ = nullptr;
  int open_steps_ = 0;
  /** Resolution of the open dispatch's first member; -1 before it. */
  int open_resolution_ = -1;
  TimeUs last_plan_now_ = 0;
};

/** Latent buffer lifetime: no use-after-release, no double release. */
class LatentLifetimeChecker final : public Checker {
 public:
  LatentLifetimeChecker();
  std::string_view name() const override { return "latent-lifetime"; }
  void OnEvent(const TraceEvent& event) override;

 private:
  /** Requests whose latent was released. */
  IdTable<bool> released_;
};

/** Profiled latency-table sanity (finite, positive, monotone). */
class CostModelSanityChecker final : public Checker {
 public:
  /**
   * Functional view over a latency table. Validate() builds one from
   * the real LatencyTable; tests can hand ValidateView a synthetic
   * view to exercise the violation paths.
   */
  struct TableView {
    std::vector<int> degrees;
    int max_batch = 1;
    std::function<double(costmodel::Resolution, int, int)> step_us;
    std::function<double(costmodel::Resolution, int, int)> cv;
    std::function<double(costmodel::Resolution, int, int)> gpu_us;
    std::function<double(costmodel::Resolution)> vae_us;
  };

  explicit CostModelSanityChecker(const costmodel::LatencyTable* table);
  std::string_view name() const override { return "costmodel-sanity"; }
  /** Reads no event: the sweep runs at install. */
  void OnEvent(const TraceEvent& /*event*/) override {}

  /** Sweep the whole table once; reports one violation per bad cell. */
  void Validate();

  /** Sweep an arbitrary table view (testing entry point). */
  void ValidateView(const TableView& view);

 private:
  const costmodel::LatencyTable* table_;
};

/**
 * Install the seven runtime checkers (everything except the cost-model
 * sweep, which needs a latency table).
 */
void InstallStandardCheckers(Auditor& auditor);

/** Install the cost-model checker and validate @p table immediately. */
CostModelSanityChecker& InstallCostModelChecker(
    Auditor& auditor, const costmodel::LatencyTable* table);

}  // namespace tetri::audit

#endif  // TETRI_AUDIT_CHECKERS_H
