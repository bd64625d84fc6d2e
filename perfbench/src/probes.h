/**
 * @file
 * Observers the benchmark attaches from outside the program. Nothing
 * here changes what the serving code does: the scheduler decorator
 * forwards every call, and the sinks only read the events the program
 * already emits. Each observer stamps the host monotonic clock when it
 * is called, which is how per-layer self time is measured without
 * adding timers under src/.
 */
#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cluster/topology.h"
#include "costmodel/latency_table.h"
#include "report.h"
#include "serving/scheduler.h"
#include "trace/sink.h"
#include "workload/trace.h"

namespace perfbench {

/** Told when a wrapped Plan() starts and returns. */
class PlanObserver {
 public:
  virtual ~PlanObserver() = default;
  virtual void OnPlanEnter(std::int64_t ns) = 0;
  virtual void OnPlanExit(const tetri::serving::RoundPlan& plan,
                          std::int64_t ns) = 0;
};

/** What the decorator saw of Plan(), mergeable across runs. */
struct PlanStats {
  /** Host microseconds of each Plan() call, in call order. */
  std::vector<double> plan_us;
  /** Sum and maximum of the schedulable queue depth handed to Plan(). */
  double depth_sum = 0.0;
  std::size_t depth_max = 0;
  std::uint64_t assignments = 0;

  void Merge(const PlanStats& o);
  /** Sets the core.* metrics. */
  void Report(perfbench::Report* report) const;
};

/**
 * Forwarding Scheduler decorator: times every Plan() and records the
 * depth of the queue it was handed. set_trace is deliberately not
 * forwarded, so the planner emits no decision events and a traced
 * Plan() does the same work as an untraced one.
 */
class TimedScheduler final : public tetri::serving::Scheduler {
 public:
  TimedScheduler(tetri::serving::Scheduler* inner, PlanObserver* observer)
      : inner_(inner), observer_(observer)
  {
  }

  std::string Name() const override { return inner_->Name(); }
  tetri::serving::SchedulingMode Mode() const override
  {
    return inner_->Mode();
  }
  tetri::TimeUs RoundDurationUs() const override
  {
    return inner_->RoundDurationUs();
  }
  tetri::serving::RoundPlan Plan(
      const tetri::serving::ScheduleContext& ctx) override;
  void set_trace(tetri::trace::TraceSink* /*sink*/) override {}

  const PlanStats& stats() const { return stats_; }

 private:
  tetri::serving::Scheduler* inner_;
  PlanObserver* observer_;
  PlanStats stats_;
};

/** Host-time self time of each layer of one ServingSystem::Run. */
struct ReplaySplit {
  /** Run() entry to the first fired event: arrival scheduling, wiring. */
  double prologue_s = 0.0;
  /** Round tick that plans: EventFired -> Plan() entry (Schedulable
   * snapshot + drop filter). */
  double snapshot_s = 0.0;
  /** Plan() entry -> exit, as the decorator saw it. */
  double plan_s = 0.0;
  /** Plan() exit -> last engine event of the tick. */
  double dispatch_s = 0.0;
  /** Last dispatch emission -> round-tick reschedule (next-arrival scan
   * + NumActive). */
  double tick_tail_s = 0.0;
  /** Round tick with nothing to plan: snapshot, scan and NumActive
   * cannot be told apart, so they are booked together. */
  double idle_tick_s = 0.0;
  /** Events other than round ticks (arrivals, completions, faults),
   * EventFired -> next EventFired. */
  double event_s = 0.0;
  /** Round tick reschedule -> next EventFired (event-queue pop). */
  double queue_pop_s = 0.0;
  /** kRunEnd -> Run() return (records, recovery counters). */
  double epilogue_s = 0.0;
  /** Handlers whose event pattern the probe could not classify. */
  double unattributed_s = 0.0;
  std::uint64_t events_fired = 0;
  std::uint64_t other_events = 0;
  std::uint64_t plan_ticks = 0;
  std::uint64_t idle_ticks = 0;
  /** Requests whose virtual parts did not sum to their latency. */
  std::uint64_t decomposition_mismatches = 0;

  double Attributed() const
  {
    return prologue_s + snapshot_s + plan_s + dispatch_s + tick_tail_s +
           idle_tick_s + event_s + queue_pop_s + epilogue_s;
  }
  void Merge(const ReplaySplit& o);
};

/** Virtual-time latency parts of one completed request, seconds. */
struct LatencyParts {
  double latency = 0.0;
  double queue_wait = 0.0;
  double transfer_stall = 0.0;
  double execution = 0.0;
  double tail = 0.0;
};

/**
 * Single-threaded probe for one ServingSystem::Run: a trace sink plus
 * a PlanObserver on the same clock. It attributes the host time between
 * consecutive emissions to layers (ReplaySplit), rebuilds each request's
 * virtual-time latency from the lifecycle events, and prices every
 * engine dispatch against the latency table.
 */
class ReplayProbe final : public tetri::trace::TraceSink,
                          public PlanObserver {
 public:
  ReplayProbe(const tetri::workload::Trace* trace,
              const tetri::costmodel::LatencyTable* table,
              const tetri::cluster::Topology* topology);

  /** Stamp the Run() call; call immediately before it. */
  void Begin();
  /** Stamp the Run() return; call immediately after it. */
  void End();

  void OnEvent(const tetri::trace::TraceEvent& event) override;
  void OnPlanEnter(std::int64_t ns) override;
  void OnPlanExit(const tetri::serving::RoundPlan& plan,
                  std::int64_t ns) override;

  const ReplaySplit& split() const { return split_; }
  double run_wall_s() const { return run_wall_s_; }
  const std::vector<LatencyParts>& parts() const { return parts_; }
  /** |charged / priced - 1| per engine dispatch. */
  const std::vector<double>& price_error() const { return price_error_; }
  /** The subset on GPU sets that straddle an NVLink island. */
  const std::vector<double>& straddle_price_error() const
  {
    return straddle_price_error_;
  }

 private:
  struct Handler {
    bool open = false;
    bool tick = false;
    bool planned = false;
    int events = 0;
    std::int64_t fired_ns = 0;
    std::int64_t plan_enter_ns = 0;
    std::int64_t plan_exit_ns = 0;
    /** Stamp of the latest emission (or Plan exit) and the one before. */
    std::int64_t last_ns = 0;
    std::int64_t prev_ns = 0;
    tetri::trace::TraceEventKind last_kind =
        tetri::trace::TraceEventKind::kRunEnd;
  };
  struct Flight {
    tetri::TimeUs start_us = 0;
    tetri::TimeUs transfer_us = 0;
    std::vector<tetri::RequestId> members;
  };
  struct RequestState {
    tetri::TimeUs ready_us = 0;
    tetri::TimeUs arrival_us = 0;
    tetri::TimeUs queue_us = 0;
    tetri::TimeUs transfer_us = 0;
    tetri::TimeUs exec_us = 0;
  };

  void CloseHandler(std::int64_t next_ns);
  void Decompose(const tetri::trace::TraceEvent& event);
  void EndFlight(const tetri::trace::TraceEvent& event);

  const tetri::workload::Trace* trace_;
  const tetri::costmodel::LatencyTable* table_;
  const tetri::cluster::Topology* topology_;

  ReplaySplit split_;
  Handler handler_;
  std::int64_t run_begin_ns_ = 0;
  std::int64_t run_end_event_ns_ = 0;
  double run_wall_s_ = 0.0;
  bool first_fired_seen_ = false;

  std::vector<RequestState> requests_;
  std::unordered_map<tetri::GpuMask, Flight> flights_;
  /** The dispatch whose kMember events are arriving. */
  tetri::trace::TraceEvent open_dispatch_;
  bool open_dispatch_priced_ = true;
  std::vector<LatencyParts> parts_;
  std::vector<double> price_error_;
  std::vector<double> straddle_price_error_;
};

/** Host-clock stamps of one ServingRuntime phase, per request. */
struct RuntimeHops {
  std::vector<double> admit_wait_us;
  std::vector<double> plan_wait_us;
  std::vector<double> dispatch_wait_us;
  std::vector<double> worker_us;
  std::vector<double> apply_us;
};

/**
 * Thread-safe probe for ServingRuntime: planner, workers and the
 * decorator all report here under one mutex. Requests are indexed by
 * the runtime's dense ids; assignments are matched by GPU mask, which is
 * unique among in-flight assignments.
 */
class RuntimeProbe final : public tetri::trace::TraceSink,
                           public PlanObserver {
 public:
  explicit RuntimeProbe(std::size_t max_requests);

  void OnEvent(const tetri::trace::TraceEvent& event) override;
  void OnPlanEnter(std::int64_t ns) override;
  void OnPlanExit(const tetri::serving::RoundPlan& plan,
                  std::int64_t ns) override;
  /** Call from on_complete. */
  void OnCompletion(tetri::RequestId id, std::int64_t ns);

  /** Producer-side stamp of Submit's return; producer thread only. */
  void SetSubmitReturn(tetri::RequestId id, std::int64_t ns)
  {
    if (Tracked(id)) submit_return_ns_[static_cast<std::size_t>(id)] = ns;
  }

  /** Per-hop samples; call after the runtime has drained. */
  RuntimeHops Hops() const;

 private:
  struct Pending {
    std::int64_t plan_exit_ns = 0;
    std::int64_t dispatch_ns = -1;
    std::vector<tetri::RequestId> members;
  };

  /** Ids past the capacity given at construction are not stamped. */
  bool Tracked(tetri::RequestId id) const
  {
    return id >= 0 && static_cast<std::size_t>(id) < admit_ns_.size();
  }

  mutable std::mutex mu_;
  std::vector<std::int64_t> submit_return_ns_;
  std::vector<std::int64_t> admit_ns_;
  std::vector<std::int64_t> first_plan_ns_;
  std::vector<std::int64_t> complete_ns_;
  std::unordered_map<tetri::GpuMask, Pending> pending_;
  std::vector<double> dispatch_wait_us_;
  std::vector<double> worker_us_;
  std::vector<double> apply_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H
