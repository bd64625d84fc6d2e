#include "runtime/runtime.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "cluster/gpu_set.h"
#include "util/check.h"
#include "util/rng.h"

namespace tetri::runtime {

namespace {

/** Stream constant deriving per-(request, attempt) backoff jitter. */
constexpr std::uint64_t kBackoffStream = 0x9E3779B97F4A7C15ULL;

}  // namespace

ServingRuntime::ServingRuntime(serving::Scheduler* scheduler,
                               const cluster::Topology* topology,
                               const costmodel::LatencyTable* table,
                               RuntimeOptions options)
    : scheduler_(scheduler),
      topology_(topology),
      table_(table),
      options_(std::move(options)),
      chaos_(options_.chaos),
      admissions_(options_.queue_capacity, options_.overflow,
                  options_.tenants),
      plan_latency_us_(metrics::Histogram::LogSpaced(0.1, 1e7, 64))
{
  TETRI_CHECK(scheduler_ != nullptr);
  TETRI_CHECK(topology_ != nullptr);
  TETRI_CHECK(table_ != nullptr);
  TETRI_CHECK(options_.num_workers > 0);
  if (chaos_.enabled() && options_.chaos.worker_crashes > 0) {
    TETRI_CHECK_MSG(options_.watchdog_interval_us > 0.0,
                    "worker-crash chaos requires the watchdog: a crashed "
                    "task is only ever requeued by a watchdog sweep");
  }
  free_gpus_ = topology_->all_gpus();
  if (options_.trace != nullptr) scheduler_->set_trace(options_.trace);
  {
    const util::MutexLock lock(tenant_mu_);
    for (const TenantSpec& spec : options_.tenants) {
      tenant_weight_[spec.id] = spec.weight;
    }
  }
  // Build every slot before spawning any thread: WorkerLoop indexes
  // workers_, so the vector must never reallocate under it.
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<WorkerSlot>());
  }
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { WorkerLoop(i); });
  }
  if (options_.watchdog_interval_us > 0.0) {
    watchdog_ = std::thread([this] { WatchdogLoop(); });
  }
  planner_ = std::thread([this] { PlannerLoop(); });
}

ServingRuntime::~ServingRuntime() { Drain(); }

AdmitOutcome
ServingRuntime::Submit(TenantId tenant, costmodel::Resolution resolution,
                       int num_steps, TimeUs budget_us, RequestId* out_id)
{
  TETRI_CHECK(num_steps > 0);
  workload::TraceRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.arrival_us = NowUs();
  request.deadline_us = request.arrival_us + budget_us;
  request.resolution = resolution;
  request.num_steps = num_steps;
  request.tenant = tenant;
  const RequestId id = request.id;
  const AdmitOutcome outcome = admissions_.Push(std::move(request));
  if (outcome == AdmitOutcome::kAdmitted) {
    if (out_id != nullptr) *out_id = id;
    const util::MutexLock lock(planner_mu_);
    work_pending_ = true;
    planner_cv_.Signal();
  }
  return outcome;
}

AdmitOutcome
ServingRuntime::TrySubmit(TenantId tenant, costmodel::Resolution resolution,
                          int num_steps, TimeUs budget_us,
                          RequestId* out_id)
{
  TETRI_CHECK(num_steps > 0);
  workload::TraceRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.arrival_us = NowUs();
  request.deadline_us = request.arrival_us + budget_us;
  request.resolution = resolution;
  request.num_steps = num_steps;
  request.tenant = tenant;
  const RequestId id = request.id;
  const AdmitOutcome outcome = admissions_.TryPush(std::move(request));
  if (outcome == AdmitOutcome::kAdmitted) {
    if (out_id != nullptr) *out_id = id;
    const util::MutexLock lock(planner_mu_);
    work_pending_ = true;
    planner_cv_.Signal();
  }
  return outcome;
}

void
ServingRuntime::Drain()
{
  const util::MutexLock drain_lock(drain_mu_);
  if (drained_) return;

  // Step 1: shut the front door. Every later Submit sees kClosed;
  // already-queued submissions stay drainable. Close() must complete
  // before the planner can observe draining_, so any Push that
  // succeeded is visible to the planner's next drain.
  admissions_.Close();

  // Step 2: let the planner run rounds until every admitted request is
  // terminal and every in-flight assignment has reported back. The
  // watchdog stays alive here: a worker that crashes during drain
  // still needs its task requeued or the planner would wait forever.
  {
    const util::MutexLock lock(planner_mu_);
    draining_ = true;
    planner_cv_.Signal();
    while (!planner_done_) drained_cv_.Wait(planner_mu_);
  }

  // Step 3: nothing is in flight anymore, so the watchdog has nothing
  // left to recover; stop it before tearing down the worker pool so a
  // sweep can never race a slot join.
  if (watchdog_.joinable()) {
    {
      const util::MutexLock lock(watchdog_mu_);
      watchdog_stop_ = true;
      watchdog_cv_.SignalAll();
    }
    watchdog_.join();
  }

  // Step 4: no more dispatches can appear; close the dispatch queue so
  // idle workers exit, then join everything.
  {
    const util::MutexLock lock(dispatch_mu_);
    dispatch_closed_ = true;
    dispatch_cv_.SignalAll();
  }
  for (const std::unique_ptr<WorkerSlot>& slot : workers_) {
    if (slot->thread.joinable()) slot->thread.join();
  }
  planner_.join();

  if (options_.trace != nullptr) scheduler_->set_trace(nullptr);
  drained_ = true;
}

RuntimeStats
ServingRuntime::stats() const
{
  RuntimeStats snapshot;
  {
    const util::MutexLock lock(stats_mu_);
    snapshot = stats_;
  }
  snapshot.admission = admissions_.counters();
  return snapshot;
}

std::vector<TenantRuntimeStats>
ServingRuntime::tenant_stats() const
{
  std::vector<TenantRuntimeStats> out;
  for (const TenantId id : admissions_.tenant_ids()) {
    TenantRuntimeStats t;
    t.id = id;
    t.admission = admissions_.tenant_counters(id);
    {
      const util::MutexLock lock(tenant_mu_);
      const auto weight = tenant_weight_.find(id);
      if (weight != tenant_weight_.end()) t.weight = weight->second;
      const auto agg = tenant_agg_.find(id);
      if (agg != tenant_agg_.end()) {
        t.completed = agg->second.completed;
        t.dropped = agg->second.dropped;
        t.failed = agg->second.failed;
        if (agg->second.queue_delay != nullptr) {
          t.queue_delay_us = agg->second.queue_delay->Snapshot();
        }
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

metrics::SharedHistogram&
ServingRuntime::TenantDelayHistogram(TenantId tenant)
{
  const util::MutexLock lock(tenant_mu_);
  TenantAgg& agg = tenant_agg_[tenant];
  if (agg.queue_delay == nullptr) {
    agg.queue_delay = std::make_unique<metrics::SharedHistogram>(
        metrics::Histogram::LogSpaced(1.0, 1e8, 48));
  }
  // The pointee is address-stable (unique_ptr in a node-based map) and
  // internally synchronized, so handing the reference out is safe.
  return *agg.queue_delay;
}

void
ServingRuntime::PlannerLoop()
{
  for (;;) {
    planner_heartbeat_us_.store(NowUs(), std::memory_order_relaxed);
    bool draining = false;
    {
      // The only timed waits are the drop-deadline and retry-backoff
      // timers; everything else blocks until a Submit, a completion,
      // or Drain signals the CondVar.
      const double wait_us = NextEventDelayUs(NowUs());
      const util::MutexLock lock(planner_mu_);
      // During drain the planner still blocks while assignments are in
      // flight — their completions signal the CondVar — and only stops
      // waiting once nothing is active, so the exit check below can
      // run. active_ is planner-owned, hence loop-invariant here.
      const bool exit_ready = draining_ && active_.empty();
      if (mailbox_.empty() && !work_pending_ && !exit_ready &&
          admissions_.size() == 0) {
        planner_waiting_.store(true, std::memory_order_relaxed);
        if (wait_us == std::numeric_limits<double>::infinity()) {
          while (mailbox_.empty() && !work_pending_ &&
                 !(draining_ && active_.empty())) {
            planner_cv_.Wait(planner_mu_);
          }
        } else if (wait_us > 0.0) {
          planner_cv_.WaitForUs(planner_mu_, wait_us);
        }
        planner_waiting_.store(false, std::memory_order_relaxed);
      }
      std::swap(completions_, mailbox_);
      work_pending_ = false;
      draining = draining_;
    }
    planner_heartbeat_us_.store(NowUs(), std::memory_order_relaxed);

    // Injected planner stall: the heartbeat freezes while the planner
    // sleeps outside every lock, which is exactly what the watchdog's
    // stall detector looks for.
    const double stall = chaos_.PlannerStallUs(plan_iter_);
    if (stall > 0.0) util::SleepForUs(stall);
    ++plan_iter_;

    for (const CompletionMsg& msg : completions_) ApplyCompletion(msg);
    completions_.clear();

    pending_.clear();
    admissions_.DrainFair(options_.admit_batch_limit, &pending_);
    AdmitPending(&pending_);

    PlanOnce(NowUs());

    if (draining && active_.empty()) {
      const util::MutexLock lock(planner_mu_);
      if (mailbox_.empty()) {
        // The admission queue is closed (Close() precedes draining_)
        // and was drained above; the mailbox is empty and nothing is
        // active, so no event can ever arrive again.
        const TimeUs now = NowUs();
        if (options_.trace != nullptr) {
          trace::TraceEvent ev;
          ev.kind = trace::TraceEventKind::kRunEnd;
          ev.time_us = now;
          options_.trace->OnEvent(ev);
        }
        // Park the heartbeat so the watchdog's stall detector never
        // fires on the planner's own exit.
        planner_waiting_.store(true, std::memory_order_relaxed);
        planner_done_ = true;
        drained_cv_.SignalAll();
        return;
      }
    }

    // Pace the round grid on the monotonic clock.
    if (options_.round_interval_us > 0.0) {
      util::SleepForUs(options_.round_interval_us);
    }
  }
}

void
ServingRuntime::WorkerLoop(int worker)
{
  WorkerSlot* slot = workers_[static_cast<std::size_t>(worker)].get();
  for (;;) {
    DispatchTask task;
    {
      const util::MutexLock lock(dispatch_mu_);
      while (dispatch_.empty() && !dispatch_closed_) {
        dispatch_cv_.Wait(dispatch_mu_);
      }
      if (dispatch_.empty()) {  // closed and fully consumed
        slot->state.store(kWorkerExited, std::memory_order_release);
        return;
      }
      task = std::move(dispatch_.front());
      dispatch_.pop_front();
    }

    // Record pickup in the in-flight registry. The hang deadline uses
    // the *undilated* span — the planner's expectation — so a
    // straggler dilation pushes the task past it by design.
    {
      const util::MutexLock lock(inflight_mu_);
      const auto it = inflight_.find(task.seq);
      if (it != inflight_.end()) {
        it->second.worker = worker;
        if (options_.worker_hang_timeout_us > 0.0) {
          it->second.hang_deadline_us =
              static_cast<double>(NowUs()) +
              static_cast<double>(task.span_us) *
                  options_.execution_time_scale +
              options_.worker_hang_timeout_us;
        }
      }
    }

    if (options_.trace != nullptr) {
      trace::TraceEvent ev;
      ev.kind = trace::TraceEventKind::kDispatch;
      ev.time_us = NowUs();
      ev.dur_us = task.span_us;
      ev.mask = task.assignment.mask;
      ev.degree = cluster::Popcount(task.assignment.mask);
      ev.steps = task.assignment.max_steps;
      ev.batch = static_cast<std::int32_t>(task.assignment.requests.size());
      options_.trace->OnEvent(ev);
    }

    if (options_.execution_time_scale > 0.0) {
      util::SleepForUs(static_cast<double>(task.span_us) *
                       options_.execution_time_scale *
                       chaos_.StragglerFactor(task.seq));
    }

    if (chaos_.ShouldCrash(task.seq)) {
      // Die without reporting and without erasing the registry entry:
      // the watchdog owns this task now. The thread must exit — a
      // crashed worker takes no further tasks.
      slot->state.store(kWorkerCrashed, std::memory_order_release);
      return;
    }

    const bool aborted =
        chaos_.ShouldAbort(task.seq) ||
        (options_.chaos_should_abort &&
         options_.chaos_should_abort(task.assignment));

    // Claim the completion: whoever erases the registry entry owns
    // it. Losing the claim means the watchdog already requeued this
    // task (hang detection); report nothing, or the members would be
    // credited twice.
    bool owns = false;
    {
      const util::MutexLock lock(inflight_mu_);
      owns = inflight_.erase(task.seq) > 0;
    }
    if (!owns) {
      const util::MutexLock lock(stats_mu_);
      ++stats_.recovery.stale_completions;
      continue;
    }

    if (options_.trace != nullptr) {
      trace::TraceEvent ev;
      ev.kind = aborted ? trace::TraceEventKind::kAbort
                        : trace::TraceEventKind::kComplete;
      if (aborted) ev.reason = trace::TraceReason::kGpuFailure;
      ev.time_us = NowUs();
      ev.mask = task.assignment.mask;
      ev.steps = task.assignment.max_steps;
      ev.batch = static_cast<std::int32_t>(task.assignment.requests.size());
      options_.trace->OnEvent(ev);
    }

    {
      const util::MutexLock lock(planner_mu_);
      CompletionMsg msg;
      msg.seq = task.seq;
      msg.assignment = std::move(task.assignment);
      msg.span_us = task.span_us;
      msg.aborted = aborted;
      mailbox_.push_back(std::move(msg));
      planner_cv_.Signal();
    }
  }
}

void
ServingRuntime::WatchdogLoop()
{
  for (;;) {
    {
      const util::MutexLock lock(watchdog_mu_);
      if (!watchdog_stop_) {
        watchdog_cv_.WaitForUs(watchdog_mu_, options_.watchdog_interval_us);
      }
      if (watchdog_stop_) return;
    }
    WatchdogSweep();
  }
}

void
ServingRuntime::WatchdogSweep()
{
  // 1) Dead workers: claim every task the corpse held, requeue it,
  //    and spawn a replacement into the same slot.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    WorkerSlot* slot = workers_[i].get();
    if (slot->state.load(std::memory_order_acquire) != kWorkerCrashed) {
      continue;
    }
    slot->thread.join();
    std::vector<std::pair<std::uint64_t, InflightRecord>> claimed;
    {
      const util::MutexLock lock(inflight_mu_);
      for (auto it = inflight_.begin(); it != inflight_.end();) {
        if (it->second.worker == static_cast<int>(i)) {
          claimed.emplace_back(it->first, std::move(it->second));
          it = inflight_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& [seq, record] : claimed) {
      if (options_.trace != nullptr) {
        trace::TraceEvent ev;
        ev.kind = trace::TraceEventKind::kGpuFail;
        ev.time_us = NowUs();
        ev.mask = record.assignment.mask;
        options_.trace->OnEvent(ev);
      }
      PostWatchdogRequeue(seq, std::move(record));
    }
    slot->state.store(kWorkerRunning, std::memory_order_release);
    const int worker = static_cast<int>(i);
    slot->thread = std::thread([this, worker] { WorkerLoop(worker); });
    {
      const util::MutexLock lock(stats_mu_);
      ++stats_.recovery.worker_crashes;
      ++stats_.recovery.workers_replaced;
      ++stats_.recovery.watchdog_fires;
    }
  }

  // 2) Hung tasks: a picked-up task past its hang deadline is claimed
  //    and requeued; if its worker eventually reports anyway, the
  //    missing registry entry turns that report into a counted stale
  //    completion instead of a double credit.
  if (options_.worker_hang_timeout_us > 0.0) {
    const double host_now = static_cast<double>(NowUs());
    std::vector<std::pair<std::uint64_t, InflightRecord>> hung;
    {
      const util::MutexLock lock(inflight_mu_);
      for (auto it = inflight_.begin(); it != inflight_.end();) {
        if (it->second.hang_deadline_us >= 0.0 &&
            host_now > it->second.hang_deadline_us) {
          hung.emplace_back(it->first, std::move(it->second));
          it = inflight_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& [seq, record] : hung) {
      PostWatchdogRequeue(seq, std::move(record));
    }
    if (!hung.empty()) {
      const util::MutexLock lock(stats_mu_);
      stats_.recovery.hung_tasks += hung.size();
      ++stats_.recovery.watchdog_fires;
    }
  }

  // 3) Planner stall: a stale heartbeat while the planner is not
  //    parked in a wait means it is wedged (or sleeping a chaos stall
  //    window). Each frozen heartbeat value is counted once.
  if (options_.planner_stall_timeout_us > 0.0 &&
      !planner_waiting_.load(std::memory_order_relaxed)) {
    const TimeUs heartbeat =
        planner_heartbeat_us_.load(std::memory_order_relaxed);
    if (static_cast<double>(NowUs() - heartbeat) >
            options_.planner_stall_timeout_us &&
        heartbeat != last_stall_heartbeat_) {
      last_stall_heartbeat_ = heartbeat;
      const util::MutexLock lock(stats_mu_);
      ++stats_.recovery.planner_stalls;
      ++stats_.recovery.watchdog_fires;
    }
  }
}

void
ServingRuntime::PostWatchdogRequeue(std::uint64_t seq,
                                    InflightRecord record)
{
  CompletionMsg msg;
  msg.seq = seq;
  msg.assignment = std::move(record.assignment);
  msg.span_us = record.span_us;
  msg.aborted = true;
  msg.from_watchdog = true;
  const util::MutexLock lock(planner_mu_);
  mailbox_.push_back(std::move(msg));
  planner_cv_.Signal();
}

void
ServingRuntime::QueueInsert(serving::Request* request)
{
  const QueuedRef ref{request->meta.deadline_us, request->meta.id,
                      request};
  const auto pos = std::lower_bound(
      queued_.begin(), queued_.end(), ref,
      [](const QueuedRef& a, const QueuedRef& b) {
        if (a.deadline_us != b.deadline_us) {
          return a.deadline_us < b.deadline_us;
        }
        return a.id < b.id;
      });
  TETRI_CHECK(pos == queued_.end() || pos->request != request);
  queued_.insert(pos, ref);
}

void
ServingRuntime::QueueErase(const serving::Request& request)
{
  const QueuedRef key{request.meta.deadline_us, request.meta.id,
                      nullptr};
  const auto pos = std::lower_bound(
      queued_.begin(), queued_.end(), key,
      [](const QueuedRef& a, const QueuedRef& b) {
        if (a.deadline_us != b.deadline_us) {
          return a.deadline_us < b.deadline_us;
        }
        return a.id < b.id;
      });
  if (pos != queued_.end() && pos->id == key.id) queued_.erase(pos);
}

void
ServingRuntime::ApplyCompletion(const CompletionMsg& msg)
{
  free_gpus_ |= msg.assignment.mask;
  const TimeUs now = NowUs();

  if (msg.aborted) {
    // Abort/crash/hang: nothing is credited; every member goes back
    // through the retry policy — exponential backoff with derived
    // jitter, a halved SP cap, and a drop once the budget is spent.
    std::uint64_t requeued = 0;
    std::uint64_t backoffs = 0;
    for (const RequestId id : msg.assignment.requests) {
      const auto it = active_.find(id);
      if (it == active_.end()) continue;
      serving::Request& request = it->second;
      TraceTransition(id, serving::RequestState::kRunning,
                      serving::RequestState::kQueued, now);
      request.state = serving::RequestState::kQueued;
      QueueInsert(&request);  // the drop paths below erase again
      ++request.failure_retries;
      ++requeued;
      if (options_.retry.degrade_sp) {
        const int base = request.degree_cap > 0 ? request.degree_cap
                                                : request.last_degree;
        request.degree_cap = std::max(1, base / 2);
      }
      if (request.failure_retries > options_.retry.max_retries) {
        DropRequest(request, now, metrics::DropReason::kRetryBudget,
                    /*count_failed=*/true);
        continue;
      }
      if (options_.retry.deadline_aware_drop) {
        const TimeUs residual = MinResidualSpanUs(
            request.meta.resolution, request.RemainingSteps());
        if (now + residual >
            serving::DropAtUs(request, options_.drop_timeout_factor)) {
          DropRequest(request, now, metrics::DropReason::kRetryBudget,
                      /*count_failed=*/true);
          continue;
        }
      }
      const int attempt = request.failure_retries;
      Rng jitter(static_cast<std::uint64_t>(id) * kBackoffStream +
                 static_cast<std::uint64_t>(attempt));
      const double delay = options_.backoff_base_us *
                           std::ldexp(1.0, attempt - 1) *
                           jitter.NextRange(0.5, 1.5);
      not_before_[id] = now + util::RoundUsAtLeast(delay, 1);
      ++backoffs;
    }
    const util::MutexLock lock(stats_mu_);
    ++stats_.aborted_assignments;
    stats_.requeues += requeued;
    stats_.recovery.backoff_retries += backoffs;
    return;
  }

  const int degree = cluster::Popcount(msg.assignment.mask);
  for (const RequestId id : msg.assignment.requests) {
    const auto it = active_.find(id);
    if (it == active_.end()) continue;
    serving::Request& request = it->second;
    const int credited =
        std::min(msg.assignment.max_steps, request.RemainingSteps());
    request.steps_done += credited;
    request.gpu_time_us += static_cast<double>(msg.span_us) * degree;
    if (request.RemainingSteps() <= 0) {
      FinishRequest(request, now);
    } else {
      TraceTransition(id, serving::RequestState::kRunning,
                      serving::RequestState::kQueued, now);
      request.state = serving::RequestState::kQueued;
      QueueInsert(&request);
    }
  }
}

void
ServingRuntime::AdmitPending(std::vector<workload::TraceRequest>* pending)
{
  if (pending->empty()) return;
  const TimeUs now = NowUs();
  std::uint64_t infeasible = 0;
  for (const workload::TraceRequest& incoming : *pending) {
    serving::Request request;
    request.meta = incoming;
    const RequestId id = request.meta.id;
    if (options_.trace != nullptr) {
      trace::TraceEvent ev;
      ev.kind = trace::TraceEventKind::kAdmit;
      ev.time_us = request.meta.arrival_us;
      ev.request = id;
      ev.steps = request.meta.num_steps;
      ev.value = static_cast<double>(request.meta.deadline_us -
                                     request.meta.arrival_us);
      options_.trace->OnEvent(ev);
    }
    const auto [it, inserted] = active_.emplace(id, std::move(request));
    TETRI_CHECK(inserted);
    // Feasibility gate: even the fastest possible residual plan,
    // behind the current queue-delay estimate, cannot land before the
    // drop deadline — admitting would only waste planner rounds, so
    // the request terminates immediately (still a counted admission:
    // conservation holds).
    if (options_.feasibility_gate) {
      serving::Request& admitted = it->second;
      const TimeUs min_span = MinResidualSpanUs(
          admitted.meta.resolution, admitted.meta.num_steps);
      const TimeUs estimate =
          now + util::RoundUs(queue_delay_ewma_) + min_span;
      if (estimate >
          serving::DropAtUs(admitted, options_.drop_timeout_factor)) {
        ++infeasible;
        DropRequest(admitted, now, metrics::DropReason::kInfeasible);
        continue;
      }
    }
    QueueInsert(&it->second);
  }
  pending->clear();
  const util::MutexLock lock(stats_mu_);
  stats_.active = active_.size();
  stats_.infeasible_rejects += infeasible;
}

double
ServingRuntime::NextEventDelayUs(TimeUs now) const
{
  double next = std::numeric_limits<double>::infinity();
  for (const auto& [id, request] : active_) {
    if (request.state != serving::RequestState::kQueued) continue;
    TimeUs event =
        serving::DropAtUs(request, options_.drop_timeout_factor);
    // A gate that has already passed is due now: it may have expired
    // after the last PlanOnce skipped the request (e.g. while the
    // planner paced its rounds), and nothing else will wake it.
    const auto gate = not_before_.find(id);
    if (gate != not_before_.end()) event = std::min(event, gate->second);
    next = std::min(next, static_cast<double>(event - now));
  }
  return next < 0.0 ? 0.0 : next;
}

TimeUs
ServingRuntime::MinResidualSpanUs(costmodel::Resolution res,
                                  int steps) const
{
  if (steps <= 0) return 0;
  return util::RoundUsAtLeast(table_->MinStepTimeUs(res) * steps, 1);
}

void
ServingRuntime::PlanOnce(TimeUs now)
{
  // ONE schedulable snapshot per round: the drop policy filters it and
  // the scheduler sees the survivors (same shape as the serving tick).
  // The queued list is carried across rounds in (deadline, id) order —
  // maintained at every state transition rather than rebuilt and
  // re-sorted here — so the scheduler sees the queue in deadline order
  // without a sort per tick.
  // Requests inside a retry-backoff window are invisible this round;
  // their gate is the planner's next timed wake.
  snapshot_.clear();
  for (const QueuedRef& ref : queued_) {
    const auto gate = not_before_.find(ref.id);
    if (gate != not_before_.end()) {
      if (gate->second > now) continue;
      not_before_.erase(gate);
    }
    snapshot_.push_back(ref.request);
  }

  std::size_t kept = 0;
  for (serving::Request* request : snapshot_) {
    if (now >= serving::DropAtUs(*request, options_.drop_timeout_factor)) {
      DropRequest(*request, now, metrics::DropReason::kTimeout);
    } else {
      snapshot_[kept++] = request;
    }
  }
  snapshot_.resize(kept);
  if (snapshot_.empty()) return;

  // Graceful degradation: sustained queue delay halves the SP cap of
  // everything scheduled (smaller groups, more parallelism across
  // requests) before the front door ever sheds. Hysteresis at half
  // the threshold avoids flapping.
  if (options_.degrade_queue_delay_us > 0.0) {
    if (queue_delay_ewma_ > options_.degrade_queue_delay_us) {
      global_degree_cap_ = std::max(1, table_->max_degree() / 2);
    } else if (queue_delay_ewma_ <
               0.5 * options_.degrade_queue_delay_us) {
      global_degree_cap_ = 0;
    }
  }
  const bool degraded = global_degree_cap_ > 0;
  if (degraded) {
    for (serving::Request* request : snapshot_) {
      request->degree_cap =
          request->degree_cap > 0
              ? std::min(request->degree_cap, global_degree_cap_)
              : global_degree_cap_;
    }
  }

  serving::ScheduleContext ctx;
  ctx.now = now;
  const bool round_based =
      scheduler_->Mode() == serving::SchedulingMode::kRoundBased;
  ctx.round_end = round_based
                      ? now + scheduler_->RoundDurationUs()
                      : std::numeric_limits<TimeUs>::max() / 4;
  ctx.free_gpus = free_gpus_;
  ctx.schedulable = &snapshot_;
  ctx.topology = topology_;
  ctx.table = table_;

  ++round_seq_;
  const util::WallTimer wall;
  serving::RoundPlan plan = scheduler_->Plan(ctx);
  plan_latency_us_.Add(wall.ElapsedUs());

  GpuMask used = 0;
  std::vector<DispatchTask> tasks;
  tasks.reserve(plan.assignments.size());
  for (serving::Assignment& assignment : plan.assignments) {
    TETRI_CHECK_MSG((assignment.mask & used) == 0,
                    "plan double-books GPUs "
                        << cluster::MaskToString(assignment.mask & used));
    TETRI_CHECK_MSG((assignment.mask & free_gpus_) == assignment.mask,
                    "plan uses busy GPUs");
    TETRI_CHECK(!assignment.requests.empty());
    used |= assignment.mask;
    free_gpus_ &= ~assignment.mask;

    const int degree = cluster::Popcount(assignment.mask);
    const auto first = active_.find(assignment.requests.front());
    TETRI_CHECK(first != active_.end());
    const costmodel::Resolution res = first->second.meta.resolution;
    const int batch = static_cast<int>(assignment.requests.size());
    const TimeUs span_us = util::RoundUsAtLeast(
        table_->StepTimeUs(res, degree, batch) * assignment.max_steps, 1);

    for (const RequestId id : assignment.requests) {
      const auto it = active_.find(id);
      TETRI_CHECK(it != active_.end());
      serving::Request& member = it->second;
      TraceTransition(id, serving::RequestState::kQueued,
                      serving::RequestState::kRunning, now);
      member.state = serving::RequestState::kRunning;
      QueueErase(member);
      member.last_mask = assignment.mask;
      member.last_degree = degree;
      member.degree_step_sum +=
          static_cast<double>(degree) * assignment.max_steps;
      if (member.first_start_us < 0) {
        member.first_start_us = now;
        const double delay =
            static_cast<double>(now - member.meta.arrival_us);
        queue_delay_ewma_ = queue_delay_ewma_ <= 0.0
                                ? delay
                                : 0.8 * queue_delay_ewma_ + 0.2 * delay;
        TenantDelayHistogram(member.meta.tenant).Add(delay);
      }
    }

    DispatchTask task;
    task.seq = task_seq_++;
    task.assignment = std::move(assignment);
    task.span_us = span_us;
    {
      InflightRecord record;
      record.assignment = task.assignment;
      record.span_us = span_us;
      const util::MutexLock lock(inflight_mu_);
      inflight_.emplace(task.seq, std::move(record));
    }
    tasks.push_back(std::move(task));
  }

  const std::size_t dispatched = tasks.size();
  if (dispatched > 0) {
    const util::MutexLock lock(dispatch_mu_);
    for (DispatchTask& task : tasks) {
      dispatch_.push_back(std::move(task));
    }
    dispatch_cv_.SignalAll();
  }

  const util::MutexLock lock(stats_mu_);
  ++stats_.rounds;
  stats_.assignments += dispatched;
  if (degraded) ++stats_.degraded_rounds;
}

void
ServingRuntime::FinishRequest(serving::Request& request, TimeUs now)
{
  TraceTransition(request.meta.id, request.state,
                  serving::RequestState::kFinished, now);
  request.state = serving::RequestState::kFinished;
  request.completion_us = now;
  if (options_.trace != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kFinish;
    ev.time_us = now;
    ev.request = request.meta.id;
    ev.value = static_cast<double>(now);
    options_.trace->OnEvent(ev);
  }
  RemoveRequest(request.meta.id, metrics::Outcome::kCompleted,
                metrics::DropReason::kNone, now, /*count_failed=*/false);
}

void
ServingRuntime::DropRequest(serving::Request& request, TimeUs now,
                            metrics::DropReason reason, bool count_failed)
{
  TraceTransition(request.meta.id, request.state,
                  serving::RequestState::kDropped, now);
  request.state = serving::RequestState::kDropped;
  request.drop_reason = reason;
  if (options_.trace != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kDrop;
    switch (reason) {
      case metrics::DropReason::kRetryBudget:
        ev.reason = trace::TraceReason::kRetryBudget;
        break;
      case metrics::DropReason::kInfeasible:
        ev.reason = trace::TraceReason::kDeadlineInfeasible;
        break;
      default:
        ev.reason = trace::TraceReason::kTimeout;
        break;
    }
    ev.time_us = now;
    ev.request = request.meta.id;
    ev.value = static_cast<double>(request.meta.deadline_us);
    options_.trace->OnEvent(ev);
  }
  RemoveRequest(request.meta.id, metrics::Outcome::kDropped, reason, now,
                count_failed);
}

void
ServingRuntime::RemoveRequest(RequestId id, metrics::Outcome outcome,
                              metrics::DropReason reason, TimeUs now,
                              bool count_failed)
{
  const auto it = active_.find(id);
  if (it == active_.end()) return;
  QueueErase(it->second);
  const TenantId tenant = it->second.meta.tenant;
  if (options_.on_complete) {
    Completion completion;
    completion.id = id;
    completion.tenant = tenant;
    completion.outcome = outcome;
    completion.drop_reason = reason;
    completion.admitted_us = it->second.meta.arrival_us;
    completion.finished_us = now;
    completion.steps_done = it->second.steps_done;
    options_.on_complete(completion);
  }
  not_before_.erase(id);
  active_.erase(it);
  {
    const util::MutexLock lock(tenant_mu_);
    TenantAgg& agg = tenant_agg_[tenant];
    if (outcome == metrics::Outcome::kCompleted) {
      ++agg.completed;
    } else if (count_failed) {
      ++agg.failed;
    } else {
      ++agg.dropped;
    }
  }
  const util::MutexLock lock(stats_mu_);
  if (outcome == metrics::Outcome::kCompleted) {
    ++stats_.completed;
  } else if (outcome == metrics::Outcome::kDropped) {
    if (count_failed) {
      ++stats_.failed;
    } else {
      ++stats_.dropped;
    }
  }
  stats_.active = active_.size();
}

void
ServingRuntime::TraceTransition(RequestId id, serving::RequestState from,
                                serving::RequestState to, TimeUs now)
{
  if (options_.trace == nullptr) return;
  trace::TraceEvent ev;
  ev.kind = trace::TraceEventKind::kTransition;
  ev.time_us = now;
  ev.request = id;
  ev.degree = static_cast<std::int32_t>(from);
  ev.steps = static_cast<std::int32_t>(to);
  options_.trace->OnEvent(ev);
}

}  // namespace tetri::runtime
