/**
 * @file
 * The runtime_submit workload: ServingRuntime in instant-execution mode
 * (execution_time_scale = 0), so only control-plane work is on the
 * clock. One producer thread drives two phases against a fresh runtime
 * each:
 *
 *  A. open loop at a fixed 20k req/s; each request is timed from when
 *     it was due, so a stall also delays the requests queued behind it.
 *     While the backlog (submitted - terminal) is past a cap the
 *     generator holds requests back: the unsent requests count as
 *     misses instead of turning a collapse into a run that never ends.
 *  B. closed loop with a window of 32 in flight, for the sustained rate.
 *
 * Producer, planner and the two workers are the only busy threads, so
 * the workload fits a 4-core machine.
 */
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/topology.h"
#include "core/tetri_scheduler.h"
#include "costmodel/latency_table.h"
#include "costmodel/model_config.h"
#include "costmodel/step_cost.h"
#include "probes.h"
#include "runtime/runtime.h"
#include "workload/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using tetri::runtime::AdmitOutcome;
using tetri::runtime::Completion;
using tetri::runtime::ServingRuntime;

constexpr int kSetupRepeats = 5;
constexpr double kOpenRatePerSec = 20000.0;
constexpr int kWindow = 32;
/** Open-loop backlog beyond which the generator holds requests back.
 * The runtime's closed-loop rate falls with depth (~130k req/s at 32 in
 * flight, ~44k at 512, ~16k at 2048 on a 4-core machine), so past
 * ~1.5k it drains slower than 20k req/s arrive and never recovers.
 * The cap stays below that, so a stall of the machine costs the
 * requests due during it and not the rest of the segment. */
constexpr std::uint64_t kBacklogCap = 1024;
constexpr int kStepsPerRequest = 4;
/** SLO budget far beyond any run, so the drop policy never fires. */
constexpr tetri::TimeUs kAmpleBudgetUs = 600'000'000;
/** A request meets the limit when it completes within this of its due
 * time. */
constexpr double kMetLimitUs = 10'000.0;
/** Requests in the generated stream; phases cycle through it. */
constexpr int kStreamLength = 16384;
/** Requests a traced closed-loop segment keeps stamps for; later ones
 * still run but are not stamped. */
constexpr std::size_t kClosedLoopProbeCapacity = std::size_t{1} << 19;
/** Each phase runs as this many fresh runtimes (see Pooled). */
constexpr int kSegments = 16;
/** Open-loop requests per tail window: 125 ms at 20k req/s, 25 samples
 * beyond the window's p99. */
constexpr std::size_t kTailWindow = 2500;

struct Fixture {
  tetri::costmodel::ModelConfig model =
      tetri::costmodel::ModelConfig::FluxDev();
  tetri::cluster::Topology topology = tetri::cluster::Topology::H100Node(8);
  tetri::costmodel::StepCostModel cost{&model, &topology};
  std::optional<tetri::costmodel::LatencyTable> table;
  tetri::workload::Trace stream;
};

/** Builds the request stream and profiles the latency table; returns the
 * median set-up time over kSetupRepeats and fills the per-part medians. */
double
SetUp(std::uint64_t seed, Fixture* f, double* build_ms, double* profile_ms)
{
  std::vector<double> total;
  std::vector<double> build;
  std::vector<double> profile;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::int64_t start = NowNs();
    tetri::workload::TraceSpec spec;
    spec.num_requests = kStreamLength;
    spec.mix = tetri::workload::ResolutionMix::Uniform();
    spec.steps_per_request = kStepsPerRequest;
    spec.seed = seed;
    tetri::workload::Trace stream = tetri::workload::BuildTrace(spec);
    const std::int64_t built = NowNs();
    tetri::costmodel::LatencyTable table =
        tetri::costmodel::LatencyTable::Profile(f->cost, 8, 20, 7);
    const std::int64_t end = NowNs();
    total.push_back(static_cast<double>(end - start) * 1e-9);
    build.push_back(static_cast<double>(built - start) * 1e-6);
    profile.push_back(static_cast<double>(end - built) * 1e-6);
    f->stream = std::move(stream);
    f->table.reset();
    f->table.emplace(std::move(table));
  }
  *build_ms = Median(build);
  *profile_ms = Median(profile);
  return Median(total);
}

/** Closed-loop in-flight slots; on_complete releases, the producer
 * acquires. */
class Window {
 public:
  explicit Window(int slots) : available_(slots) {}
  void Acquire()
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return available_ > 0; });
    --available_;
  }
  void Release()
  {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++available_;
    }
    cv_.notify_one();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int available_;
};

/** What one phase observed; the runtime has drained when it returns. */
struct PhaseResult {
  std::uint64_t offered = 0;
  std::uint64_t submitted = 0;
  std::uint64_t unsent = 0;
  std::uint64_t shed = 0;
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t failed = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rounds = 0;
  /** Open loop: completed within kMetLimitUs of the due time. */
  std::uint64_t met = 0;
  double wall_s = 0.0;
  /** Open loop: due time -> on_complete, host us; a request that never
   * completed is booked at the phase end. */
  std::vector<double> latency_us;
  std::vector<double> late_us;
  std::vector<double> submit_us;
  double plan_p50_us = 0.0;
  double queue_delay_p50_us = 0.0;
  bool ids_dense = true;
  /** Decorator view of Plan(); filled only when a probe is attached. */
  PlanStats plan;
};

/** The runtime's scheduler, wrapped in the timing decorator when a
 * probe is attached. */
class PhaseScheduler {
 public:
  PhaseScheduler(const Fixture& f, RuntimeProbe* probe)
      : inner_(&*f.table), timed_(&inner_, probe), traced_(probe != nullptr)
  {
  }
  tetri::serving::Scheduler* get()
  {
    return traced_ ? static_cast<tetri::serving::Scheduler*>(&timed_)
                   : &inner_;
  }
  void Collect(PhaseResult* out) const
  {
    out->plan = timed_.stats();
  }

 private:
  tetri::core::TetriScheduler inner_;
  TimedScheduler timed_;
  bool traced_;
};

tetri::runtime::RuntimeOptions
BaseOptions(RuntimeProbe* probe)
{
  tetri::runtime::RuntimeOptions options;
  options.num_workers = 2;
  options.execution_time_scale = 0.0;
  options.trace = probe;
  return options;
}

void
Finish(ServingRuntime& rt, PhaseResult* out)
{
  rt.Drain();
  const tetri::runtime::RuntimeStats stats = rt.stats();
  out->admitted = stats.admission.admitted;
  out->shed = stats.admission.shed + stats.admission.rejected_closed;
  out->completed = stats.completed;
  out->dropped = stats.dropped;
  out->failed = stats.failed;
  out->rounds = stats.rounds;
  out->plan_p50_us = rt.plan_latency_us().Snapshot().Percentile(50);
  const auto tenants = rt.tenant_stats();
  if (!tenants.empty()) {
    out->queue_delay_p50_us = tenants.front().queue_delay_us.Percentile(50);
  }
}

PhaseResult
RunOpenLoop(const Fixture& f, double seconds, RuntimeProbe* probe)
{
  PhaseResult out;
  out.offered = static_cast<std::uint64_t>(kOpenRatePerSec * seconds);
  const std::size_t n = static_cast<std::size_t>(out.offered);
  std::vector<std::int64_t> done_ns(n, -1);
  std::vector<char> completed(n, 0);
  // Runtime ids are dense in Submit order; a held-back request takes no
  // id, so this maps an id to its index in the offered stream. Each
  // entry is written before the Submit that hands the id out.
  std::vector<std::size_t> index_of_id(n, 0);
  std::atomic<std::uint64_t> terminal{0};

  PhaseScheduler scheduler(f, probe);

  tetri::runtime::RuntimeOptions options = BaseOptions(probe);
  options.on_complete = [&](const Completion& c) {
    const std::int64_t now = NowNs();
    const auto k = static_cast<std::size_t>(c.id);
    if (k < n) {
      const std::size_t i = index_of_id[k];
      done_ns[i] = now;
      completed[i] = c.outcome == tetri::metrics::Outcome::kCompleted;
    }
    if (probe != nullptr) probe->OnCompletion(c.id, now);
    terminal.fetch_add(1, std::memory_order_release);
  };

  const auto interval_ns =
      static_cast<std::int64_t>(1e9 / kOpenRatePerSec);
  out.late_us.reserve(n);
  out.submit_us.reserve(n);
  std::int64_t t0 = 0;
  std::int64_t end_ns = 0;
  {
    ServingRuntime rt(scheduler.get(), &f.topology, &*f.table, options);
    t0 = NowNs() + 1'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t due = t0 + static_cast<std::int64_t>(i) * interval_ns;
      while (NowNs() < due) {
      }
      if (out.submitted - terminal.load(std::memory_order_acquire) >
          kBacklogCap) {
        ++out.unsent;
        continue;
      }
      const auto& meta = f.stream.requests[i % f.stream.requests.size()];
      const std::uint64_t k = out.submitted;
      index_of_id[k] = i;
      const std::int64_t before = NowNs();
      tetri::RequestId id = tetri::kInvalidRequest;
      const AdmitOutcome admit = rt.Submit(meta.resolution, kStepsPerRequest,
                                           kAmpleBudgetUs, &id);
      const std::int64_t after = NowNs();
      ++out.submitted;
      out.late_us.push_back(static_cast<double>(before - due) * 1e-3);
      out.submit_us.push_back(static_cast<double>(after - before) * 1e-3);
      if (admit == AdmitOutcome::kAdmitted) {
        if (id != static_cast<tetri::RequestId>(k)) out.ids_dense = false;
        if (probe != nullptr && out.ids_dense) {
          probe->SetSubmitReturn(id, after);
        }
      }
    }
    Finish(rt, &out);
    scheduler.Collect(&out);
    end_ns = NowNs();
    out.wall_s = static_cast<double>(end_ns - t0) * 1e-9;
  }

  // A request that never completed missed every limit; it is booked at
  // the phase's end, a lower bound on its latency.
  out.latency_us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(i) * interval_ns;
    const std::int64_t done = completed[i] ? done_ns[i] : end_ns;
    const double latency_us = static_cast<double>(done - due) * 1e-3;
    out.latency_us.push_back(latency_us);
    if (completed[i] && latency_us <= kMetLimitUs) ++out.met;
  }
  return out;
}

PhaseResult
RunClosedLoop(const Fixture& f, double seconds, RuntimeProbe* probe)
{
  PhaseResult out;
  Window slots(kWindow);
  PhaseScheduler scheduler(f, probe);

  tetri::runtime::RuntimeOptions options = BaseOptions(probe);
  options.on_complete = [&](const Completion& c) {
    if (probe != nullptr) probe->OnCompletion(c.id, NowNs());
    slots.Release();
  };
  {
    ServingRuntime rt(scheduler.get(), &f.topology, &*f.table, options);
    const std::int64_t start = NowNs();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    std::size_t i = 0;
    while (NowNs() < deadline) {
      slots.Acquire();
      const auto& meta = f.stream.requests[i % f.stream.requests.size()];
      tetri::RequestId id = tetri::kInvalidRequest;
      rt.Submit(meta.resolution, kStepsPerRequest, kAmpleBudgetUs, &id);
      if (probe != nullptr && id >= 0) probe->SetSubmitReturn(id, NowNs());
      ++i;
    }
    out.offered = i;
    out.submitted = i;
    Finish(rt, &out);
    scheduler.Collect(&out);
    out.wall_s = SecondsSince(start);
  }
  return out;
}

/** Conservation and completeness checks shared by both modes. */
void
CheckPhase(const PhaseResult& p, const std::string& name, bool all_complete,
           Report* report)
{
  report->Check(p.ids_dense, name + ": runtime ids are not dense");
  report->Check(p.completed + p.dropped + p.failed == p.admitted,
                name + ": completed + dropped + failed != admitted");
  report->Check(p.admitted + p.shed == p.submitted,
                name + ": admitted + shed != submitted");
  report->Check(p.submitted + p.unsent == p.offered,
                name + ": submitted + unsent != offered");
  if (all_complete) {
    report->Check(p.completed == p.offered,
                  name + ": a closed-loop request did not complete");
  }
}

/** A phase run as kSegments fresh runtimes, pooled. Thread placement is
 * decided when a runtime starts, and it moves the host latency of a
 * whole runtime's life (a p50 of ~10 or ~21 us on the same seed), so
 * the end-to-end figures are medians over segments. Other work on a
 * shared machine can slow a few segments several-fold; 16 segments
 * keep the median clear of those. */
struct Pooled {
  PhaseResult total;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> rate;
  std::vector<double> plan_p50_us;
  std::vector<double> queue_delay_p50_us;
  RuntimeHops hops;

  void Add(const PhaseResult& p)
  {
    PhaseResult& t = total;
    t.offered += p.offered;
    t.submitted += p.submitted;
    t.unsent += p.unsent;
    t.shed += p.shed;
    t.completed += p.completed;
    t.dropped += p.dropped;
    t.failed += p.failed;
    t.admitted += p.admitted;
    t.rounds += p.rounds;
    t.met += p.met;
    t.wall_s += p.wall_s;
    t.ids_dense = t.ids_dense && p.ids_dense;
    Append(&t.late_us, p.late_us);
    Append(&t.submit_us, p.submit_us);
    t.plan.Merge(p.plan);
    p50_us.push_back(Percentile(p.latency_us, 50));
    for (std::size_t w = 0; w + kTailWindow <= p.latency_us.size();
         w += kTailWindow) {
      p99_us.push_back(Percentile(
          std::vector<double>(p.latency_us.begin() + w,
                              p.latency_us.begin() + w + kTailWindow),
          99));
    }
    rate.push_back(static_cast<double>(p.completed) / p.wall_s);
    plan_p50_us.push_back(p.plan_p50_us);
    queue_delay_p50_us.push_back(p.queue_delay_p50_us);
  }
  void AddHops(const RuntimeHops& h)
  {
    Append(&hops.admit_wait_us, h.admit_wait_us);
    Append(&hops.plan_wait_us, h.plan_wait_us);
    Append(&hops.dispatch_wait_us, h.dispatch_wait_us);
    Append(&hops.worker_us, h.worker_us);
    Append(&hops.apply_us, h.apply_us);
  }
  static void Append(std::vector<double>* to, const std::vector<double>& from)
  {
    to->insert(to->end(), from.begin(), from.end());
  }
};

/** Requests handed to Submit that the runtime shed, failed or lost. A
 * deadline drop is an outcome, as on the replays. Requests the
 * generator held back were never handed over: they miss slo_attainment
 * and served_frac instead, so a stall of the machine moves a metric
 * rather than the operation count. */
std::uint64_t
Refused(const PhaseResult& p)
{
  return p.shed + (p.admitted - p.completed - p.dropped);
}

}  // namespace

Report
RunRuntimeSubmit(const RunOptions& options)
{
  Report report;
  auto f = std::make_unique<Fixture>();
  double build_ms = 0.0;
  double profile_ms = 0.0;
  const double setup_s = SetUp(options.seed, f.get(), &build_ms, &profile_ms);
  const double segment_s = options.seconds / kSegments;

  // Segments of the two phases alternate, so a slow spell of the
  // machine lands on both rather than on one.
  Pooled a;
  Pooled b;
  if (!options.trace) {
    for (int s = 0; s < kSegments; ++s) {
      a.Add(RunOpenLoop(*f, 0.5 * segment_s, nullptr));
      b.Add(RunClosedLoop(*f, 0.5 * segment_s, nullptr));
    }
    CheckPhase(a.total, "phase A", false, &report);
    CheckPhase(b.total, "phase B", true, &report);
    report.attempted = a.total.submitted + b.total.submitted;
    report.failed = Refused(a.total) + Refused(b.total);
    report.Set("req_per_s", Median(b.rate));
    report.Set("slo_attainment", static_cast<double>(a.total.met) /
                                     static_cast<double>(a.total.offered));
    report.Set("latency_p50_ms", Median(a.p50_us) * 1e-3);
    report.Set("served_frac",
               static_cast<double>(a.total.completed + b.total.completed) /
                   static_cast<double>(a.total.offered + b.total.offered));
    report.Set("setup_s", setup_s);
    char line[240];
    std::snprintf(line, sizeof(line),
                  "%d segments; phase A: %llu offered, %llu unsent, "
                  "%llu rounds; phase B: %llu completed in %.3f s, "
                  "%llu rounds",
                  kSegments, static_cast<unsigned long long>(a.total.offered),
                  static_cast<unsigned long long>(a.total.unsent),
                  static_cast<unsigned long long>(a.total.rounds),
                  static_cast<unsigned long long>(b.total.completed),
                  b.total.wall_s,
                  static_cast<unsigned long long>(b.total.rounds));
    report.notes.push_back(line);
    return report;
  }

  // Traced: phase A with the probes, then phase B plain and traced, so
  // the tracing overhead is measured on the throughput-bound phase.
  Pooled plain_b;
  for (int s = 0; s < kSegments; ++s) {
    const auto max_a =
        static_cast<std::size_t>(kOpenRatePerSec * 0.4 * segment_s) + 1;
    RuntimeProbe probe_a(max_a);
    a.Add(RunOpenLoop(*f, 0.4 * segment_s, &probe_a));
    a.AddHops(probe_a.Hops());
    plain_b.Add(RunClosedLoop(*f, 0.3 * segment_s, nullptr));
    RuntimeProbe probe_b(kClosedLoopProbeCapacity);
    b.Add(RunClosedLoop(*f, 0.3 * segment_s, &probe_b));
  }
  CheckPhase(a.total, "phase A", false, &report);
  CheckPhase(plain_b.total, "phase B", true, &report);
  CheckPhase(b.total, "traced phase B", true, &report);
  report.attempted =
      a.total.submitted + plain_b.total.submitted + b.total.submitted;
  report.failed = Refused(a.total) + Refused(plain_b.total) + Refused(b.total);

  report.Set("workload.build_trace_ms", build_ms);
  report.Set("costmodel.profile_ms", profile_ms);

  PlanStats plan = a.total.plan;
  plan.Merge(b.total.plan);
  plan.Report(&report);

  const RuntimeHops& hops = a.hops;
  report.Set("runtime.submit_p50_us", Percentile(a.total.submit_us, 50));
  report.Set("runtime.submit_p99_us", Percentile(a.total.submit_us, 99));
  report.Set("runtime.admit_wait_p50_us", Percentile(hops.admit_wait_us, 50));
  report.Set("runtime.plan_wait_p50_us", Percentile(hops.plan_wait_us, 50));
  report.Set("runtime.plan_p50_us", Median(a.plan_p50_us));
  report.Set("runtime.rounds_per_request",
             static_cast<double>(a.total.rounds) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, a.total.admitted)));
  report.Set("runtime.rounds_per_request_b",
             static_cast<double>(b.total.rounds) /
                 static_cast<double>(
                     std::max<std::uint64_t>(1, b.total.admitted)));
  report.Set("runtime.dispatch_wait_p50_us",
             Percentile(hops.dispatch_wait_us, 50));
  report.Set("runtime.worker_p50_us", Percentile(hops.worker_us, 50));
  report.Set("runtime.apply_p50_us", Percentile(hops.apply_us, 50));
  report.Set("runtime.queue_delay_p50_us", Median(a.queue_delay_p50_us));
  report.Set("runtime.generator_late_p99_us",
             Percentile(a.total.late_us, 99));
  report.Set("runtime.generator_late_max_us",
             Percentile(a.total.late_us, 100));
  report.Set("runtime.latency_p99_traced_us", Median(a.p99_us));

  const PhaseResult& ta = a.total;
  const PhaseResult& tb = b.total;
  report.Set("failed_frac",
             static_cast<double>(ta.dropped + ta.failed + ta.shed + ta.unsent +
                                 tb.dropped + tb.failed + tb.shed) /
                 static_cast<double>(ta.offered + tb.offered));
  report.Set("trace.overhead_frac",
             Median(plain_b.rate) / Median(b.rate) - 1.0);
  return report;
}

}  // namespace perfbench
