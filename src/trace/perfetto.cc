#include "trace/perfetto.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "trace/trace.h"

namespace tetri::trace {
namespace {

/** Track ids within the single rendered process. */
constexpr int kSchedulerTid = 1;
constexpr int kRequestsTid = 2;
constexpr int kGpuTidBase = 10;

/** Lowest set GPU index; -1 for an empty mask. */
int
LowestGpu(GpuMask mask)
{
  for (int g = 0; g < 32; ++g) {
    if ((mask >> g) & 1u) return g;
  }
  return -1;
}

std::string
FormatValue(double value)
{
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/** Emits one JSON object per line, comma-separating after the first. */
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out)
  {
    out_ << "{\"traceEvents\":[\n";
  }

  ~JsonWriter() { out_ << "\n]}\n"; }

  void Meta(int tid, const std::string& name, int sort_index)
  {
    Begin();
    out_ << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << name
         << "\"}}";
    Begin();
    out_ << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":"
         << sort_index << "}}";
  }

  void Span(int tid, const std::string& name, const TraceEvent& event,
            const std::string& args)
  {
    Begin();
    out_ << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":"
         << event.time_us << ",\"dur\":" << event.dur_us
         << ",\"name\":\"" << name << "\",\"args\":{" << args << "}}";
  }

  void Instant(int tid, const std::string& name,
               const TraceEvent& event, const std::string& args)
  {
    Begin();
    out_ << "{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":" << tid
         << ",\"ts\":" << event.time_us << ",\"name\":\"" << name
         << "\",\"args\":{" << args << "}}";
  }

 private:
  void Begin()
  {
    if (!first_) out_ << ",\n";
    first_ = false;
  }

  std::ostream& out_;
  bool first_ = true;
};

std::string
CommonArgs(const TraceEvent& event)
{
  std::ostringstream args;
  args << "\"seq\":" << event.seq;
  if (event.request != kInvalidRequest) {
    args << ",\"req\":" << event.request;
  }
  if (event.round >= 0) args << ",\"round\":" << event.round;
  if (event.mask != 0) args << ",\"mask\":" << event.mask;
  if (event.degree != 0) args << ",\"degree\":" << event.degree;
  if (event.steps != 0) args << ",\"steps\":" << event.steps;
  if (event.batch != 0) args << ",\"batch\":" << event.batch;
  if (event.value != 0.0) {
    args << ",\"value\":" << FormatValue(event.value);
  }
  return args.str();
}

}  // namespace

void
PerfettoSink::OnEvent(const TraceEvent& event)
{
  const util::MutexLock lock(mu_);
  events_.push_back(event);
}

std::vector<TraceEvent>
PerfettoSink::events() const
{
  const util::MutexLock lock(mu_);
  return events_;
}

std::size_t
PerfettoSink::size() const
{
  const util::MutexLock lock(mu_);
  return events_.size();
}

void
WritePerfettoJson(const std::vector<TraceEvent>& events, int num_gpus,
                  std::ostream& out)
{
  JsonWriter json(out);
  json.Meta(kSchedulerTid, "scheduler", 0);
  json.Meta(kRequestsTid, "requests", 1);
  for (int g = 0; g < num_gpus; ++g) {
    json.Meta(kGpuTidBase + g, "gpu" + std::to_string(g), 2 + g);
  }

  for (const TraceEvent& event : events) {
    const std::string args = CommonArgs(event);
    std::ostringstream name;
    switch (event.kind) {
      case TraceEventKind::kRoundBegin:
        name << "round " << event.round;
        json.Span(kSchedulerTid, name.str(), event, args);
        break;
      case TraceEventKind::kPlanCandidate:
        name << "cand req=" << event.request << " d=" << event.degree;
        json.Instant(kSchedulerTid, name.str(), event, args);
        break;
      case TraceEventKind::kPlanChoice:
        name << "choice req=" << event.request << " d=" << event.degree
             << " (" << TraceReasonName(event.reason) << ')';
        json.Instant(kSchedulerTid, name.str(), event, args);
        break;
      case TraceEventKind::kShed:
        name << "shed req=" << event.request << " ("
             << TraceReasonName(event.reason) << ')';
        json.Instant(kSchedulerTid, name.str(), event, args);
        break;
      case TraceEventKind::kDegrade:
        name << "degrade req=" << event.request << " cap="
             << event.degree;
        json.Instant(kSchedulerTid, name.str(), event, args);
        break;
      case TraceEventKind::kRoundEnd:
        name << "round " << event.round << " end";
        json.Instant(kSchedulerTid, name.str(), event, args);
        break;
      case TraceEventKind::kDispatch:
        name << "d" << event.degree << " b" << event.batch << " s"
             << event.steps;
        for (int g = 0; g < 32; ++g) {
          if ((event.mask >> g) & 1u) {
            json.Span(kGpuTidBase + g, name.str(), event, args);
          }
        }
        break;
      case TraceEventKind::kStep:
        // Steps render on the group's lowest GPU only; the dispatch
        // span already covers the full mask.
        name << "step " << event.steps;
        json.Span(kGpuTidBase + LowestGpu(event.mask), name.str(),
                  event, args);
        break;
      case TraceEventKind::kComplete:
        json.Instant(kGpuTidBase + LowestGpu(event.mask), "complete",
                     event, args);
        break;
      case TraceEventKind::kAbort:
        for (int g = 0; g < 32; ++g) {
          if ((event.mask >> g) & 1u) {
            json.Instant(kGpuTidBase + g, "abort", event, args);
          }
        }
        break;
      case TraceEventKind::kAdmit:
        name << "admit req=" << event.request;
        json.Instant(kRequestsTid, name.str(), event, args);
        break;
      case TraceEventKind::kDrop:
        name << "drop req=" << event.request << " ("
             << TraceReasonName(event.reason) << ')';
        json.Instant(kRequestsTid, name.str(), event, args);
        break;
      case TraceEventKind::kCancel:
        name << "cancel req=" << event.request;
        json.Instant(kRequestsTid, name.str(), event, args);
        break;
      case TraceEventKind::kFinish:
        name << "finish req=" << event.request;
        json.Instant(kRequestsTid, name.str(), event, args);
        break;
      case TraceEventKind::kGpuFail:
      case TraceEventKind::kGpuRecover:
      case TraceEventKind::kStragglerStart:
      case TraceEventKind::kStragglerEnd:
        for (int g = 0; g < 32; ++g) {
          if ((event.mask >> g) & 1u) {
            json.Instant(kGpuTidBase + g,
                         TraceEventKindName(event.kind), event, args);
          }
        }
        break;
      case TraceEventKind::kRoundPlan:
      case TraceEventKind::kRoundAssignment:
      case TraceEventKind::kMember:
      case TraceEventKind::kTransition:
      case TraceEventKind::kLatentAssign:
      case TraceEventKind::kLatentRelease:
      case TraceEventKind::kEventScheduled:
      case TraceEventKind::kEventFired:
      case TraceEventKind::kRunEnd:
        break;  // bookkeeping kinds: not rendered
    }
  }
}

std::string
PerfettoJson(const std::vector<TraceEvent>& events, int num_gpus)
{
  std::ostringstream out;
  WritePerfettoJson(events, num_gpus, out);
  return out.str();
}

bool
WritePerfettoFile(const std::vector<TraceEvent>& events, int num_gpus,
                  const std::string& path)
{
  std::ofstream out(path);
  if (!out.good()) return false;
  WritePerfettoJson(events, num_gpus, out);
  out.flush();
  return out.good();
}

}  // namespace tetri::trace
