#include "workload/trace_io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "util/check.h"

namespace tetri::workload {

namespace {

std::string
QuoteCsv(const std::string& text)
{
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

costmodel::Resolution
ResolutionFromName(const std::string& name, int line)
{
  for (costmodel::Resolution res : costmodel::kAllResolutions) {
    if (costmodel::ResolutionName(res) == name) return res;
  }
  TETRI_FATAL("trace CSV line " << line << ": unknown resolution '"
                                << name << "'");
}

/** Parse a whole field as an in-range decimal integer, or fail naming
 * the line. */
template <typename Int>
Int
IntegerField(const std::string& text, const char* column, int line)
{
  Int value{};
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, value);
  if (text.empty() || ec != std::errc() || end != last) {
    TETRI_FATAL("trace CSV line " << line << ": " << column << " '"
                                  << text << "' is not a valid integer");
  }
  return value;
}

/** Split one CSV line honoring quoted fields. */
std::vector<std::string>
SplitCsvLine(const std::string& line)
{
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        field += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

}  // namespace

std::string
TraceToCsv(const Trace& trace)
{
  std::ostringstream oss;
  oss << "id,arrival_us,deadline_us,resolution,num_steps,prompt\n";
  for (const TraceRequest& req : trace.requests) {
    oss << req.id << ',' << req.arrival_us << ',' << req.deadline_us
        << ',' << costmodel::ResolutionName(req.resolution) << ','
        << req.num_steps << ',' << QuoteCsv(req.prompt) << '\n';
  }
  return oss.str();
}

Trace
TraceFromCsv(const std::string& csv)
{
  Trace trace;
  trace.mix_name = "FromCsv";
  std::istringstream iss(csv);
  std::string line;
  std::unordered_set<RequestId> ids;
  int line_no = 0;
  bool header = true;
  while (std::getline(iss, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (header) {
      header = false;
      continue;
    }
    auto fields = SplitCsvLine(line);
    if (fields.size() != 6) {
      TETRI_FATAL("trace CSV line " << line_no << ": row has "
                                    << fields.size()
                                    << " fields, expected 6");
    }
    TraceRequest req;
    req.id = IntegerField<RequestId>(fields[0], "id", line_no);
    req.arrival_us = IntegerField<TimeUs>(fields[1], "arrival_us", line_no);
    req.deadline_us =
        IntegerField<TimeUs>(fields[2], "deadline_us", line_no);
    req.resolution = ResolutionFromName(fields[3], line_no);
    req.num_steps = IntegerField<int>(fields[4], "num_steps", line_no);
    req.prompt = fields[5];
    if (req.num_steps <= 0 || req.deadline_us <= req.arrival_us) {
      TETRI_FATAL("trace CSV line " << line_no << ": row for id "
                                    << req.id << " is inconsistent");
    }
    if (!ids.insert(req.id).second) {
      TETRI_FATAL("trace CSV line " << line_no << ": duplicate request id "
                                    << req.id);
    }
    if (!trace.requests.empty() &&
        req.arrival_us < trace.requests.back().arrival_us) {
      TETRI_FATAL("trace CSV line "
                  << line_no << ": arrival_us " << req.arrival_us
                  << " is earlier than the previous row's "
                  << trace.requests.back().arrival_us
                  << " (a trace is ordered by arrival)");
    }
    trace.requests.push_back(std::move(req));
  }
  return trace;
}

bool
SaveTrace(const Trace& trace, const std::string& path)
{
  std::ofstream out(path);
  if (!out) return false;
  out << TraceToCsv(trace);
  return static_cast<bool>(out);
}

Trace
LoadTrace(const std::string& path)
{
  std::ifstream in(path);
  if (!in) TETRI_FATAL("cannot open trace file '" << path << "'");
  std::ostringstream oss;
  oss << in.rdbuf();
  return TraceFromCsv(oss.str());
}

}  // namespace tetri::workload
