/**
 * @file
 * Trace persistence: save/load workload traces as CSV so experiments
 * can be archived, diffed, and replayed bit-for-bit across machines,
 * and so external trace sources (e.g. a sampled production log) can
 * be fed into the serving system.
 *
 * Format: header line then one row per request:
 *   id,arrival_us,deadline_us,resolution,num_steps,prompt
 * Prompts are quoted; embedded quotes are doubled (RFC-4180 style).
 */
#ifndef TETRI_WORKLOAD_TRACE_IO_H
#define TETRI_WORKLOAD_TRACE_IO_H

#include <string>

#include "workload/trace.h"

namespace tetri::workload {

/** Serialize a trace to CSV text. */
std::string TraceToCsv(const Trace& trace);

/**
 * Parse a trace from CSV text produced by TraceToCsv (or compatible).
 * Fatal on malformed input (user error), naming the offending line: a
 * wrong field count, a numeric field that is not a valid integer, an
 * unknown resolution, an inconsistent row, a duplicate id, or an
 * arrival earlier than the previous row's.
 */
Trace TraceFromCsv(const std::string& csv);

/** Write a trace to a file. @return false on I/O failure. */
bool SaveTrace(const Trace& trace, const std::string& path);

/** Read a trace from a file. Fatal if the file cannot be opened. */
Trace LoadTrace(const std::string& path);

}  // namespace tetri::workload

#endif  // TETRI_WORKLOAD_TRACE_IO_H
