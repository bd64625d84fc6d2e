/**
 * @file
 * Request Tracker (§3): owns the metadata and execution state of every
 * request in flight — resolutions, deadlines, remaining steps — and is
 * the scheduler's source of truth for what is pending.
 *
 * Per-tick queries cost O(working set), not O(everything admitted): the
 * tracker keeps a running count of active requests and the set of
 * requests in kQueued, both maintained by Admit and Transition.
 */
#ifndef TETRI_SERVING_REQUEST_TRACKER_H
#define TETRI_SERVING_REQUEST_TRACKER_H

#include <deque>
#include <unordered_map>
#include <vector>

#include "audit/sink.h"
#include "serving/request.h"

namespace tetri::serving {

/** Registry of all requests of one serving run. */
class RequestTracker {
 public:
  /** Attach an audit sink notified of admissions and transitions. */
  void set_audit(audit::AuditSink* sink) { audit_ = sink; }

  /**
   * Register an arrived request. Ids must be unique. O(1) amortized.
   * The returned reference stays valid for the tracker's lifetime.
   */
  Request& Admit(const workload::TraceRequest& meta);

  /**
   * Move @p request to @p to at time @p now. The single mutation point
   * for request states: every lifecycle change flows through here so
   * the audit layer sees the full transition stream, and the active
   * count and queued set stay exact. O(1).
   */
  void Transition(Request& request, RequestState to, TimeUs now);

  /**
   * Lookup by id; the request must exist. O(1). The reference stays
   * valid for the tracker's lifetime.
   */
  Request& Get(RequestId id);
  const Request& Get(RequestId id) const;
  /** O(1). */
  bool Contains(RequestId id) const;

  /**
   * Requests that are schedulable right now: arrived, in kQueued state
   * (not currently executing), sorted by deadline then id.
   * O(q log q) in the number q of queued requests: it walks only the
   * queued set and sorts at call time, so deadline edits made through
   * a held reference are honoured.
   */
  std::vector<Request*> Schedulable(TimeUs now);

  /** All requests still kQueued or kRunning. O(1). */
  int NumActive() const { return num_active_; }

  /**
   * Export every request as a metrics record, in admission order.
   * O(everything admitted); called once per run.
   */
  std::vector<metrics::RequestRecord> Records() const;

 private:
  /** Marks a request that is not in queued_. */
  static constexpr std::size_t kNotQueued = static_cast<std::size_t>(-1);

  struct Entry {
    Request request;
    /** Position in queued_, or kNotQueued. */
    std::size_t queued_pos = kNotQueued;
  };

  /** The entry holding @p request, found by id. */
  Entry& EntryOf(const Request& request);
  void EnqueueQueued(Entry& entry);
  void EraseQueued(Entry& entry);

  std::unordered_map<RequestId, Entry*> index_;
  /** Admission order; a deque so entries never move. */
  std::deque<Entry> entries_;
  /** Entries in kQueued, unordered; Schedulable sorts on demand. */
  std::vector<Entry*> queued_;
  int num_active_ = 0;
  audit::AuditSink* audit_ = nullptr;
};

}  // namespace tetri::serving

#endif  // TETRI_SERVING_REQUEST_TRACKER_H
