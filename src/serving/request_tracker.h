/**
 * @file
 * Request Tracker (§3): owns the metadata and execution state of every
 * request in flight — resolutions, deadlines, remaining steps — and is
 * the scheduler's source of truth for what is pending.
 *
 * Per-tick queries cost O(working set), not O(everything admitted): the
 * tracker keeps a running count of active requests and the set of
 * requests in kQueued, both maintained by Admit and Transition. The
 * queued set is kept in (deadline, id) order across calls, so the
 * per-tick snapshot is one insertion pass instead of a sort.
 *
 * Lookups are flat: every request records the slot of its entry
 * (Request::tracker_slot), so an owned reference finds its entry with
 * one index, and ids resolve through an open-addressing table of
 * (id, slot) cells that allocates no node per request. Any id works
 * the same way, dense or sparse.
 */
#ifndef TETRI_SERVING_REQUEST_TRACKER_H
#define TETRI_SERVING_REQUEST_TRACKER_H

#include <cstdint>
#include <deque>
#include <vector>

#include "serving/request.h"
#include "trace/sink.h"

namespace tetri::serving {

/** Registry of all requests of one serving run. */
class RequestTracker {
 public:
  /** Attach a sink notified of admissions (kAdmit) and transitions
   * (kTransition). Nullable, not owned. */
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }

  /**
   * Register an arrived request. Ids must be unique. O(1) amortized.
   * The returned reference stays valid for the tracker's lifetime.
   */
  Request& Admit(const workload::TraceRequest& meta);

  /**
   * Move @p request to @p to at time @p now. The single mutation point
   * for request states: every lifecycle change flows through here so
   * an observer sees the full transition stream, and the active
   * count and queued set stay exact. O(1), except that leaving kQueued
   * erases from the ordered queued set in O(q).
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
   * Clear @p out and fill it with the requests that are schedulable
   * right now: arrived, in kQueued state (not currently executing),
   * sorted by deadline then id. One insertion pass over the queued
   * set, which reads the live keys: O(q) in the number q of queued
   * requests when no key moved, plus the distance each requeued,
   * admitted or re-keyed request travels to its slot. Deadline edits
   * made through a held reference are therefore honoured. Reusing
   * @p out across ticks keeps the snapshot free of heap traffic.
   */
  void Schedulable(TimeUs now, std::vector<Request*>* out);
  /** Schedulable into a fresh vector. */
  std::vector<Request*> Schedulable(TimeUs now);

  /** Size the id index for @p n admissions, so admitting them never
   * rehashes. */
  void Reserve(std::size_t n);

  /** All requests still kQueued or kRunning. O(1). */
  int NumActive() const { return num_active_; }

  /**
   * Export every request as a metrics record, in admission order.
   * O(everything admitted); called once per run.
   */
  std::vector<metrics::RequestRecord> Records() const;

 private:
  struct Entry {
    Request request;
    /** Whether the entry is a member of queued_. */
    bool queued = false;
  };

  /** One id-index cell; slot == Request::kNoSlot marks it empty. */
  struct IndexCell {
    RequestId id = kInvalidRequest;
    std::uint32_t slot = Request::kNoSlot;
  };

  /** The entry holding @p request, through its slot. O(1). */
  Entry& EntryOf(const Request& request);
  void EnqueueQueued(Entry& entry);
  void EraseQueued(Entry& entry);

  /** The slot admitted under @p id, or Request::kNoSlot. */
  std::uint32_t FindSlot(RequestId id) const;
  /** The cell holding @p id, else the empty cell ending its probe
   * sequence. The index must be non-empty. */
  std::size_t Probe(RequestId id) const;
  /** Rebuild the index with room for @p n ids at load <= 1/2. */
  void Rehash(std::size_t n);

  /**
   * Id -> entry slot: linear probing over a power-of-two table kept at
   * most half full, so a probe sequence stays short for any id set.
   */
  std::vector<IndexCell> index_;
  /** log2(index_.size()); the hash keeps this many top bits. */
  int index_bits_ = 0;
  /** Admission order; a deque so entries never move. */
  std::deque<Entry> entries_;
  /**
   * Entries in kQueued. Sorted by (deadline, id) after each
   * Schedulable pass; between passes only entries appended by
   * EnqueueQueued or re-keyed through a held reference are out of
   * place, and the next pass moves them into their slots.
   */
  std::vector<Entry*> queued_;
  int num_active_ = 0;
  trace::TraceSink* trace_ = nullptr;
};

}  // namespace tetri::serving

#endif  // TETRI_SERVING_REQUEST_TRACKER_H
