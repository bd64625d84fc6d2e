#include "serving/request_tracker.h"

#include <algorithm>

#include "util/check.h"

namespace tetri::serving {

Request&
RequestTracker::Admit(const workload::TraceRequest& meta)
{
  if (2 * (entries_.size() + 1) > index_.size()) Rehash(entries_.size() + 1);
  IndexCell& cell = index_[Probe(meta.id)];
  TETRI_CHECK_MSG(cell.slot == Request::kNoSlot,
                  "duplicate request id " << meta.id);
  TETRI_CHECK(entries_.size() < Request::kNoSlot);
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kAdmit;
    ev.time_us = meta.arrival_us;
    ev.request = meta.id;
    ev.steps = meta.num_steps;
    ev.value = static_cast<double>(meta.deadline_us - meta.arrival_us);
    trace_->OnEvent(ev);
  }
  const auto slot = static_cast<std::uint32_t>(entries_.size());
  cell = IndexCell{meta.id, slot};
  Entry& entry = entries_.emplace_back();
  entry.request.meta = meta;
  entry.request.tracker_slot = slot;
  ++num_active_;
  EnqueueQueued(entry);
  return entry.request;
}

void
RequestTracker::Transition(Request& request, RequestState to, TimeUs now)
{
  if (trace_ != nullptr) {
    trace::TraceEvent ev;
    ev.kind = trace::TraceEventKind::kTransition;
    ev.time_us = now;
    ev.request = request.meta.id;
    ev.degree = static_cast<std::int32_t>(request.state);
    ev.steps = static_cast<std::int32_t>(to);
    trace_->OnEvent(ev);
  }
  Entry& entry = EntryOf(request);
  const bool was_active = request.Active();
  request.state = to;
  num_active_ += static_cast<int>(request.Active()) -
                 static_cast<int>(was_active);
  if (to == RequestState::kQueued && !entry.queued) {
    EnqueueQueued(entry);
  } else if (to != RequestState::kQueued && entry.queued) {
    EraseQueued(entry);
  }
}

RequestTracker::Entry&
RequestTracker::EntryOf(const Request& request)
{
  const std::uint32_t slot = request.tracker_slot;
  TETRI_CHECK_MSG(slot < entries_.size() &&
                      &entries_[slot].request == &request,
                  "request " << request.meta.id
                             << " is not owned by this tracker");
  return entries_[slot];
}

std::size_t
RequestTracker::Probe(RequestId id) const
{
  // Fibonacci hashing: the top bits of id x 2^64/phi spread runs and
  // arithmetic progressions of ids evenly over the table.
  const std::size_t mask = index_.size() - 1;
  std::size_t cell = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ULL) >>
      (64 - index_bits_));
  while (index_[cell].slot != Request::kNoSlot && index_[cell].id != id) {
    cell = (cell + 1) & mask;
  }
  return cell;
}

void
RequestTracker::Reserve(std::size_t n)
{
  if (2 * n > index_.size()) Rehash(n);
}

void
RequestTracker::Rehash(std::size_t n)
{
  int bits = 4;
  while ((std::size_t{1} << bits) < 2 * n) ++bits;
  index_bits_ = bits;
  index_.assign(std::size_t{1} << bits, IndexCell{});
  for (std::uint32_t slot = 0; slot < entries_.size(); ++slot) {
    const RequestId id = entries_[slot].request.meta.id;
    index_[Probe(id)] = IndexCell{id, slot};
  }
}

void
RequestTracker::EnqueueQueued(Entry& entry)
{
  // Appended out of place; the next Schedulable pass slots it in.
  entry.queued = true;
  queued_.push_back(&entry);
}

void
RequestTracker::EraseQueued(Entry& entry)
{
  // Order-preserving erase, so a quiet queue stays sorted.
  const auto it = std::find(queued_.begin(), queued_.end(), &entry);
  TETRI_CHECK(it != queued_.end());
  queued_.erase(it);
  entry.queued = false;
}

std::uint32_t
RequestTracker::FindSlot(RequestId id) const
{
  return index_.empty() ? Request::kNoSlot : index_[Probe(id)].slot;
}

Request&
RequestTracker::Get(RequestId id)
{
  const std::uint32_t slot = FindSlot(id);
  TETRI_CHECK_MSG(slot != Request::kNoSlot, "unknown request " << id);
  return entries_[slot].request;
}

const Request&
RequestTracker::Get(RequestId id) const
{
  const std::uint32_t slot = FindSlot(id);
  TETRI_CHECK_MSG(slot != Request::kNoSlot, "unknown request " << id);
  return entries_[slot].request;
}

bool
RequestTracker::Contains(RequestId id) const
{
  return FindSlot(id) != Request::kNoSlot;
}

void
RequestTracker::Schedulable(TimeUs now, std::vector<Request*>* out)
{
  // Insertion pass on the live (deadline, id) key: O(q) over an
  // already sorted set, and exact for any input, so appended entries
  // and deadlines edited through held references land in their slots.
  // Ids are unique, so the order is total and equals a full sort.
  auto before = [](const Entry* a, const Entry* b) {
    const RequestMeta& x = a->request.meta;
    const RequestMeta& y = b->request.meta;
    if (x.deadline_us != y.deadline_us) return x.deadline_us < y.deadline_us;
    return x.id < y.id;
  };
  for (std::size_t i = 1; i < queued_.size(); ++i) {
    Entry* entry = queued_[i];
    std::size_t j = i;
    for (; j > 0 && before(entry, queued_[j - 1]); --j) {
      queued_[j] = queued_[j - 1];
    }
    queued_[j] = entry;
  }
  // The state filter stays: the queued set is maintained by Transition,
  // and a request whose state was written directly must not leak out.
  out->clear();
  for (Entry* entry : queued_) {
    Request& req = entry->request;
    if (req.state == RequestState::kQueued && req.Arrived(now)) {
      out->push_back(&req);
    }
  }
}

std::vector<Request*>
RequestTracker::Schedulable(TimeUs now)
{
  std::vector<Request*> out;
  Schedulable(now, &out);
  return out;
}

std::vector<metrics::RequestRecord>
RequestTracker::Records() const
{
  std::vector<metrics::RequestRecord> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.push_back(entry.request.ToRecord());
  }
  return out;
}

}  // namespace tetri::serving
