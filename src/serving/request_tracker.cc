#include "serving/request_tracker.h"

#include <algorithm>

#include "util/check.h"

namespace tetri::serving {

Request&
RequestTracker::Admit(const workload::TraceRequest& meta)
{
  TETRI_CHECK_MSG(!Contains(meta.id), "duplicate request id " << meta.id);
  if (audit_ != nullptr) {
    audit_->OnRequestAdmitted(meta.id, meta.arrival_us, meta.deadline_us,
                              meta.num_steps);
  }
  Entry& entry = entries_.emplace_back();
  entry.request.meta = meta;
  index_.emplace(meta.id, &entry);
  ++num_active_;
  EnqueueQueued(entry);
  return entry.request;
}

void
RequestTracker::Transition(Request& request, RequestState to, TimeUs now)
{
  if (audit_ != nullptr) {
    audit_->OnRequestTransition(request.meta.id,
                                static_cast<int>(request.state),
                                static_cast<int>(to), now);
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
  auto it = index_.find(request.meta.id);
  TETRI_CHECK_MSG(it != index_.end() && &it->second->request == &request,
                  "request " << request.meta.id
                             << " is not owned by this tracker");
  return *it->second;
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

Request&
RequestTracker::Get(RequestId id)
{
  auto it = index_.find(id);
  TETRI_CHECK_MSG(it != index_.end(), "unknown request " << id);
  return it->second->request;
}

const Request&
RequestTracker::Get(RequestId id) const
{
  auto it = index_.find(id);
  TETRI_CHECK_MSG(it != index_.end(), "unknown request " << id);
  return it->second->request;
}

bool
RequestTracker::Contains(RequestId id) const
{
  return index_.contains(id);
}

void
RequestTracker::Schedulable(TimeUs now, std::vector<Request*>* out)
{
  // Insertion pass on the live (deadline, id) key: O(q) over an
  // already sorted set, and exact for any input, so appended entries
  // and deadlines edited through held references land in their slots.
  // Ids are unique, so the order is total and equals a full sort.
  auto before = [](const Entry* a, const Entry* b) {
    const workload::TraceRequest& x = a->request.meta;
    const workload::TraceRequest& y = b->request.meta;
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
