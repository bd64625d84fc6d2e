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
  const bool in_queued = entry.queued_pos != kNotQueued;
  if (to == RequestState::kQueued && !in_queued) {
    EnqueueQueued(entry);
  } else if (to != RequestState::kQueued && in_queued) {
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
  entry.queued_pos = queued_.size();
  queued_.push_back(&entry);
}

void
RequestTracker::EraseQueued(Entry& entry)
{
  // Swap-erase: the last member takes the vacated slot.
  Entry* last = queued_.back();
  queued_[entry.queued_pos] = last;
  last->queued_pos = entry.queued_pos;
  queued_.pop_back();
  entry.queued_pos = kNotQueued;
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

std::vector<Request*>
RequestTracker::Schedulable(TimeUs now)
{
  // The state filter stays: the queued set is maintained by Transition,
  // and a request whose state was written directly must not leak out.
  std::vector<Request*> out;
  for (Entry* entry : queued_) {
    Request& req = entry->request;
    if (req.state == RequestState::kQueued && req.Arrived(now)) {
      out.push_back(&req);
    }
  }
  std::sort(out.begin(), out.end(), [](const Request* a, const Request* b) {
    if (a->meta.deadline_us != b->meta.deadline_us) {
      return a->meta.deadline_us < b->meta.deadline_us;
    }
    return a->meta.id < b->meta.id;
  });
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
