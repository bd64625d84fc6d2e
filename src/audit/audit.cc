#include "audit/audit.h"

#include <sstream>
#include <utility>

#include "util/check.h"

namespace tetri::audit {

Checker::Checker(std::initializer_list<TraceEventKind> kinds)
{
  static_assert(static_cast<std::size_t>(TraceEventKind::kRunEnd) < 64,
                "a checker's kinds must fit one 64-bit set");
  for (TraceEventKind kind : kinds) {
    kinds_ |= std::uint64_t{1} << static_cast<unsigned>(kind);
  }
}

void
Checker::Report(TimeUs time_us, std::string message)
{
  TETRI_CHECK_MSG(owner_ != nullptr,
                  "checker reported before being added to an Auditor");
  Violation v;
  v.checker = std::string(name());
  v.time_us = time_us;
  v.message = std::move(message);
  owner_->Record(std::move(v));
}

Checker&
Auditor::AddChecker(std::unique_ptr<Checker> checker)
{
  TETRI_CHECK(checker != nullptr);
  checker->owner_ = this;
  for (std::size_t k = 0; k < kNumKinds; ++k) {
    if ((checker->kinds_ >> k) & 1u) readers_[k].push_back(checker.get());
  }
  checkers_.push_back(std::move(checker));
  return *checkers_.back();
}

void
Auditor::Record(Violation violation)
{
  ++total_;
  if (violations_.size() < kMaxStored) {
    violations_.push_back(std::move(violation));
  }
}

std::string
Auditor::Summary() const
{
  std::ostringstream oss;
  oss << total_ << " audit violation(s)";
  for (const Violation& v : violations_) {
    oss << "\n  [" << v.checker << "] t=" << v.time_us << "us: "
        << v.message;
  }
  if (total_ > violations_.size()) {
    oss << "\n  ... " << (total_ - violations_.size())
        << " further violation(s) not stored";
  }
  return oss.str();
}

void
Auditor::OnEvent(const TraceEvent& event)
{
  for (Checker* c : readers_[static_cast<std::size_t>(event.kind)]) {
    c->OnEvent(event);
  }
}

}  // namespace tetri::audit
