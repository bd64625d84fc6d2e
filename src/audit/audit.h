/**
 * @file
 * The audit core: structured violation reports, the Checker base
 * class, and the Auditor that fans the run's trace events out to every
 * registered checker.
 *
 * Checkers are trace::TraceSinks that validate one scheduler/runtime
 * invariant each from the event stream and *report* violations
 * instead of aborting — unlike TETRI_CHECK, which is the always-on
 * last line of defence, the audit layer accumulates evidence so a run
 * can surface every broken invariant at once. A checker names the
 * event kinds it reads; the Auditor hands it only those, so a kind no
 * checker reads (kStep, kPlanChoice, ...) costs one table lookup. Each
 * event is O(1) amortized per checker. Concrete checkers live in
 * checkers.h.
 */
#ifndef TETRI_AUDIT_AUDIT_H
#define TETRI_AUDIT_AUDIT_H

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/sink.h"

namespace tetri::audit {

using trace::TraceEvent;
using trace::TraceEventKind;

class Auditor;

/** One detected invariant violation. */
struct Violation {
  /** Name of the checker that fired. */
  std::string checker;
  /** Virtual time at which the violation was observed. */
  TimeUs time_us = 0;
  std::string message;
};

/** Base class for invariant checkers. */
class Checker : public trace::TraceSink {
 public:
  /** Stable identifier used in reports, e.g. "gpu-conservation". */
  virtual std::string_view name() const = 0;

 protected:
  /** @p kinds: the events OnEvent is called with. */
  explicit Checker(std::initializer_list<TraceEventKind> kinds);

  /** Record a violation with the owning auditor. */
  void Report(TimeUs time_us, std::string message);

 private:
  friend class Auditor;
  Auditor* owner_ = nullptr;
  /** The kinds this checker reads, one bit per TraceEventKind. */
  std::uint64_t kinds_ = 0;
};

/**
 * Owns a set of checkers and routes every event to the ones that read
 * its kind. Violations are accumulated centrally: the first kMaxStored
 * are kept verbatim, the rest only counted, so a hot loop that trips
 * an invariant cannot blow up memory. Not thread-safe: a concurrent
 * emitter reaches it through a trace::Tracer, which serialises.
 */
class Auditor final : public trace::TraceSink {
 public:
  static constexpr std::size_t kMaxStored = 256;

  Auditor() = default;
  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /** Register @p checker; the auditor takes ownership. */
  Checker& AddChecker(std::unique_ptr<Checker> checker);

  /** Stored violations (capped at kMaxStored). */
  const std::vector<Violation>& violations() const { return violations_; }

  /** Total violations observed, including ones past the storage cap. */
  std::uint64_t total_violations() const { return total_; }

  bool clean() const { return total_ == 0; }

  /** Human-readable digest of every stored violation. */
  std::string Summary() const;

  /** Record a violation directly (checkers call this via Report). */
  void Record(Violation violation);

  /** Hand @p event to every checker that reads its kind. */
  void OnEvent(const TraceEvent& event) override;

 private:
  static constexpr std::size_t kNumKinds =
      static_cast<std::size_t>(TraceEventKind::kRunEnd) + 1;

  std::vector<std::unique_ptr<Checker>> checkers_;
  /** Per kind, the checkers that read it, in registration order. */
  std::array<std::vector<Checker*>, kNumKinds> readers_;
  std::vector<Violation> violations_;
  std::uint64_t total_ = 0;
};

}  // namespace tetri::audit

#endif  // TETRI_AUDIT_AUDIT_H
