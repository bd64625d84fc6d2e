/**
 * @file
 * Flat open-addressing map from RequestId to a small value, the
 * per-request store of every audit checker.
 *
 * Linear probing over one power-of-two slot array kept at most half
 * full. The array doubles when it fills, so a run that admits N
 * requests pays O(log N) allocations, where a node-based
 * std::unordered_map pays one per request. Entries are never erased:
 * a checker that needs set removal keeps the state in the value.
 */
#ifndef TETRI_AUDIT_ID_TABLE_H
#define TETRI_AUDIT_ID_TABLE_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/types.h"

namespace tetri::audit {

template <typename V>
class IdTable {
 public:
  /** The value stored for @p id, or nullptr when absent. */
  V* Find(RequestId id) {
    if (slots_.empty() || id == kEmpty) return nullptr;
    Slot& slot = slots_[Probe(id)];
    return slot.id == id ? &slot.value : nullptr;
  }

  /**
   * Store @p value for @p id unless an entry exists. Returns the stored
   * value and whether it was inserted.
   */
  std::pair<V*, bool> Insert(RequestId id, V value) {
    TETRI_CHECK(id != kEmpty);
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Slot& slot = slots_[Probe(id)];
    if (slot.id == id) return {&slot.value, false};
    slot.id = id;
    slot.value = std::move(value);
    ++size_;
    return {&slot.value, true};
  }

  /** The value stored for @p id, inserting a default one if absent. */
  V& operator[](RequestId id) { return *Insert(id, V{}).first; }

  /** Visit every (id, value) entry, in slot order. */
  template <typename F>
  void ForEach(F&& visit) const {
    for (const Slot& slot : slots_) {
      if (slot.id != kEmpty) visit(slot.id, slot.value);
    }
  }

 private:
  static constexpr RequestId kEmpty = std::numeric_limits<RequestId>::min();
  static constexpr std::size_t kMinSlots = 64;

  struct Slot {
    RequestId id = kEmpty;
    V value{};
  };

  /** Index of @p id's slot, or of the empty slot where it belongs. */
  std::size_t Probe(RequestId id) const {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing: the multiply spreads sequential ids.
    std::size_t i = (static_cast<std::uint64_t>(id) *
                     0x9e3779b97f4a7c15ULL) >> shift_;
    while (slots_[i].id != id && slots_[i].id != kEmpty) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t n = old.empty() ? kMinSlots : 2 * old.size();
    slots_.assign(n, Slot{});
    shift_ = 64 - std::countr_zero(n);
    for (Slot& slot : old) {
      if (slot.id != kEmpty) slots_[Probe(slot.id)] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace tetri::audit

#endif  // TETRI_AUDIT_ID_TABLE_H
