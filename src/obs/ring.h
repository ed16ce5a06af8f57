// osel/obs/ring.h — the bounded record ring behind every obs capture.
//
// A TraceSession records into three rings: trace events, DecisionExplain
// forensics and slow-request wide events. All three are one
// BoundedRing<T>: preallocated at construction, fixed-size records copied
// in under one lock per call, oldest records overwritten when full and the
// drops counted. Pushing never heap-allocates.
//
// The records share one inline label (a region or event name): a
// 48-byte array that truncates, NUL-terminates and zero-fills its tail.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "support/check.h"

namespace osel::obs {

inline constexpr std::size_t kLabelCapacity = 48;
/// NUL-terminated inline name; see setLabel().
using InlineLabel = std::array<char, kLabelCapacity>;

/// Copies `text` into `label`, truncated to kLabelCapacity - 1 bytes, and
/// zero-fills every byte after it: a reused record never keeps a longer old
/// name's tail past the terminator.
inline void setLabel(InlineLabel& label, std::string_view text) noexcept {
  const std::size_t n = std::min(text.size(), label.size() - 1);
  std::memcpy(label.data(), text.data(), n);
  std::memset(label.data() + n, 0, label.size() - n);
}

/// Bounded ring of fixed-size records, oldest-overwritten. `T` carries a
/// `seq` field the ring stamps with the record's global order (it survives
/// wrap-around) and an int64 timestamp field `Stamp` that pushMany() fills
/// on records the caller left at 0. Thread-safe.
template <class T, std::int64_t T::*Stamp = &T::atNs>
class BoundedRing {
 public:
  using value_type = T;

  /// Precondition: capacity > 0.
  explicit BoundedRing(std::size_t capacity) {
    support::require(capacity > 0, "BoundedRing: capacity must be > 0");
    ring_.resize(capacity);
  }

  /// Copies `records` into the ring under one lock, stamping seq in record
  /// order and `Stamp` = `stampNs` on every record that left it at 0. The
  /// ring ends up exactly as after one push() per record: records that a
  /// later record of the same call would overwrite (more records than
  /// capacity()) count as recorded and dropped without being copied.
  void pushMany(std::span<const T> records,
                std::int64_t stampNs = 0) noexcept {
    const std::size_t capacity = ring_.size();
    const std::size_t skipped =
        records.size() > capacity ? records.size() - capacity : 0;
    const std::lock_guard<std::mutex> lock(mutex_);
    nextSeq_ += skipped;
    for (const T& record : records.subspan(skipped)) {
      T& slot = ring_[nextSeq_ % capacity];
      slot = record;
      slot.seq = nextSeq_++;
      if (slot.*Stamp == 0) slot.*Stamp = stampNs;
    }
  }

  /// Copies `record` into the ring, stamping its seq (its timestamp is kept).
  void push(const T& record) noexcept {
    pushMany(std::span<const T>(&record, 1));
  }

  /// Buffered records, oldest first (at most capacity()).
  [[nodiscard]] std::vector<T> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(nextSeq_ - firstSeq()));
    for (std::uint64_t seq = firstSeq(); seq < nextSeq_; ++seq) {
      out.push_back(ring_[seq % ring_.size()]);
    }
    return out;
  }

  /// Copies the newest surviving record satisfying `match` into `out`;
  /// false when the ring holds none.
  template <class Match>
  [[nodiscard]] bool findNewest(Match&& match, T& out) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint64_t seq = nextSeq_; seq > firstSeq(); --seq) {
      const T& candidate = ring_[(seq - 1) % ring_.size()];
      if (match(candidate)) {
        out = candidate;
        return true;
      }
    }
    return false;
  }

  /// Total records offered (kept + overwritten).
  [[nodiscard]] std::uint64_t recorded() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return nextSeq_;
  }
  /// Records overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return firstSeq();
  }
  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Empties the ring and restarts seq at 0; the capacity stays.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    nextSeq_ = 0;
  }

 private:
  /// Oldest surviving seq (== records dropped so far). Caller holds mutex_.
  [[nodiscard]] std::uint64_t firstSeq() const {
    return nextSeq_ > ring_.size() ? nextSeq_ - ring_.size() : 0;
  }

  mutable std::mutex mutex_;
  std::vector<T> ring_;  ///< preallocated, indexed seq % capacity
  std::uint64_t nextSeq_ = 0;
};

}  // namespace osel::obs
