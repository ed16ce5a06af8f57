#include "obs/explain.h"

#include <algorithm>
#include <cstring>

#include "support/check.h"

namespace osel::obs {

const char* toString(DecisionPath path) {
  switch (path) {
    case DecisionPath::Compiled:
      return "compiled";
    case DecisionPath::Degenerate:
      return "degenerate";
  }
  return "?";
}

void DecisionExplain::setRegion(std::string_view name) noexcept {
  const std::size_t n = std::min(name.size(), region.size() - 1);
  std::memcpy(region.data(), name.data(), n);
  // Clear the tail too: a reused record must not keep a longer old name's
  // bytes past the terminator.
  std::memset(region.data() + n, 0, region.size() - n);
}

ExplainRing::ExplainRing(std::size_t capacity) {
  support::require(capacity > 0, "ExplainRing: capacity must be > 0");
  ring_.resize(capacity);
}

void ExplainRing::pushMany(std::span<const DecisionExplain> records,
                           std::int64_t stampNs) noexcept {
  const std::size_t capacity = ring_.size();
  // Only the last `capacity` records survive the call; the ones before
  // them take their seq numbers (recorded, then dropped) uncopied.
  const std::size_t skipped =
      records.size() > capacity ? records.size() - capacity : 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  nextSeq_ += skipped;
  for (const DecisionExplain& record : records.subspan(skipped)) {
    DecisionExplain& slot = ring_[nextSeq_ % capacity];
    slot = record;
    slot.seq = nextSeq_;
    if (slot.atNs == 0) slot.atNs = stampNs;
    nextSeq_ += 1;
  }
}

std::vector<DecisionExplain> ExplainRing::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t capacity = ring_.size();
  const std::uint64_t first = nextSeq_ > capacity ? nextSeq_ - capacity : 0;
  std::vector<DecisionExplain> out;
  out.reserve(static_cast<std::size_t>(nextSeq_ - first));
  for (std::uint64_t seq = first; seq < nextSeq_; ++seq) {
    out.push_back(ring_[seq % capacity]);
  }
  return out;
}

bool ExplainRing::latestFor(std::string_view region,
                            DecisionExplain& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t capacity = ring_.size();
  const std::uint64_t first = nextSeq_ > capacity ? nextSeq_ - capacity : 0;
  for (std::uint64_t seq = nextSeq_; seq > first; --seq) {
    const DecisionExplain& candidate = ring_[(seq - 1) % capacity];
    if (candidate.regionView() == region) {
      out = candidate;
      return true;
    }
  }
  return false;
}

std::uint64_t ExplainRing::recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return nextSeq_;
}

std::uint64_t ExplainRing::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t capacity = ring_.size();
  return nextSeq_ > capacity ? nextSeq_ - capacity : 0;
}

void ExplainRing::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  nextSeq_ = 0;
}

}  // namespace osel::obs
