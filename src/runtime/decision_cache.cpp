#include "runtime/decision_cache.h"

#include <algorithm>

#include "support/check.h"

namespace osel::runtime {

namespace {

/// SplitMix64 finalizer — a fast, well-mixed 64-bit hash step.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Index slots per live entry, at least. Under cold traffic nearly every
/// probe is for an absent key; at a load factor of 1/8 most of those end
/// on an empty home slot, so the probe loop's exit branch stays predictable.
constexpr std::size_t kSlotsPerEntry = 8;

}  // namespace

DecisionCache::DecisionCache(std::size_t capacity) : capacity_(capacity) {
  support::require(capacity <= kMaxCapacity,
                   "DecisionCache: capacity exceeds what uint32_t entry ids "
                   "can address");
}

std::uint64_t DecisionCache::hashOf(const KeyRef& key) {
  std::uint64_t hash = mix(key.boundMask ^ (key.size * 0x9E3779B97F4A7C15ULL));
  for (std::size_t i = 0; i < key.size; ++i) {
    hash = mix(hash ^ static_cast<std::uint64_t>(key.values[i * key.stride]));
  }
  return hash;
}

std::uint64_t DecisionCache::hashKey(std::uint64_t boundMask,
                                     std::span<const std::int64_t> values) {
  return hashOf({boundMask, values.data(), values.size(), 1});
}

std::uint32_t DecisionCache::locate(std::uint64_t hash,
                                    const KeyRef& key) const {
  if (index_.empty()) return kNone;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t pos = hash & mask;; pos = (pos + 1) & mask) {
    const std::uint32_t id = index_[pos];
    if (id == kNone) return kNone;
    const Node& node = nodes_[id];
    if (node.hash != hash || node.boundMask != key.boundMask ||
        node.values.size() != key.size) {
      continue;
    }
    bool equal = true;
    for (std::size_t i = 0; i < key.size; ++i) {
      if (node.values[i] != key.values[i * key.stride]) {
        equal = false;
        break;
      }
    }
    if (equal) return id;
  }
}

void DecisionCache::linkFront(std::uint32_t id) {
  Node& node = nodes_[id];
  node.prev = kNone;
  node.next = head_;
  if (head_ != kNone) nodes_[head_].prev = id;
  head_ = id;
  if (tail_ == kNone) tail_ = id;
}

void DecisionCache::unlink(std::uint32_t id) {
  Node& node = nodes_[id];
  (node.prev != kNone ? nodes_[node.prev].next : head_) = node.next;
  (node.next != kNone ? nodes_[node.next].prev : tail_) = node.prev;
}

void DecisionCache::touch(std::uint32_t id) {
  if (id == head_) return;
  unlink(id);
  linkFront(id);
}

void DecisionCache::indexInsert(std::uint32_t id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t pos = nodes_[id].hash & mask;
  while (index_[pos] != kNone) pos = (pos + 1) & mask;
  index_[pos] = id;
}

void DecisionCache::indexErase(std::uint32_t id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = nodes_[id].hash & mask;
  while (index_[hole] != id) hole = (hole + 1) & mask;
  // Pull later members of the probe run back into the hole whenever the
  // hole lies between their home slot and where they sit, so every live id
  // stays reachable from its home without tombstones.
  for (std::size_t pos = (hole + 1) & mask; index_[pos] != kNone;
       pos = (pos + 1) & mask) {
    const std::size_t home = nodes_[index_[pos]].hash & mask;
    if (((pos - home) & mask) >= ((pos - hole) & mask)) {
      index_[hole] = index_[pos];
      hole = pos;
    }
  }
  index_[hole] = kNone;
}

void DecisionCache::growIndex() {
  index_.assign(std::max(kSlotsPerEntry, index_.size() * 2), kNone);
  for (std::size_t id = 0; id < size_; ++id) {
    indexInsert(static_cast<std::uint32_t>(id));
  }
}

void DecisionCache::clearLocked() {
  std::fill(index_.begin(), index_.end(), kNone);
  size_ = 0;
  head_ = kNone;
  tail_ = kNone;
}

bool DecisionCache::syncEpoch(std::uint64_t epoch) {
  if (epoch < epoch_) return false;
  if (epoch > epoch_) {
    clearLocked();
    epoch_ = epoch;
  }
  return true;
}

bool DecisionCache::findLocked(const KeyRef& key, Decision& out) {
  const std::uint32_t id = locate(hashOf(key), key);
  if (id == kNone) return false;
  touch(id);
  out = decisions_[id];
  return true;
}

DecisionCache::Insert DecisionCache::insertLocked(const KeyRef& key,
                                                  const Decision& decision) {
  const std::uint64_t hash = hashOf(key);
  std::uint32_t id = locate(hash, key);
  if (id != kNone) {
    decisions_[id] = decision;
    touch(id);
    return Insert::Refreshed;
  }
  Insert outcome = Insert::Added;
  if (size_ < capacity_) {
    if (index_.size() < kSlotsPerEntry * (size_ + 1)) growIndex();
    id = static_cast<std::uint32_t>(size_++);
    if (id == nodes_.size()) {
      nodes_.emplace_back();
      decisions_.emplace_back();
    }
  } else {
    // Replace the least-recently-used entry, reusing its storage.
    id = tail_;
    unlink(id);
    indexErase(id);
    outcome = Insert::Evicted;
  }
  Node& node = nodes_[id];
  node.hash = hash;
  node.boundMask = key.boundMask;
  node.values.resize(key.size);
  for (std::size_t i = 0; i < key.size; ++i) {
    node.values[i] = key.values[i * key.stride];
  }
  decisions_[id] = decision;
  linkFront(id);
  indexInsert(id);
  return outcome;
}

std::size_t DecisionCache::findMany(const KeyBlock& keys, Decision* const* out,
                                    std::uint8_t* hit, std::uint64_t epoch) {
  lookups_.fetch_add(keys.rows, std::memory_order_relaxed);
  std::size_t found = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool current = syncEpoch(epoch);
    for (std::size_t row = 0; row < keys.rows; ++row) {
      hit[row] = current && findLocked(rowKey(keys, row), *out[row]) ? 1 : 0;
      found += hit[row];
    }
  }
  hits_.fetch_add(found, std::memory_order_relaxed);
  misses_.fetch_add(keys.rows - found, std::memory_order_relaxed);
  return found;
}

void DecisionCache::insertMany(const KeyBlock& keys,
                               std::span<const std::uint32_t> rows,
                               const Decision* const* decisions,
                               std::uint64_t epoch) {
  if (capacity_ == 0 || rows.empty()) return;
  // Tallied under the lock, published once per call after it.
  std::uint64_t inserted = 0;
  std::uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!syncEpoch(epoch)) return;
    for (const std::uint32_t row : rows) {
      const Insert outcome = insertLocked(rowKey(keys, row), *decisions[row]);
      inserted += outcome != Insert::Refreshed ? 1 : 0;
      evicted += outcome == Insert::Evicted ? 1 : 0;
    }
  }
  if (inserted > 0) insertions_.fetch_add(inserted, std::memory_order_relaxed);
  if (evicted > 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
}

void DecisionCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  clearLocked();
}

DecisionCache::Stats DecisionCache::stats() const {
  Stats out;
  out.lookups = lookups_.load(std::memory_order_relaxed);
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.insertions = insertions_.load(std::memory_order_relaxed);
  return out;
}

std::size_t DecisionCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

}  // namespace osel::runtime
