// osel/runtime/decision_cache.h — bounded per-region decision memoization.
//
// Suites relaunch the same region with identical bindings (iterative
// solvers, epoch loops); the models are pure functions of the PAD entry and
// the bound slot values, so the Decision can be memoized. The cache key is
// the plan's completed slot vector plus its bound-slot mask — everything
// launch-time evaluation depends on — hashed for the fast compare, with the
// full key stored to rule out collisions. Capacity-bounded with exact
// least-recently-used replacement; hit/miss/eviction counters feed the
// LaunchRecord / CSV observability columns.
//
// The cache runs on every launch, so every probe and insert is O(1): an
// open-addressing index (linear probing, backward-shift deletion) maps a
// key hash to a uint32_t entry id, and an intrusive doubly-linked recency
// list through the entries puts a hit at the head and gives eviction its
// victim at the tail. A victim's key and decision storage is reused by the
// entry that replaces it, so a full cache inserts without allocating.
//
// Thread-safety: one cache lives next to one region's plan inside a
// TargetRuntime shard, and concurrent decide() calls hit it from many
// threads. Entry storage is guarded by one per-cache mutex (the runtime's
// per-region caches form the lock stripes — contention only happens between
// launches of the *same* region), while the Stats counters are relaxed
// atomics so stats() reads observed mid-traffic are never torn: after the
// caller quiesces, hits + misses == lookups holds exactly.
//
// Invalidation is epoch-based so TargetRuntime::invalidateDecisionCaches()
// is one atomic bump instead of a walk over every shard: find()/insert()
// take the runtime's current epoch, and a cache lazily drops its entries
// the first time it observes a newer epoch than the one it stored under.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <vector>

#include "runtime/selector.h"

namespace osel::runtime {

class DecisionCache {
 public:
  /// Plain snapshot of the atomic counters; hits + misses == lookups once
  /// the cache is quiesced (each lookup counts exactly one of the two).
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t insertions = 0;
  };

  /// Largest capacity the uint32_t entry ids can address (one id value is
  /// reserved as the empty-slot / end-of-list sentinel).
  static constexpr std::size_t kMaxCapacity =
      std::numeric_limits<std::uint32_t>::max();

  /// Capacity 0 disables storage (every lookup misses, inserts are dropped).
  /// Throws support::PreconditionError when capacity > kMaxCapacity.
  explicit DecisionCache(std::size_t capacity = 64);

  /// Mixes the bound mask and slot values into the lookup hash.
  [[nodiscard]] static std::uint64_t hashKey(
      std::uint64_t boundMask, std::span<const std::int64_t> values);

  /// Copies the memoized decision for this exact key into `out` and returns
  /// true; false on a miss (out is untouched). Counts a hit or a miss.
  /// `epoch` is the owner's invalidation epoch: when it advanced past the
  /// epoch the entries were stored under, the stale entries are dropped
  /// first (a lazy, O(1)-to-signal invalidation). Copying a cached Decision
  /// whose diagnostic is empty (every valid decision) does not allocate.
  [[nodiscard]] bool find(std::uint64_t boundMask,
                          std::span<const std::int64_t> values, Decision& out,
                          std::uint64_t epoch = 0);

  /// Memoizes `decision` under `epoch`, evicting the least-recently-used
  /// entry at capacity. Inserting an already-present key refreshes its
  /// decision.
  void insert(std::uint64_t boundMask, std::span<const std::int64_t> values,
              const Decision& decision, std::uint64_t epoch = 0);

  /// Column-major (slot-major) key block for the bulk interface: row r of a
  /// region group reads `values[slot * rows + r]` with bound mask
  /// `masks[r]`. This is exactly the SoA layout the batched decide path
  /// evaluates from, so bulk probes do no per-row gather; the per-row hash
  /// and compare walk the strided column view and match hashKey()/find()
  /// on the equivalent contiguous row bit-for-bit.
  struct KeyBlock {
    const std::int64_t* values = nullptr;
    const std::uint64_t* masks = nullptr;
    std::size_t slots = 0;
    std::size_t rows = 0;
  };

  /// Bulk find: probes every row of `keys` under ONE mutex acquisition
  /// (the per-region caches are the runtime's lock stripes, so a batch
  /// group pays its stripe once instead of once per request). On a hit for
  /// row r the memoized decision is copied into `*out[r]` and `hit[r]` is
  /// set to 1; otherwise `hit[r]` is 0 and `*out[r]` is untouched. Stats
  /// count per entry — `rows` lookups and exactly one hit or miss each —
  /// so hits + misses == lookups is indistinguishable from `rows` scalar
  /// find() calls. Returns the number of hits.
  std::size_t findMany(const KeyBlock& keys, Decision* const* out,
                       std::uint8_t* hit, std::uint64_t epoch = 0);

  /// Bulk insert of the listed rows under one mutex acquisition;
  /// `decisions[r]` supplies row r's decision. Duplicate keys inside one
  /// call refresh the earlier insert, exactly as repeated scalar insert()
  /// calls would. Stats (insertions/evictions) count per inserted entry.
  void insertMany(const KeyBlock& keys, std::span<const std::uint32_t> rows,
                  const Decision* const* decisions, std::uint64_t epoch = 0);

  /// Drops every entry (plan invalidation); counters survive.
  void clear();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// One key as the hash and compare read it: `size` values, the i-th at
  /// `values[i * stride]` (stride 1 for a contiguous span, `rows` for a
  /// KeyBlock row).
  struct KeyRef {
    std::uint64_t boundMask = 0;
    const std::int64_t* values = nullptr;
    std::size_t size = 0;
    std::size_t stride = 1;
  };

  /// Per-entry bookkeeping the index probes and the recency list walk,
  /// kept apart from the decisions so a probe touches only this.
  struct Node {
    std::uint64_t hash = 0;
    std::uint64_t boundMask = 0;
    std::uint32_t prev = kNone;  ///< toward the head (more recent)
    std::uint32_t next = kNone;  ///< toward the tail (less recent)
    std::vector<std::int64_t> values;
  };

  [[nodiscard]] static KeyRef rowKey(const KeyBlock& keys, std::size_t row) {
    return {keys.masks[row], keys.values + row, keys.slots, keys.rows};
  }
  [[nodiscard]] static std::uint64_t hashOf(const KeyRef& key);

  // Callers of the helpers below hold mutex_.

  /// The live entry id holding `key`, or kNone.
  [[nodiscard]] std::uint32_t locate(std::uint64_t hash,
                                     const KeyRef& key) const;
  /// Looks `key` up; a hit moves its entry to the recency head, copies its
  /// decision into `out` and returns true.
  bool findLocked(const KeyRef& key, Decision& out);
  /// Inserts or refreshes `key`; the epoch is already synced.
  void insertLocked(const KeyRef& key, const Decision& decision);
  void linkFront(std::uint32_t id);
  void unlink(std::uint32_t id);
  /// Moves a live entry to the recency head.
  void touch(std::uint32_t id);
  void indexInsert(std::uint32_t id);
  /// Removes `id` from the index by backward shifting its probe run, so no
  /// tombstones accumulate.
  void indexErase(std::uint32_t id);
  /// Doubles the index and re-inserts the live ids.
  void growIndex();
  /// Drops every entry, keeping entry storage for reuse.
  void clearLocked();
  /// Drops stale entries when `epoch` advanced.
  void syncEpoch(std::uint64_t epoch);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Entry ids [0, size_) are live; ids at and past size_ keep the storage
  /// of entries dropped by clear() or an epoch bump for reuse.
  std::vector<Node> nodes_;
  std::vector<Decision> decisions_;
  std::size_t size_ = 0;
  /// Open-addressing table of entry ids (kNone = empty). Its size is 0 or a
  /// power of two at least eight times size_, so probe runs stay short.
  std::vector<std::uint32_t> index_;
  std::uint32_t head_ = kNone;  ///< most recently used
  std::uint32_t tail_ = kNone;  ///< least recently used: the next victim
  std::uint64_t epoch_ = 0;

  /// Relaxed atomics: counts are exact (no lost increments), ordering
  /// between counters is only guaranteed once the caller quiesces.
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> insertions_{0};
};

}  // namespace osel::runtime
