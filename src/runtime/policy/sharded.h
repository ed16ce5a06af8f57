// osel/runtime/policy/sharded.h — region-keyed sharded state for policies.
//
// The stateful policy (Calibrated) keeps a small per-region record that
// concurrent decide/decideBatch/launch threads read and write, so state is
// striped across kPolicyStateShards region-hash shards: callers touching
// different regions (the common case — batches group by region) take
// different locks. The hash is FNV-1a, not std::hash,
// so shard assignment — and therefore any contention pattern a bench
// measures — is identical across standard libraries.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace osel::runtime::policy {

/// FNV-1a 64-bit — deterministic across platforms and standard libraries.
[[nodiscard]] constexpr std::uint64_t regionHash(
    std::string_view region) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const char ch : region) {
    hash ^= static_cast<std::uint8_t>(ch);
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

/// Lock stripes of every policy's per-region state.
inline constexpr std::size_t kPolicyStateShards = 16;

/// Mutex-striped map from region name to a policy's per-region State.
/// Readers of absent regions pay one lock + map miss and get a
/// default-constructed State by value; writers find-or-create the node.
template <typename State>
class ShardedRegionMap {
 public:
  /// Copy of the region's state (default-constructed when never touched).
  [[nodiscard]] State peek(std::string_view region) const {
    const Stripe& stripe = stripeFor(region);
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    const auto it = stripe.regions.find(region);
    return it == stripe.regions.end() ? State{} : it->second;
  }

  /// Applies `fn(State&)` to the region's state under its stripe lock,
  /// creating the node on first touch; returns fn's result.
  template <typename Fn>
  auto update(std::string_view region, Fn&& fn) {
    Stripe& stripe = stripeFor(region);
    const std::lock_guard<std::mutex> lock(stripe.mutex);
    auto it = stripe.regions.find(region);
    if (it == stripe.regions.end()) {
      it = stripe.regions.emplace(std::string(region), State{}).first;
    }
    return std::forward<Fn>(fn)(it->second);
  }

  /// Every (region, state) pair, name-sorted. Each stripe is copied under
  /// its own lock: coherent per region, not a cross-stripe atomic snapshot.
  [[nodiscard]] std::vector<std::pair<std::string, State>> snapshot() const {
    std::vector<std::pair<std::string, State>> out;
    for (const Stripe& stripe : stripes_) {
      const std::lock_guard<std::mutex> lock(stripe.mutex);
      for (const auto& [region, state] : stripe.regions) {
        out.emplace_back(region, state);
      }
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

 private:
  struct Stripe {
    mutable std::mutex mutex;
    std::map<std::string, State, std::less<>> regions;
  };

  [[nodiscard]] Stripe& stripeFor(std::string_view region) const {
    return stripes_[regionHash(region) % kPolicyStateShards];
  }

  mutable std::array<Stripe, kPolicyStateShards> stripes_;
};

}  // namespace osel::runtime::policy
