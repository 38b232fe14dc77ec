// Bounded cache with pluggable replacement — the paper's §6 future-work
// extension ("developing caching policies when cache space at the base
// station is limited ... cache replacement policies based on client
// requests and knowledge of server updates").
//
// Victim selection is expressed as an eviction priority: the resident
// entry with the highest priority is evicted first. Built-in policies:
//   * LRU             — least-recently-used first;
//   * LFU             — least-frequently-used first;
//   * SizeAware       — largest object first (frees space fastest);
//   * RecencyProfit   — lowest retention value first, where retention
//                       value = popularity * recency / size: keep small,
//                       popular, fresh objects (uses "client requests and
//                       knowledge of server updates" exactly as §6 asks).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "object/object.hpp"

namespace mobi::cache {

/// Per-entry metadata visible to replacement policies.
struct Residency {
  object::ObjectId id = 0;
  object::Units size = 0;
  double recency = 1.0;
  sim::Tick last_access = 0;
  std::uint64_t access_count = 0;
};

/// Returns the eviction priority of an entry (higher = evict sooner).
using EvictionPriority = std::function<double(const Residency&, sim::Tick now)>;

struct ReplacementPolicy {
  std::string name;
  EvictionPriority priority;
};

ReplacementPolicy lru_policy();
ReplacementPolicy lfu_policy();
ReplacementPolicy size_aware_policy();
ReplacementPolicy recency_profit_policy();

/// A capacity-limited cache that holds only its residents: one id-sorted
/// vector, reserved at construction to the most entries that can fit,
/// min(catalog size, capacity / smallest object size). Lookups binary-
/// search the residents and victim selection scans them, so every
/// operation costs in the number of objects held, never in the catalog
/// size: a 20-unit client cache stays under a kilobyte however large the
/// catalog is.
class BoundedCache {
 public:
  BoundedCache(const object::Catalog& catalog,
               std::shared_ptr<const DecayModel> decay,
               object::Units capacity, ReplacementPolicy policy);

  object::Units capacity() const noexcept { return capacity_; }
  object::Units used() const noexcept { return used_; }
  const std::string& policy_name() const noexcept { return policy_.name; }
  std::uint64_t evictions() const noexcept { return evictions_; }

  bool contains(object::ObjectId id) const { return find(id) != nullptr; }
  std::optional<double> recency(object::ObjectId id) const;
  /// Recency treating "not cached" as 0 (useful for profit computations).
  double recency_or_zero(object::ObjectId id) const {
    return recency(id).value_or(0.0);
  }

  /// Installs a fetched copy, evicting victims as needed. Objects larger
  /// than the whole capacity are rejected (returns false, nothing evicted).
  /// `recency` is the installed copy's score (1.0 = straight from master)
  /// and must lie in (0, 1]; an invalid value throws before anything is
  /// evicted. Only the recency of the copy is kept, not its version.
  bool admit(object::ObjectId id, const server::FetchResult& fetch,
             sim::Tick now, double recency = 1.0);

  /// Read through the cache: bumps access stats; returns the recency of
  /// the copy served, or nullopt on miss.
  std::optional<double> read(object::ObjectId id, sim::Tick now);

  /// Notification that the master of `id` changed; decays the cached
  /// copy's recency (no-op if not cached).
  void on_server_update(object::ObjectId id);

  /// Applies `misses(id)` missed server updates to every resident, in id
  /// order, in place; returns the number of decays applied. This is how an
  /// invalidation report reaches the cache without a lookup per item.
  template <class Misses>
  int decay_residents(Misses&& misses) {
    int decayed = 0;
    for (Residency& resident : residents_) {
      for (auto k = misses(resident.id); k > 0; --k) {
        resident.recency = decay_->decayed(resident.recency);
        ++stats_.decays;
        ++decayed;
      }
    }
    return decayed;
  }

  /// Drops the entry for `id` (no-op when absent), releasing its space.
  bool evict(object::ObjectId id);

  /// Drops every entry (the sleeper rule); not counted as evictions.
  void clear() noexcept;

  /// The residents in id order; valid until the next admit/evict/clear.
  std::span<const Residency> residents() const noexcept { return residents_; }
  const CacheStats& stats() const noexcept { return stats_; }
  const DecayModel& decay_model() const noexcept { return *decay_; }

 private:
  /// First resident with id >= `id`; throws std::out_of_range for an id
  /// outside the catalog.
  std::vector<Residency>::const_iterator position(object::ObjectId id) const;
  const Residency* find(object::ObjectId id) const;
  Residency* find(object::ObjectId id) {
    return const_cast<Residency*>(std::as_const(*this).find(id));
  }
  void evict_until_fits(object::Units need, sim::Tick now);

  const object::Catalog* catalog_;
  std::shared_ptr<const DecayModel> decay_;
  object::Units capacity_;
  object::Units used_ = 0;
  ReplacementPolicy policy_;
  std::vector<Residency> residents_;  // sorted by id
  CacheStats stats_;
  std::uint64_t evictions_ = 0;
};

}  // namespace mobi::cache
