#include "cache/replacement.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mobi::cache {

ReplacementPolicy lru_policy() {
  return ReplacementPolicy{
      "lru", [](const Residency& r, sim::Tick now) {
        return double(now - r.last_access);  // older access = higher priority
      }};
}

ReplacementPolicy lfu_policy() {
  return ReplacementPolicy{"lfu", [](const Residency& r, sim::Tick) {
                             return -double(r.access_count);
                           }};
}

ReplacementPolicy size_aware_policy() {
  return ReplacementPolicy{
      "size-aware",
      [](const Residency& r, sim::Tick) { return double(r.size); }};
}

ReplacementPolicy recency_profit_policy() {
  return ReplacementPolicy{
      "recency-profit", [](const Residency& r, sim::Tick) {
        // Retention value: popular, fresh, small objects are worth
        // keeping; evict the lowest value = highest priority.
        const double popularity = double(r.access_count) + 1.0;
        const double value = popularity * r.recency / double(r.size);
        return -value;
      }};
}

BoundedCache::BoundedCache(const object::Catalog& catalog,
                           std::shared_ptr<const DecayModel> decay,
                           object::Units capacity, ReplacementPolicy policy)
    : catalog_(&catalog),
      decay_(std::move(decay)),
      capacity_(capacity),
      policy_(std::move(policy)) {
  if (!decay_) throw std::invalid_argument("BoundedCache: null decay model");
  if (capacity <= 0) {
    throw std::invalid_argument("BoundedCache: capacity must be > 0");
  }
  if (!policy_.priority) {
    throw std::invalid_argument("BoundedCache: policy has no priority fn");
  }
  // Every resident is at least min_size() units and they share capacity_,
  // so this reservation is never outgrown: admits do not allocate.
  if (!catalog.empty()) {
    residents_.reserve(std::min<std::size_t>(
        catalog.size(), std::size_t(capacity / catalog.min_size())));
  }
}

std::vector<Residency>::const_iterator BoundedCache::position(
    object::ObjectId id) const {
  if (id >= catalog_->size()) {
    throw std::out_of_range("BoundedCache: bad object id");
  }
  return std::lower_bound(
      residents_.begin(), residents_.end(), id,
      [](const Residency& r, object::ObjectId key) { return r.id < key; });
}

const Residency* BoundedCache::find(object::ObjectId id) const {
  const auto it = position(id);
  return it != residents_.end() && it->id == id ? &*it : nullptr;
}

std::optional<double> BoundedCache::recency(object::ObjectId id) const {
  const Residency* meta = find(id);
  if (!meta) return std::nullopt;
  return meta->recency;
}

bool BoundedCache::admit(object::ObjectId id, const server::FetchResult&,
                         sim::Tick now, double recency) {
  const object::Units size = catalog_->object_size(id);
  if (size > capacity_) return false;
  if (!(recency > 0.0) || recency > 1.0) {
    throw std::invalid_argument(
        "BoundedCache::admit: recency must be in (0, 1]");
  }
  ++stats_.refreshes;
  if (Residency* meta = find(id)) {
    // Refresh in place: size already accounted.
    meta->recency = recency;
    return true;
  }
  evict_until_fits(size, now);
  residents_.insert(position(id), Residency{id, size, recency, now, 0});
  used_ += size;
  return true;
}

std::optional<double> BoundedCache::read(object::ObjectId id, sim::Tick now) {
  Residency* meta = find(id);
  if (!meta) {
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  meta->last_access = now;
  ++meta->access_count;
  return meta->recency;
}

void BoundedCache::on_server_update(object::ObjectId id) {
  if (Residency* meta = find(id)) {
    meta->recency = decay_->decayed(meta->recency);
    ++stats_.decays;
  }
}

bool BoundedCache::evict(object::ObjectId id) {
  const auto it = position(id);
  if (it == residents_.end() || it->id != id) return false;
  used_ -= it->size;
  residents_.erase(it);
  return true;
}

void BoundedCache::clear() noexcept {
  residents_.clear();
  used_ = 0;
}

void BoundedCache::evict_until_fits(object::Units need, sim::Tick now) {
  while (capacity_ - used_ < need) {
    // The resident with the highest eviction priority; on ties the lowest
    // id wins (strict > over the id-ordered scan).
    double best_priority = -std::numeric_limits<double>::infinity();
    auto victim = residents_.end();
    for (auto it = residents_.begin(); it != residents_.end(); ++it) {
      const double priority = policy_.priority(*it, now);
      if (priority > best_priority) {
        best_priority = priority;
        victim = it;
      }
    }
    if (victim == residents_.end()) {
      throw std::logic_error("BoundedCache: no victim but cache is full");
    }
    used_ -= victim->size;
    residents_.erase(victim);
    ++evictions_;
  }
}

}  // namespace mobi::cache
