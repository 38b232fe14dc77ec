// Differential fuzz suite for the resident-set BoundedCache and the
// invalidation listener's per-report walk of its residents. The reference below is the catalog-scan
// design they replaced, kept verbatim as the oracle: a dense Cache over
// the whole catalog plus one optional Residency slot per object, victim
// selection by a scan over every slot, and a listener that probes the
// cache once per reported update and drops every catalog id under the
// sleeper rule.
//
// Seeded random sequences of admit / read / on_server_update / evict /
// contiguous, overlapping and gapped reports run against both under all
// four policies — with relayed recencies, oversize rejects and
// equal-priority ties — and after every operation the two must agree
// exactly (==, not near): membership and recency of every object, used
// units, evictions, the resident metadata and the hit/miss/refresh/decay
// counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "cache/invalidation.hpp"
#include "cache/replacement.hpp"
#include "object/builders.hpp"
#include "util/rng.hpp"

namespace mobi::cache {
namespace {

// ---- Reference: the catalog-scan bounded cache -------------------------

class RefBoundedCache {
 public:
  RefBoundedCache(const object::Catalog& catalog,
                  std::shared_ptr<const DecayModel> decay,
                  object::Units capacity, ReplacementPolicy policy)
      : catalog_(&catalog),
        cache_(catalog.size(), std::move(decay)),
        capacity_(capacity),
        policy_(std::move(policy)),
        residency_(catalog.size()) {}

  object::Units used() const noexcept { return used_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  bool contains(object::ObjectId id) const { return cache_.contains(id); }
  std::optional<double> recency(object::ObjectId id) const {
    return cache_.recency(id);
  }
  const Cache& inner() const noexcept { return cache_; }

  bool admit(object::ObjectId id, const server::FetchResult& fetch,
             sim::Tick now, double recency) {
    const object::Units size = catalog_->object_size(id);
    if (size > capacity_) return false;
    if (cache_.contains(id)) {
      cache_.refresh(id, fetch, now, recency);
      residency_[id]->recency = recency;
      return true;
    }
    evict_until_fits(size, now);
    cache_.refresh(id, fetch, now, recency);
    residency_[id] = Residency{id, size, recency, now, 0};
    used_ += size;
    return true;
  }

  std::optional<double> read(object::ObjectId id, sim::Tick now) {
    cache_.record_read(id);
    const auto score = cache_.recency(id);
    if (score) {
      auto& meta = residency_[id];
      meta->last_access = now;
      ++meta->access_count;
      meta->recency = *score;
    }
    return score;
  }

  void on_server_update(object::ObjectId id) {
    cache_.on_server_update(id);
    if (auto& meta = residency_[id]) {
      meta->recency = cache_.recency(id).value_or(meta->recency);
    }
  }

  bool evict(object::ObjectId id) {
    if (!cache_.evict(id)) return false;
    used_ -= residency_[id]->size;
    residency_[id].reset();
    return true;
  }

  std::vector<Residency> residents() const {
    std::vector<Residency> result;
    for (const auto& meta : residency_) {
      if (meta) result.push_back(*meta);
    }
    return result;
  }

 private:
  void evict_until_fits(object::Units need, sim::Tick now) {
    while (capacity_ - used_ < need) {
      double best_priority = -std::numeric_limits<double>::infinity();
      std::optional<object::ObjectId> victim;
      for (const auto& meta : residency_) {
        if (!meta) continue;
        const double priority = policy_.priority(*meta, now);
        if (priority > best_priority) {
          best_priority = priority;
          victim = meta->id;
        }
      }
      if (!victim) {
        throw std::logic_error("RefBoundedCache: no victim but cache is full");
      }
      used_ -= residency_[*victim]->size;
      residency_[*victim].reset();
      cache_.evict(*victim);
      ++evictions_;
    }
  }

  const object::Catalog* catalog_;
  Cache cache_;
  object::Units capacity_;
  object::Units used_ = 0;
  ReplacementPolicy policy_;
  std::vector<std::optional<Residency>> residency_;
  std::uint64_t evictions_ = 0;
};

// ---- Reference: the per-item listener ----------------------------------

class RefListener {
 public:
  explicit RefListener(RefBoundedCache& cache) : cache_(&cache) {}

  int apply(const InvalidationReport& report) {
    if (heard_any_ && report.window_start > last_end_) {
      const std::size_t n = cache_->inner().object_count();
      for (object::ObjectId id = 0; id < n; ++id) cache_->evict(id);
      ++drops_;
      last_end_ = report.window_end;
      ++applied_;
      return -1;
    }
    int decayed = 0;
    for (const auto& item : report.items) {
      for (std::uint32_t k = 0; k < item.updates; ++k) {
        if (cache_->contains(item.object)) {
          cache_->on_server_update(item.object);
          ++decayed;
        }
      }
    }
    heard_any_ = true;
    last_end_ = std::max(last_end_, report.window_end);
    ++applied_;
    return decayed;
  }

  sim::Tick last_heard_end() const noexcept { return last_end_; }
  std::uint64_t reports_applied() const noexcept { return applied_; }
  std::uint64_t cache_drops() const noexcept { return drops_; }

 private:
  RefBoundedCache* cache_;
  sim::Tick last_end_ = 0;
  bool heard_any_ = false;
  std::uint64_t applied_ = 0;
  std::uint64_t drops_ = 0;
};

// ---- Harness -----------------------------------------------------------

ReplacementPolicy policy_at(int index) {
  switch (index) {
    case 0: return lru_policy();
    case 1: return lfu_policy();
    case 2: return size_aware_policy();
    default: return recency_profit_policy();
  }
}

void expect_same(const BoundedCache& fast, const RefBoundedCache& ref,
                 std::size_t object_count) {
  ASSERT_EQ(fast.used(), ref.used());
  ASSERT_EQ(fast.evictions(), ref.evictions());
  for (object::ObjectId id = 0; id < object_count; ++id) {
    ASSERT_EQ(fast.contains(id), ref.contains(id)) << "object " << id;
    ASSERT_EQ(fast.recency(id), ref.recency(id)) << "object " << id;
  }
  const auto expected = ref.residents();
  const auto actual = fast.residents();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id, expected[i].id);
    EXPECT_EQ(actual[i].size, expected[i].size);
    EXPECT_EQ(actual[i].recency, expected[i].recency);
    EXPECT_EQ(actual[i].last_access, expected[i].last_access);
    EXPECT_EQ(actual[i].access_count, expected[i].access_count);
  }
  const CacheStats& a = fast.stats();
  const CacheStats& b = ref.inner().stats();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.decays, b.decays);
}

// One seeded run: `ops` random operations on a catalog of `objects`
// sizes in [1, max_size] (objects above `capacity` exercise the reject).
void run_differential(int policy_index, std::uint64_t seed,
                      std::size_t objects, object::Units max_size,
                      object::Units capacity, int ops) {
  SCOPED_TRACE("policy " + policy_at(policy_index).name + " seed " +
               std::to_string(seed));
  util::Rng rng(seed);
  const auto catalog = object::make_random_catalog(objects, 1, max_size, rng);
  BoundedCache fast(catalog, make_harmonic_decay(), capacity,
                    policy_at(policy_index));
  InvalidationListener fast_listener;
  RefBoundedCache ref(catalog, make_harmonic_decay(), capacity,
                      policy_at(policy_index));
  RefListener ref_listener(ref);
  const server::FetchResult fetched{1, 0, 1};
  const auto any_object = [&] {
    return object::ObjectId(rng.uniform_int(0, std::int64_t(objects) - 1));
  };

  sim::Tick now = 0;
  sim::Tick report_end = 0;
  for (int op = 0; op < ops; ++op) {
    // Several operations share a tick, so LRU ties are common.
    if (rng.bernoulli(0.5)) ++now;
    const double pick = rng.uniform();
    if (pick < 0.35) {
      // Fresh or relayed copy; relayed recencies repeat so that
      // recency-profit values tie too.
      const double recency =
          rng.bernoulli(0.6) ? 1.0 : 0.25 * double(rng.uniform_int(1, 4));
      const auto id = any_object();
      ASSERT_EQ(fast.admit(id, fetched, now, recency),
                ref.admit(id, fetched, now, recency));
    } else if (pick < 0.6) {
      const auto id = any_object();
      ASSERT_EQ(fast.read(id, now), ref.read(id, now));
    } else if (pick < 0.75) {
      const auto id = any_object();
      fast.on_server_update(id);
      ref.on_server_update(id);
    } else if (pick < 0.82) {
      const auto id = any_object();
      ASSERT_EQ(fast.evict(id), ref.evict(id));
    } else {
      // A report: mostly contiguous, sometimes overlapping, sometimes
      // after a missed window (the sleeper rule).
      InvalidationReport report;
      const double shape = rng.uniform();
      report.window_start =
          shape < 0.75 ? report_end
          : shape < 0.9 ? std::max<sim::Tick>(0, report_end - 3)
                        : report_end + sim::Tick(rng.uniform_int(1, 5));
      report.window_end = report.window_start + rng.uniform_int(0, 6);
      for (object::ObjectId id = 0; id < objects; ++id) {
        if (rng.bernoulli(0.3)) {
          report.items.push_back(
              {id, std::uint32_t(rng.uniform_int(1, 3))});
        }
      }
      ASSERT_EQ(fast_listener.apply(report, fast), ref_listener.apply(report));
      ASSERT_EQ(fast_listener.last_heard_end(), ref_listener.last_heard_end());
      ASSERT_EQ(fast_listener.reports_applied(),
                ref_listener.reports_applied());
      ASSERT_EQ(fast_listener.cache_drops(), ref_listener.cache_drops());
      report_end = std::max(report_end, report.window_end);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same(fast, ref, objects))
        << "after operation " << op;
  }
  // The run reached the interesting states.
  EXPECT_GT(fast.evictions(), 0u);
  EXPECT_GT(fast_listener.cache_drops(), 0u);
}

class ClientCacheDiff : public ::testing::TestWithParam<int> {};

TEST_P(ClientCacheDiff, MatchesCatalogScanReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    // Sizes 1-8 under a 20-unit cache: the mobile client's shape.
    run_differential(GetParam(), seed, 60, 8, 20, 1500);
  }
}

TEST_P(ClientCacheDiff, MatchesReferenceWithOversizeObjects) {
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    // Sizes up to 14 against a 10-unit cache: some admits are rejects.
    run_differential(GetParam(), seed, 40, 14, 10, 1500);
  }
}

TEST_P(ClientCacheDiff, MatchesReferenceWithEqualSizes) {
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    // Every object one unit: size-aware priorities all tie, so the
    // lowest id must lose every time.
    run_differential(GetParam(), seed, 30, 1, 6, 1500);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ClientCacheDiff,
                         ::testing::Values(0, 1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& param) {
                           std::string name = policy_at(param.param).name;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(ClientCacheDiff, InvalidRecencyOnAdmitThrowsAndEvictsNothing) {
  const auto catalog = object::make_uniform_catalog(4, 2);
  BoundedCache cache(catalog, make_harmonic_decay(), 4, lru_policy());
  cache.admit(0, server::FetchResult{1, 0, 1}, 0);
  cache.admit(1, server::FetchResult{1, 0, 1}, 1);  // full
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {0.0, -0.5, 1.5, nan}) {
    EXPECT_THROW(cache.admit(2, server::FetchResult{1, 0, 1}, 2, bad),
                 std::invalid_argument);
    EXPECT_THROW(cache.admit(0, server::FetchResult{1, 0, 1}, 2, bad),
                 std::invalid_argument);
  }
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(2));
  EXPECT_EQ(cache.used(), 4);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.stats().refreshes, 2u);
  EXPECT_DOUBLE_EQ(*cache.recency(0), 1.0);
}

TEST(ClientCacheDiff, OutOfCatalogIdsThrow) {
  const auto catalog = object::make_uniform_catalog(3, 1);
  BoundedCache cache(catalog, make_harmonic_decay(), 4, lru_policy());
  EXPECT_THROW(cache.contains(3), std::out_of_range);
  EXPECT_THROW(cache.read(3, 0), std::out_of_range);
  EXPECT_THROW(cache.on_server_update(3), std::out_of_range);
  EXPECT_THROW(cache.evict(3), std::out_of_range);
  EXPECT_THROW(cache.admit(3, server::FetchResult{1, 0, 1}, 0),
               std::out_of_range);
}

}  // namespace
}  // namespace mobi::cache
