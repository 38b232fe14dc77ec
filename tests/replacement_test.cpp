#include "cache/replacement.hpp"

#include <gtest/gtest.h>

#include "object/builders.hpp"

namespace mobi::cache {
namespace {

server::FetchResult fetched(server::Version version = 1) {
  return server::FetchResult{version, 0, 1};
}

TEST(BoundedCache, AdmitsWithinCapacity) {
  const auto catalog = object::Catalog({3, 4, 5});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  EXPECT_TRUE(cache.admit(0, fetched(), 0));
  EXPECT_TRUE(cache.admit(1, fetched(), 0));
  EXPECT_EQ(cache.used(), 7);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
}

TEST(BoundedCache, EvictsToMakeRoom) {
  const auto catalog = object::Catalog({3, 4, 5});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  cache.admit(0, fetched(), 0);
  cache.admit(1, fetched(), 1);
  cache.admit(2, fetched(), 2);  // needs 5, only 3 free -> evict
  EXPECT_LE(cache.used(), 10);
  EXPECT_TRUE(cache.contains(2));
  EXPECT_GE(cache.evictions(), 1u);
}

TEST(BoundedCache, RejectsObjectLargerThanCapacity) {
  const auto catalog = object::Catalog({3, 20});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  cache.admit(0, fetched(), 0);
  EXPECT_FALSE(cache.admit(1, fetched(), 1));
  EXPECT_TRUE(cache.contains(0));  // nothing was evicted for the reject
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(BoundedCache, ReAdmitRefreshesInPlace) {
  const auto catalog = object::Catalog({3, 4});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  cache.admit(0, fetched(1), 0);
  cache.on_server_update(0);
  EXPECT_LT(*cache.recency(0), 1.0);
  cache.admit(0, fetched(2), 1);
  EXPECT_DOUBLE_EQ(*cache.recency(0), 1.0);
  EXPECT_EQ(cache.used(), 3);
}

TEST(BoundedCache, LruEvictsLeastRecentlyUsed) {
  const auto catalog = object::make_uniform_catalog(3, 4);
  BoundedCache cache(catalog, make_harmonic_decay(), 8, lru_policy());
  cache.admit(0, fetched(), 0);
  cache.admit(1, fetched(), 1);
  cache.read(0, 5);  // 0 is now more recent than 1
  cache.admit(2, fetched(), 6);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(BoundedCache, LfuEvictsLeastFrequentlyUsed) {
  const auto catalog = object::make_uniform_catalog(3, 4);
  BoundedCache cache(catalog, make_harmonic_decay(), 8, lfu_policy());
  cache.admit(0, fetched(), 0);
  cache.admit(1, fetched(), 1);
  cache.read(1, 2);
  cache.read(1, 3);
  cache.read(0, 4);
  cache.admit(2, fetched(), 5);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.contains(0));
}

TEST(BoundedCache, SizeAwareEvictsLargest) {
  const auto catalog = object::Catalog({2, 6, 4});
  BoundedCache cache(catalog, make_harmonic_decay(), 8, size_aware_policy());
  cache.admit(0, fetched(), 0);
  cache.admit(1, fetched(), 1);
  cache.admit(2, fetched(), 2);  // must free 4: evicts the 6-unit object
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
}

TEST(BoundedCache, RecencyProfitKeepsPopularFreshSmall) {
  const auto catalog = object::Catalog({2, 2, 2});
  BoundedCache cache(catalog, make_harmonic_decay(), 4,
                     recency_profit_policy());
  cache.admit(0, fetched(), 0);
  cache.admit(1, fetched(), 1);
  // Object 0: popular; object 1: stale and unpopular.
  cache.read(0, 2);
  cache.read(0, 3);
  cache.on_server_update(1);
  cache.on_server_update(1);
  cache.admit(2, fetched(), 4);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
}

TEST(BoundedCache, ReadOnMissReturnsNullopt) {
  const auto catalog = object::Catalog({2});
  BoundedCache cache(catalog, make_harmonic_decay(), 4, lru_policy());
  EXPECT_FALSE(cache.read(0, 0).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BoundedCache, ResidentsReportMetadata) {
  const auto catalog = object::Catalog({2, 3});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  cache.admit(0, fetched(), 0);
  cache.admit(1, fetched(), 1);
  cache.read(1, 4);
  const auto residents = cache.residents();
  ASSERT_EQ(residents.size(), 2u);
  const auto& r1 = residents[0].id == 1 ? residents[0] : residents[1];
  EXPECT_EQ(r1.size, 3);
  EXPECT_EQ(r1.last_access, 4);
  EXPECT_EQ(r1.access_count, 1u);
}

TEST(BoundedCache, Validation) {
  const auto catalog = object::Catalog({2});
  EXPECT_THROW(BoundedCache(catalog, make_harmonic_decay(), 0, lru_policy()),
               std::invalid_argument);
  EXPECT_THROW(BoundedCache(catalog, make_harmonic_decay(), 4,
                            ReplacementPolicy{"broken", nullptr}),
               std::invalid_argument);
}

TEST(BoundedCache, PolicyNamesExposed) {
  EXPECT_EQ(lru_policy().name, "lru");
  EXPECT_EQ(lfu_policy().name, "lfu");
  EXPECT_EQ(size_aware_policy().name, "size-aware");
  EXPECT_EQ(recency_profit_policy().name, "recency-profit");
}

TEST(BoundedCache, ExplicitEvictReleasesSpace) {
  const auto catalog = object::Catalog({3, 4});
  BoundedCache cache(catalog, make_harmonic_decay(), 10, lru_policy());
  cache.admit(0, fetched(), 0);
  cache.admit(1, fetched(), 1);
  EXPECT_EQ(cache.used(), 7);
  EXPECT_TRUE(cache.evict(0));
  EXPECT_EQ(cache.used(), 4);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.evict(0));  // already gone
  EXPECT_EQ(cache.used(), 4);
}

TEST(BoundedCache, AdmitWithRelayedRecency) {
  const auto catalog = object::Catalog({2});
  BoundedCache cache(catalog, make_harmonic_decay(), 4, lru_policy());
  cache.admit(0, fetched(), 0, 0.6);
  EXPECT_DOUBLE_EQ(*cache.recency(0), 0.6);
  const auto residents = cache.residents();
  ASSERT_EQ(residents.size(), 1u);
  EXPECT_DOUBLE_EQ(residents[0].recency, 0.6);
}

TEST(BoundedCache, ChurnNeverExceedsCapacity) {
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(50, 1, 8, rng);
  BoundedCache cache(catalog, make_harmonic_decay(), 20, lru_policy());
  for (sim::Tick t = 0; t < 500; ++t) {
    const auto id = object::ObjectId(rng.uniform_u64(0, 49));
    cache.admit(id, fetched(server::Version(t)), t);
    ASSERT_LE(cache.used(), 20);
  }
}

}  // namespace
}  // namespace mobi::cache
