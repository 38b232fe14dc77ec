// Google-benchmark microbenchmarks for the cache layer: unbounded cache
// operations, bounded-cache admission under each replacement policy as the
// catalog grows, and invalidation report generation and application.
#include <benchmark/benchmark.h>

#include "cache/invalidation.hpp"
#include "cache/replacement.hpp"
#include "object/builders.hpp"
#include "util/rng.hpp"

namespace {

using namespace mobi;

void BM_CacheRefresh(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  cache::Cache store(n, cache::make_harmonic_decay());
  const server::FetchResult fetched{1, 0, 1};
  std::size_t i = 0;
  for (auto _ : state) {
    store.refresh(object::ObjectId(i++ % n), fetched, 0);
  }
}
BENCHMARK(BM_CacheRefresh)->Range(256, 16384);

void BM_CacheRecencyLookup(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  cache::Cache store(n, cache::make_harmonic_decay());
  for (object::ObjectId id = 0; id < n; id += 2) {
    store.refresh(id, server::FetchResult{1, 0, 1}, 0);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.recency_or_zero(object::ObjectId(i++ % n)));
  }
}
BENCHMARK(BM_CacheRecencyLookup)->Range(256, 16384);

// A client-sized cache (20 units) over a growing catalog: the cache holds
// only its residents, so the per-admit cost (lookup, victim scan, insert)
// stays flat as the catalog grows. Args: policy index, catalog size.
void BM_BoundedCacheAdmit(benchmark::State& state) {
  const auto n = std::size_t(state.range(1));
  util::Rng rng(1);
  const auto catalog = object::make_random_catalog(n, 1, 8, rng);
  const cache::ReplacementPolicy policies[] = {
      cache::lru_policy(), cache::lfu_policy(), cache::size_aware_policy(),
      cache::recency_profit_policy()};
  const auto& policy = policies[std::size_t(state.range(0))];
  cache::BoundedCache store(catalog, cache::make_harmonic_decay(), 20,
                            policy);
  const server::FetchResult fetched{1, 0, 1};
  std::size_t i = 0;
  sim::Tick t = 0;
  for (auto _ : state) {
    store.admit(object::ObjectId((i += 37) % n), fetched, t++);
  }
  state.SetLabel(policy.name);
}
BENCHMARK(BM_BoundedCacheAdmit)->ArgsProduct({{0, 1, 2, 3},
                                              {200, 2048, 16384}});

// One client hearing one contiguous report that names every fifth object
// of the catalog, all 20 residents among them: the listener walks the
// residents and binary-searches the report, so the cost grows with
// log(report length), not with it.
void BM_HearReport(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  const auto catalog = object::make_uniform_catalog(n, 1);
  cache::BoundedCache store(catalog, cache::make_harmonic_decay(), 20,
                            cache::lru_policy());
  cache::InvalidationListener listener;
  for (std::size_t k = 0; k < 20; ++k) {
    store.admit(object::ObjectId(k * 5 * (n / 100)), {1, 0, 1}, 0);
  }
  cache::InvalidationReport report;
  for (object::ObjectId id = 0; id < n; id += 5) {
    report.items.push_back({id, 1});
  }
  sim::Tick t = 0;
  for (auto _ : state) {
    report.window_start = t;
    report.window_end = ++t;
    benchmark::DoNotOptimize(listener.apply(report, store));
  }
}
BENCHMARK(BM_HearReport)->Arg(200)->Arg(2048)->Arg(16384);

void BM_InvalidationReport(benchmark::State& state) {
  const auto n = std::size_t(state.range(0));
  cache::InvalidationLog log(n);
  for (sim::Tick t = 0; t < 100; ++t) {
    for (object::ObjectId id = 0; id < n; id += 5) {
      log.record_update(id, t);
    }
  }
  sim::Tick from = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.make_report(from % 90, from % 90 + 10));
    ++from;
  }
}
BENCHMARK(BM_InvalidationReport)->Range(256, 8192);

}  // namespace

BENCHMARK_MAIN();
