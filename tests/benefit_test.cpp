#include "core/benefit.hpp"

#include <gtest/gtest.h>

#include "cache/decay.hpp"
#include "cache/replacement.hpp"
#include "object/builders.hpp"

namespace mobi::core {
namespace {

TEST(BuildCandidates, AggregatesPerObject) {
  const auto catalog = object::Catalog({2, 3});
  cache::Cache cache(2, cache::make_harmonic_decay());
  ReciprocalScorer scorer;
  // Object 0 cached fresh; object 1 absent.
  cache.refresh(0, server::FetchResult{1, 0, 2}, 0);
  workload::RequestBatch batch{
      {0, 1.0, 0}, {0, 1.0, 1}, {1, 1.0, 2}};
  const auto set = build_candidates(batch, catalog, cache, scorer);
  ASSERT_EQ(set.candidates.size(), 2u);
  EXPECT_EQ(set.total_requests, 3u);

  const auto& c0 = set.candidates[0];
  EXPECT_EQ(c0.object, 0u);
  EXPECT_EQ(c0.size, 2);
  EXPECT_EQ(c0.requests, 2u);
  EXPECT_DOUBLE_EQ(c0.profit, 0.0);  // fresh: no benefit to download
  EXPECT_DOUBLE_EQ(c0.cached_score_sum, 2.0);

  const auto& c1 = set.candidates[1];
  EXPECT_EQ(c1.object, 1u);
  EXPECT_EQ(c1.requests, 1u);
  // Absent: recency 0, score = 1/(1+1) = 0.5, benefit = 0.5.
  EXPECT_DOUBLE_EQ(c1.profit, 0.5);
  EXPECT_DOUBLE_EQ(set.baseline_score_sum, 2.5);
}

TEST(BuildCandidates, StaleCopyYieldsPositiveProfit) {
  const auto catalog = object::Catalog({1});
  cache::Cache cache(1, cache::make_harmonic_decay());
  ReciprocalScorer scorer;
  cache.refresh(0, server::FetchResult{1, 0, 1}, 0);
  cache.on_server_update(0);  // recency 0.5
  workload::RequestBatch batch{{0, 1.0, 0}};
  const auto set = build_candidates(batch, catalog, cache, scorer);
  EXPECT_NEAR(set.candidates[0].profit, 1.0 - 1.0 / 1.5, 1e-12);
}

TEST(BuildCandidates, RespectsPerClientTargets) {
  const auto catalog = object::Catalog({1});
  cache::Cache cache(1, cache::make_harmonic_decay());
  ReciprocalScorer scorer;
  cache.refresh(0, server::FetchResult{1, 0, 1}, 0);
  cache.on_server_update(0);  // recency 0.5
  // A lax client (C = 0.4) is satisfied; a strict one (C = 1.0) is not.
  workload::RequestBatch batch{{0, 0.4, 0}, {0, 1.0, 1}};
  const auto set = build_candidates(batch, catalog, cache, scorer);
  const auto& cand = set.candidates[0];
  EXPECT_EQ(cand.requests, 2u);
  EXPECT_NEAR(cand.profit, 0.0 + (1.0 - 1.0 / 1.5), 1e-12);
}

TEST(BuildCandidates, EmptyBatch) {
  const auto catalog = object::Catalog({1});
  cache::Cache cache(1, cache::make_harmonic_decay());
  ReciprocalScorer scorer;
  const auto set = build_candidates({}, catalog, cache, scorer);
  EXPECT_TRUE(set.candidates.empty());
  EXPECT_EQ(set.total_requests, 0u);
}

TEST(BuildCandidates, BoundedCacheMatchesDenseCacheWithSameState) {
  const auto catalog = object::Catalog({2, 3, 1, 4});
  cache::Cache dense(4, cache::make_harmonic_decay());
  cache::BoundedCache bounded(catalog, cache::make_harmonic_decay(), 8,
                              cache::lru_policy());
  const server::FetchResult fetched{1, 0, 2};
  for (object::ObjectId id : {0u, 2u, 3u}) {
    dense.refresh(id, fetched, 0, id == 2 ? 0.5 : 1.0);
    bounded.admit(id, fetched, 0, id == 2 ? 0.5 : 1.0);
  }
  dense.on_server_update(3);
  bounded.on_server_update(3);
  ReciprocalScorer scorer;
  const workload::RequestBatch batch{
      {3, 1.0, 0}, {1, 0.8, 1}, {0, 1.0, 2}, {2, 0.6, 3}, {3, 0.5, 4}};
  const auto want = build_candidates(batch, catalog, dense, scorer);
  const auto got = build_candidates(batch, catalog, bounded, scorer);
  ASSERT_EQ(got.candidates.size(), want.candidates.size());
  for (std::size_t i = 0; i < want.candidates.size(); ++i) {
    EXPECT_EQ(got.candidates[i].object, want.candidates[i].object);
    EXPECT_EQ(got.candidates[i].size, want.candidates[i].size);
    EXPECT_EQ(got.candidates[i].requests, want.candidates[i].requests);
    EXPECT_EQ(got.candidates[i].profit, want.candidates[i].profit);
    EXPECT_EQ(got.candidates[i].cached_score_sum,
              want.candidates[i].cached_score_sum);
  }
  EXPECT_EQ(got.total_requests, want.total_requests);
  EXPECT_EQ(got.baseline_score_sum, want.baseline_score_sum);
}

TEST(BuildFromAggregates, ProfitFormula) {
  const std::vector<object::Units> sizes{2, 4};
  const std::vector<std::uint32_t> requests{10, 5};
  const std::vector<double> scores{0.25, 1.0};
  const auto set = build_candidates_from_aggregates(sizes, requests, scores);
  ASSERT_EQ(set.candidates.size(), 2u);
  EXPECT_DOUBLE_EQ(set.candidates[0].profit, 10 * 0.75);
  EXPECT_DOUBLE_EQ(set.candidates[1].profit, 0.0);
  EXPECT_EQ(set.total_requests, 15u);
  EXPECT_DOUBLE_EQ(set.baseline_score_sum, 2.5 + 5.0);
}

TEST(BuildFromAggregates, Validation) {
  const std::vector<object::Units> sizes{2};
  const std::vector<std::uint32_t> requests{1, 2};
  const std::vector<double> scores{0.5};
  EXPECT_THROW(build_candidates_from_aggregates(sizes, requests, scores),
               std::invalid_argument);
  const std::vector<std::uint32_t> one_request{1};
  const std::vector<double> bad_scores{1.5};
  EXPECT_THROW(
      build_candidates_from_aggregates(sizes, one_request, bad_scores),
      std::invalid_argument);
}

TEST(AverageScore, NothingDownloaded) {
  const std::vector<object::Units> sizes{1, 1};
  const std::vector<std::uint32_t> requests{5, 5};
  const std::vector<double> scores{0.2, 0.6};
  const auto set = build_candidates_from_aggregates(sizes, requests, scores);
  EXPECT_DOUBLE_EQ(average_score(set, {}), (5 * 0.2 + 5 * 0.6) / 10.0);
}

TEST(AverageScore, EverythingDownloadedIsOne) {
  const std::vector<object::Units> sizes{1, 1};
  const std::vector<std::uint32_t> requests{5, 5};
  const std::vector<double> scores{0.2, 0.6};
  const auto set = build_candidates_from_aggregates(sizes, requests, scores);
  const std::vector<std::size_t> all{0, 1};
  EXPECT_DOUBLE_EQ(average_score(set, all), 1.0);
}

TEST(AverageScore, PartialDownloadLiftsOnlyChosen) {
  const std::vector<object::Units> sizes{1, 1};
  const std::vector<std::uint32_t> requests{4, 6};
  const std::vector<double> scores{0.5, 0.5};
  const auto set = build_candidates_from_aggregates(sizes, requests, scores);
  const std::vector<std::size_t> chose_second{1};
  // 4 clients at 0.5 + 6 clients at 1.0.
  EXPECT_DOUBLE_EQ(average_score(set, chose_second), (4 * 0.5 + 6 * 1.0) / 10.0);
}

TEST(AverageScore, EmptySetIsVacuouslyPerfect) {
  CandidateSet set;
  EXPECT_DOUBLE_EQ(average_score(set, {}), 1.0);
}

TEST(AverageScore, MatchesProfitIdentity) {
  // average_score(chosen) == (baseline + sum of chosen profits) / clients.
  const std::vector<object::Units> sizes{1, 2, 3};
  const std::vector<std::uint32_t> requests{3, 7, 2};
  const std::vector<double> scores{0.1, 0.4, 0.9};
  const auto set = build_candidates_from_aggregates(sizes, requests, scores);
  const std::vector<std::size_t> chosen{0, 2};
  const double expected =
      (set.baseline_score_sum + set.candidates[0].profit +
       set.candidates[2].profit) /
      double(set.total_requests);
  EXPECT_NEAR(average_score(set, chosen), expected, 1e-12);
}

}  // namespace
}  // namespace mobi::core
