#include "core/fairness.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mobi::core {
namespace {

TEST(JainIndex, PerfectEqualityIsOne) {
  const std::vector<double> equal{0.7, 0.7, 0.7, 0.7};
  EXPECT_DOUBLE_EQ(jain_index(equal), 1.0);
}

TEST(JainIndex, MaximalInequalityIsOneOverN) {
  const std::vector<double> skewed{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(skewed), 0.25);
}

TEST(JainIndex, KnownIntermediateValue) {
  const std::vector<double> scores{1.0, 0.5};
  // (1.5)^2 / (2 * 1.25) = 2.25 / 2.5 = 0.9.
  EXPECT_DOUBLE_EQ(jain_index(scores), 0.9);
}

TEST(JainIndex, EdgeCases) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(zeros), 1.0);
  const std::vector<double> negative{-0.1};
  EXPECT_THROW(jain_index(negative), std::invalid_argument);
}

TEST(JainIndex, ScaleInvariant) {
  const std::vector<double> base{0.2, 0.5, 0.9};
  std::vector<double> scaled;
  for (double x : base) scaled.push_back(x * 3.0);
  EXPECT_NEAR(jain_index(base), jain_index(scaled), 1e-12);
}

TEST(MinScore, FindsMinimum) {
  const std::vector<double> scores{0.9, 0.3, 0.7};
  EXPECT_DOUBLE_EQ(min_score(scores), 0.3);
  EXPECT_DOUBLE_EQ(min_score({}), 1.0);
}

TEST(ScoreQuantile, OrderStatistics) {
  const std::vector<double> scores{0.1, 0.2, 0.3, 0.4, 0.5};
  EXPECT_DOUBLE_EQ(score_quantile(scores, 0.0), 0.1);
  EXPECT_DOUBLE_EQ(score_quantile(scores, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(score_quantile(scores, 0.5), 0.3);
  EXPECT_NEAR(score_quantile(scores, 0.25), 0.2, 1e-12);
}

TEST(ScoreQuantile, Interpolates) {
  const std::vector<double> scores{0.0, 1.0};
  EXPECT_DOUBLE_EQ(score_quantile(scores, 0.3), 0.3);
}

TEST(ScoreQuantile, Validation) {
  const std::vector<double> scores{0.5};
  EXPECT_THROW(score_quantile(scores, -0.1), std::invalid_argument);
  EXPECT_THROW(score_quantile(scores, 1.1), std::invalid_argument);
  EXPECT_DOUBLE_EQ(score_quantile({}, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(score_quantile(scores, 0.5), 0.5);
}

// score_quantile selects its two order statistics in O(n); it must
// return exactly the doubles a full sort and interpolation return.
double sorted_quantile(std::vector<double> scores, double q) {
  std::sort(scores.begin(), scores.end());
  const double position = q * double(scores.size() - 1);
  const auto lo = std::size_t(std::floor(position));
  const auto hi = std::size_t(std::ceil(position));
  const double frac = position - double(lo);
  return scores[lo] * (1.0 - frac) + scores[hi] * frac;
}

TEST(ScoreQuantile, MatchesFullSortBitForBit) {
  util::Rng rng(1010);
  for (std::size_t n : {1, 2, 3, 4, 7, 10, 33, 64, 101, 1000}) {
    for (int trial = 0; trial < 8; ++trial) {
      // Even trials draw from 8 values, so duplicates are common; every
      // fourth trial adds a uniform fraction, so values rarely repeat.
      const int distinct = trial % 2 == 0 ? 5 : 1000;
      std::vector<double> scores(n);
      for (double& x : scores) {
        x = double(rng.uniform_int(-2, distinct)) / double(distinct) +
            (trial % 4 == 3 ? rng.uniform() : 0.0);
      }
      for (double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
        const std::string what = "n " + std::to_string(n) + " trial " +
                                 std::to_string(trial) + " q " +
                                 std::to_string(q);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(score_quantile(scores, q)),
                  std::bit_cast<std::uint64_t>(sorted_quantile(scores, q)))
            << what;
      }
    }
  }
}

}  // namespace
}  // namespace mobi::core
