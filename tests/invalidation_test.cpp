#include "cache/invalidation.hpp"

#include <gtest/gtest.h>

namespace mobi::cache {
namespace {

server::FetchResult fetched(server::Version version = 1) {
  return server::FetchResult{version, 0, 1};
}

TEST(InvalidationLog, RecordsAndReports) {
  InvalidationLog log(4);
  log.record_update(1, 3);
  log.record_update(1, 7);
  log.record_update(2, 5);
  EXPECT_EQ(log.recorded_updates(), 3u);

  const auto report = log.make_report(0, 10);
  ASSERT_EQ(report.items.size(), 2u);
  EXPECT_EQ(report.items[0].object, 1u);
  EXPECT_EQ(report.items[0].updates, 2u);
  EXPECT_EQ(report.items[1].object, 2u);
  EXPECT_EQ(report.items[1].updates, 1u);
}

TEST(InvalidationLog, WindowIsHalfOpen) {
  InvalidationLog log(2);
  log.record_update(0, 5);
  EXPECT_EQ(log.make_report(0, 5).items.size(), 0u);  // [0, 5) excludes 5
  EXPECT_EQ(log.make_report(5, 6).items.size(), 1u);
}

TEST(InvalidationLog, EmptyWindowAndValidation) {
  InvalidationLog log(2);
  EXPECT_TRUE(log.make_report(0, 100).items.empty());
  EXPECT_THROW(log.make_report(5, 3), std::invalid_argument);
  EXPECT_THROW(log.record_update(9, 0), std::out_of_range);
}

TEST(InvalidationLog, RejectsTimeTravel) {
  InvalidationLog log(1);
  log.record_update(0, 10);
  EXPECT_THROW(log.record_update(0, 5), std::logic_error);
  log.record_update(0, 10);  // equal tick is fine
}

TEST(InvalidationLog, PruneDropsOldRecords) {
  InvalidationLog log(1);
  log.record_update(0, 1);
  log.record_update(0, 5);
  log.record_update(0, 9);
  log.prune(5);
  EXPECT_TRUE(log.make_report(0, 5).items.empty());
  EXPECT_EQ(log.make_report(5, 10).items[0].updates, 2u);
}

TEST(InvalidationListener, AppliesDecayPerReportedUpdate) {
  Cache cache(3, make_harmonic_decay());
  cache.refresh(0, fetched(), 0);
  cache.refresh(1, fetched(), 0);
  InvalidationListener listener;

  InvalidationReport report;
  report.window_start = 0;
  report.window_end = 5;
  report.items = {{0, 2}, {2, 1}};  // object 2 not cached: ignored
  const int decayed = listener.apply(report, cache);
  EXPECT_EQ(decayed, 2);
  EXPECT_NEAR(*cache.recency(0), 1.0 / 3.0, 1e-12);  // two decays
  EXPECT_DOUBLE_EQ(*cache.recency(1), 1.0);          // untouched
  EXPECT_EQ(listener.reports_applied(), 1u);
  EXPECT_EQ(listener.last_heard_end(), 5);
}

TEST(InvalidationListener, ContiguousReportsKeepCache) {
  Cache cache(1, make_harmonic_decay());
  cache.refresh(0, fetched(), 0);
  InvalidationListener listener;
  InvalidationReport first{0, 5, {}};
  InvalidationReport second{5, 10, {}};
  listener.apply(first, cache);
  listener.apply(second, cache);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(listener.cache_drops(), 0u);
}

TEST(InvalidationListener, SleeperRuleDropsCacheOnGap) {
  Cache cache(2, make_harmonic_decay());
  cache.refresh(0, fetched(), 0);
  cache.refresh(1, fetched(), 0);
  InvalidationListener listener;
  listener.apply(InvalidationReport{0, 5, {}}, cache);
  // Missed the [5, 10) report entirely; next heard is [10, 15).
  const int result = listener.apply(InvalidationReport{10, 15, {}}, cache);
  EXPECT_EQ(result, -1);
  EXPECT_FALSE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
  EXPECT_EQ(listener.cache_drops(), 1u);
  EXPECT_EQ(listener.last_heard_end(), 15);
}

TEST(InvalidationListener, FirstReportNeverTriggersSleeperRule) {
  Cache cache(1, make_harmonic_decay());
  cache.refresh(0, fetched(), 0);
  InvalidationListener listener;
  // First heard report starts late — but there is no established history,
  // so the cache survives (this models "tuned in for the first time").
  listener.apply(InvalidationReport{100, 105, {}}, cache);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(listener.cache_drops(), 0u);
}

TEST(InvalidationListener, OverlappingReportsAreAccepted) {
  Cache cache(1, make_harmonic_decay());
  cache.refresh(0, fetched(), 0);
  InvalidationListener listener;
  listener.apply(InvalidationReport{0, 10, {}}, cache);
  // A re-broadcast overlapping window is not a gap.
  listener.apply(InvalidationReport{5, 15, {}}, cache);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_EQ(listener.last_heard_end(), 15);
}

TEST(InvalidationListener, BadWindowThrows) {
  Cache cache(1, make_harmonic_decay());
  InvalidationListener listener;
  EXPECT_THROW(listener.apply(InvalidationReport{5, 3, {}}, cache),
               std::invalid_argument);
}

TEST(EndToEnd, PeriodicReportsTrackTrueStaleness) {
  // Server updates every 2 ticks; reports cut every 4 ticks. After two
  // reports the cache's recency matches as if it had heard each update.
  Cache direct(1, make_harmonic_decay());
  Cache via_reports(1, make_harmonic_decay());
  direct.refresh(0, fetched(), 0);
  via_reports.refresh(0, fetched(), 0);
  InvalidationLog log(1);
  InvalidationListener listener;

  for (sim::Tick t = 1; t <= 8; ++t) {
    if (t % 2 == 0) {
      direct.on_server_update(0);
      log.record_update(0, t);
    }
    if (t % 4 == 0) {
      listener.apply(log.make_report(t - 4, t), via_reports);
    }
  }
  // Reports lag by one window: [0,4) and [4,8) have been heard, so the
  // update at t=8 is still unreported and the listener is one decay
  // behind the omniscient cache...
  EXPECT_GT(*via_reports.recency(0), *direct.recency(0));
  // ...until the next report catches it up.
  listener.apply(log.make_report(8, 12), via_reports);
  EXPECT_DOUBLE_EQ(*via_reports.recency(0), *direct.recency(0));
}

}  // namespace
}  // namespace mobi::cache
