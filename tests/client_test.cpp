#include "client/cell.hpp"
#include "client/mobile_client.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "object/builders.hpp"

namespace mobi::client {
namespace {

object::Catalog small_catalog() { return object::make_uniform_catalog(10, 2); }

server::FetchResult fetched(server::Version version = 1) {
  return server::FetchResult{version, 0, 2};
}

TEST(MobileClient, ConfigValidation) {
  const auto catalog = small_catalog();
  MobileClientConfig config;
  config.disconnect_rate = -0.1;
  EXPECT_THROW(MobileClient(0, catalog, config), std::invalid_argument);
  config = {};
  config.reconnect_rate = 1.5;
  EXPECT_THROW(MobileClient(0, catalog, config), std::invalid_argument);
  config = {};
  config.target_recency = 0.0;
  EXPECT_THROW(MobileClient(0, catalog, config), std::invalid_argument);
}

TEST(MobileClient, StartsConnectedAndEmpty) {
  const auto catalog = small_catalog();
  MobileClient client(7, catalog, {});
  EXPECT_EQ(client.id(), 7u);
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.hits(), 0u);
  EXPECT_FALSE(client.lookup(0, 0).has_value());
  EXPECT_EQ(client.misses(), 1u);
}

TEST(MobileClient, StoreAndLookup) {
  const auto catalog = small_catalog();
  MobileClient client(0, catalog, {});
  client.store(3, fetched(), 0);
  const auto recency = client.lookup(3, 1);
  ASSERT_TRUE(recency.has_value());
  EXPECT_DOUBLE_EQ(*recency, 1.0);
  EXPECT_EQ(client.hits(), 1u);
}

TEST(MobileClient, StoreInheritsRelayedRecency) {
  const auto catalog = small_catalog();
  MobileClient client(0, catalog, {});
  client.store(3, fetched(), 0, 0.5);
  EXPECT_DOUBLE_EQ(*client.lookup(3, 1), 0.5);
}

TEST(MobileClient, LocalCacheIsBounded) {
  const auto catalog = small_catalog();  // 10 objects x 2 units
  MobileClientConfig config;
  config.cache_units = 4;  // room for two objects
  MobileClient client(0, catalog, config);
  client.store(0, fetched(), 0);
  client.store(1, fetched(), 1);
  client.store(2, fetched(), 2);
  EXPECT_LE(client.local_cache().used(), 4);
  EXPECT_TRUE(client.lookup(2, 3).has_value());
}

TEST(MobileClient, ConnectivityStateMachine) {
  const auto catalog = small_catalog();
  MobileClientConfig config;
  config.disconnect_rate = 1.0;  // drops immediately
  config.reconnect_rate = 1.0;   // and comes right back
  MobileClient client(0, catalog, config);
  util::Rng rng(1);
  EXPECT_FALSE(client.step_connectivity(rng));  // connected -> disconnected
  EXPECT_FALSE(client.connected());
  EXPECT_TRUE(client.step_connectivity(rng));  // reconnect signalled
  EXPECT_TRUE(client.connected());
}

TEST(MobileClient, NeverDisconnectsAtRateZero) {
  const auto catalog = small_catalog();
  MobileClientConfig config;
  config.disconnect_rate = 0.0;
  MobileClient client(0, catalog, config);
  util::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    client.step_connectivity(rng);
    EXPECT_TRUE(client.connected());
  }
}

TEST(MobileClient, HearsReportsAndDecays) {
  const auto catalog = small_catalog();
  MobileClient client(0, catalog, {});
  client.store(2, fetched(), 0);
  cache::InvalidationReport report{0, 5, {{2, 1}}};
  EXPECT_EQ(client.hear_report(report), 1);
  EXPECT_DOUBLE_EQ(*client.lookup(2, 6), 0.5);
}

TEST(MobileClient, SleeperRuleDropsLocalCache) {
  const auto catalog = small_catalog();
  MobileClient client(0, catalog, {});
  client.store(2, fetched(), 0);
  client.hear_report(cache::InvalidationReport{0, 5, {}});
  // Missed [5, 10); hears [10, 15): everything local is untrustworthy.
  EXPECT_EQ(client.hear_report(cache::InvalidationReport{10, 15, {}}), -1);
  EXPECT_FALSE(client.lookup(2, 16).has_value());
  EXPECT_EQ(client.sleeper_drops(), 1u);
}

TEST(MobileClient, DisconnectedClientCannotHear) {
  const auto catalog = small_catalog();
  MobileClientConfig config;
  config.disconnect_rate = 1.0;
  MobileClient client(0, catalog, config);
  util::Rng rng(3);
  client.step_connectivity(rng);
  EXPECT_THROW(client.hear_report(cache::InvalidationReport{0, 1, {}}),
               std::logic_error);
}

// The listener holds no pointer into the client, so a client that moves
// (here: every reallocation of an unreserved vector) keeps applying the
// sleeper rule to its own cache.
TEST(MobileClient, MovedClientAppliesSleeperRuleToItsOwnCache) {
  const auto catalog = small_catalog();
  std::vector<MobileClient> clients;  // deliberately unreserved
  clients.emplace_back(0, catalog, MobileClientConfig{});
  clients[0].store(3, fetched(), 0);
  clients[0].hear_report(cache::InvalidationReport{0, 5, {}});
  for (std::uint32_t id = 1; id < 64; ++id) {
    clients.emplace_back(id, catalog, MobileClientConfig{});
  }
  MobileClient& moved = clients[0];
  ASSERT_TRUE(moved.local_cache().contains(3));
  // Missed [5, 10): the sleeper rule drops this client's cache.
  EXPECT_EQ(moved.hear_report(cache::InvalidationReport{10, 15, {}}), -1);
  EXPECT_FALSE(moved.local_cache().contains(3));
  EXPECT_EQ(moved.local_cache().used(), 0);
  EXPECT_EQ(moved.sleeper_drops(), 1u);
}

CellConfig small_cell() {
  CellConfig config;
  config.object_count = 50;
  config.client_count = 20;
  config.ticks = 120;
  config.base_budget = 30;
  config.seed = 9;
  return config;
}

TEST(Cell, RunsAndAccountsEveryRequest) {
  const auto result = run_cell(small_cell());
  EXPECT_GT(result.requests, 0u);
  EXPECT_EQ(result.requests, result.served_locally + result.served_by_base);
  EXPECT_GT(result.average_score(), 0.0);
  EXPECT_LE(result.average_score(), 1.0);
  EXPECT_GT(result.base_downloaded, 0);
}

TEST(Cell, LocalCachesAbsorbTraffic) {
  auto config = small_cell();
  config.client.cache_units = 40;
  const auto with_cache = run_cell(config);
  EXPECT_GT(with_cache.local_hit_rate(), 0.05);
}

TEST(Cell, BiggerClientCachesServeMoreLocally) {
  auto config = small_cell();
  config.client.cache_units = 4;
  const auto small_caches = run_cell(config);
  config.client.cache_units = 60;
  const auto big_caches = run_cell(config);
  EXPECT_GT(big_caches.local_hit_rate(), small_caches.local_hit_rate());
}

TEST(Cell, DisconnectionCausesSleeperDrops) {
  auto config = small_cell();
  config.client.disconnect_rate = 0.1;
  config.client.reconnect_rate = 0.2;
  config.report_period = 2;
  const auto result = run_cell(config);
  EXPECT_GT(result.disconnect_ticks, 0u);
  EXPECT_GT(result.sleeper_drops, 0u);
}

TEST(Cell, NoDisconnectsNoDrops) {
  auto config = small_cell();
  config.client.disconnect_rate = 0.0;
  const auto result = run_cell(config);
  EXPECT_EQ(result.disconnect_ticks, 0u);
  EXPECT_EQ(result.sleeper_drops, 0u);
}

TEST(Cell, DeterministicUnderSeed) {
  const auto a = run_cell(small_cell());
  const auto b = run_cell(small_cell());
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.served_locally, b.served_locally);
  EXPECT_DOUBLE_EQ(a.score_sum, b.score_sum);
}

TEST(Cell, BetterBasePolicyLiftsScores) {
  auto config = small_cell();
  config.base_policy = "on-demand-knapsack";
  const auto knapsack = run_cell(config);
  config.base_policy = "cache-only";
  const auto cache_only = run_cell(config);
  EXPECT_GT(knapsack.average_score(), cache_only.average_score());
}


// FNV-1a over every field of every snapshot, doubles by bit pattern, so
// any change to what a cell computes — or to when a counter is
// attributed — changes the digest.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const CellResult& r) {
    add(std::uint64_t(r.requests));
    add(std::uint64_t(r.served_locally));
    add(std::uint64_t(r.served_by_base));
    add(r.score_sum);
    add(std::uint64_t(r.base_downloaded));
    add(r.sleeper_drops);
    add(r.disconnect_ticks);
    add(r.failed_fetches);
    add(r.retries);
    add(r.retry_successes);
    add(r.degraded_serves);
    add(r.handoffs);
    add(std::uint64_t(r.downlink_dropped));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t series_digest(const CellConfig& config) {
  CellSeries series;
  const CellResult result = run_cell(config, &series, nullptr);
  EXPECT_EQ(series.size(), std::size_t(config.ticks));
  Digest of_result;
  of_result.add(result);
  Digest of_back;
  if (!series.empty()) of_back.add(series.back());
  EXPECT_EQ(of_back.value(), of_result.value()) << "series.back() != result";
  Digest digest;
  for (const CellResult& row : series) digest.add(row);
  digest.add(result);
  return digest.value();
}

TEST(Cell, SeriesDigestPinned) {
  // Fault plan exercising handoff draws, outages, drops and retries.
  CellConfig faulty = small_cell();
  faulty.server_count = 3;
  faulty.fetch_retry_limit = 2;
  faulty.report_period = 3;
  faulty.faults.fetch_failure_rate = 0.2;
  faulty.faults.server_outage_rate = 0.05;
  faulty.faults.downlink_drop_rate = 0.05;
  faulty.faults.handoff_rate = 0.05;
  faulty.faults.handoff_ticks = 4;

  CellConfig cache_only = small_cell();
  cache_only.base_policy = "cache-only";

  CellConfig sleepy = small_cell();
  sleepy.client.disconnect_rate = 0.2;
  sleepy.report_period = 2;

  // The digests only pin what the configs exercise.
  const CellResult fault_run = run_cell(faulty);
  EXPECT_GT(fault_run.handoffs, 0u);
  EXPECT_GT(fault_run.retries, 0u);
  EXPECT_GT(fault_run.retry_successes, 0u);
  EXPECT_GT(fault_run.sleeper_drops, 0u);
  EXPECT_GT(fault_run.downlink_dropped, 0);
  EXPECT_GT(run_cell(sleepy).sleeper_drops, 0u);

  const std::uint64_t got[] = {series_digest(faulty),
                               series_digest(cache_only),
                               series_digest(sleepy)};
  const std::uint64_t pinned[] = {0xd12093cc130caa0bULL,
                                  0x8be3cb6816ebed32ULL,
                                  0x188589da93948500ULL};
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(got[i], pinned[i]) << "config " << i << ": 0x" << std::hex
                                 << got[i];
  }
}

}  // namespace
}  // namespace mobi::client
