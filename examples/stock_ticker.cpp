// Quasi-copy stock ticker scenario.
//
// The paper's related work (§5) cites Alonso et al.'s quasi-copies: "a
// client querying stock prices may be satisfied with cached stock prices
// that are within 5 percent of actual prices. This is similar to our work
// which allows users to specify the desired degree of recency." Here,
// clients fall into tiers — day traders demand near-perfect recency,
// analysts tolerate some staleness, and casual viewers accept a lot — and
// quotes update every tick (the paper's "high update frequency" regime,
// where on-demand shines). The example sweeps the download budget and
// reports the per-tier score each policy achieves.
//
//   $ ./stock_ticker [--ticks=120] [--seed=42]
#include <cstdio>
#include <iostream>
#include <vector>

#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "object/builders.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/trace.hpp"
#include "workload/updates.hpp"

namespace {

using namespace mobi;

struct Tier {
  const char* name;
  double target_recency;
  std::size_t requests_per_tick;
};

constexpr Tier kTiers[] = {
    {"day-trader", 0.99, 20},
    {"analyst", 0.70, 30},
    {"casual", 0.30, 50},
};

struct TierScore {
  double sum = 0.0;
  std::size_t count = 0;
  double mean() const { return count ? sum / double(count) : 0.0; }
};

std::vector<TierScore> run(const object::Catalog& catalog,
                           const workload::Trace& trace, sim::Tick ticks,
                           const std::string& policy, object::Units budget) {
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig config;
  config.download_budget = budget;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy(policy), config);
  // Quotes move every tick: the paper's high-update-frequency regime.
  auto updates = workload::make_periodic_synchronized(catalog.size(), 1);

  std::vector<TierScore> scores(std::size(kTiers));
  for (sim::Tick t = 0; t < ticks; ++t) {
    station.apply_updates(*updates, t);
    const auto batch = trace.batch_at(t);
    station.process_batch(batch, t);
    for (const auto& request : batch) {
      const double x = station.cache().recency_or_zero(request.object);
      const double score =
          station.scorer().score(x, request.target_recency);
      // Recover the tier from the request's target.
      for (std::size_t tier = 0; tier < std::size(kTiers); ++tier) {
        if (request.target_recency == kTiers[tier].target_recency) {
          scores[tier].sum += score;
          ++scores[tier].count;
          break;
        }
      }
    }
  }
  return scores;
}

}  // namespace

static int example_main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto ticks = sim::Tick(flags.get_int("ticks", 120));
  util::Rng rng(std::uint64_t(flags.get_int("seed", 42)));

  // 150 tickers, unit size (quotes are small); zipf popularity.
  const object::Catalog catalog = object::make_uniform_catalog(150, 1);
  const auto access = workload::make_zipf_access(catalog.size(), 1.0);

  // Build one shared trace with tiered targets.
  workload::Trace trace;
  {
    util::Rng trace_rng = rng.split();
    workload::ClientId next_client = 0;
    for (sim::Tick t = 0; t < ticks; ++t) {
      for (const auto& tier : kTiers) {
        for (std::size_t i = 0; i < tier.requests_per_tick; ++i) {
          trace.record(t, workload::Request{access->sample(trace_rng),
                                            tier.target_recency,
                                            next_client++});
        }
      }
    }
  }

  std::cout << "Stock ticker: " << catalog.size()
            << " symbols updating every tick, client tiers: day-trader "
               "(C=0.99), analyst (C=0.70), casual (C=0.30)\n\n";
  std::printf("%-22s %7s %12s %10s %9s\n", "policy", "budget", "day-trader",
              "analyst", "casual");
  for (object::Units budget : {10, 30, 60}) {
    for (const char* policy : {"on-demand-knapsack", "async-round-robin"}) {
      const auto scores = run(catalog, trace, ticks, policy, budget);
      std::printf("%-22s %7lld %12.4f %10.4f %9.4f\n", policy,
                  (long long)budget, scores[0].mean(), scores[1].mean(),
                  scores[2].mean());
    }
  }
  std::cout << "\nThe knapsack policy spends its budget where client "
               "targets are strict and copies are stale; round-robin "
               "refresh ignores both, so strict tiers suffer most.\n";
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, example_main);
}
