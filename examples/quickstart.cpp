// Quickstart: the smallest useful mobicache program.
//
// Builds a catalog of objects on a remote server, puts a base station with
// the paper's on-demand knapsack policy in front of it, drives a few ticks
// of client requests under server updates, and prints what happened.
//
//   $ ./quickstart [--ticks=20] [--budget=10] [--seed=42]
#include <iostream>

#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "object/builders.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/updates.hpp"

static int example_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const auto ticks = sim::Tick(flags.get_int("ticks", 20));
  const auto budget = object::Units(flags.get_int("budget", 10));
  util::Rng rng(std::uint64_t(flags.get_int("seed", 42)));

  // 1. A catalog of 50 objects (sizes 1-5 units) on one remote server.
  const object::Catalog catalog = object::make_random_catalog(50, 1, 5, rng);
  server::ServerPool servers(catalog, 1);

  // 2. A base station: cache with the paper's harmonic decay, reciprocal
  //    recency scoring, and the on-demand knapsack download policy with a
  //    per-tick download budget.
  core::BaseStationConfig config;
  config.download_budget = budget;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy("on-demand-knapsack"), config);

  // 3. A workload: zipf-popular objects, clients that want data at least
  //    80% fresh, 25 requests per tick; servers update everything every 4
  //    ticks.
  workload::RequestGenerator requests(
      workload::make_zipf_access(catalog.size(), 1.0),
      workload::ConstantTarget{0.8}, 25, rng.split());
  auto updates = workload::make_periodic_synchronized(catalog.size(), 4);

  // 4. Run the tick loop: updates happen, then the batch is served.
  std::cout << "tick  downloaded(units)  avg-score  avg-recency\n";
  for (sim::Tick t = 0; t < ticks; ++t) {
    station.apply_updates(*updates, t);
    const core::TickResult result =
        station.process_batch(requests.next_batch(), t);
    std::printf("%4lld  %17lld  %9.4f  %11.4f\n",
                (long long)t, (long long)result.units_downloaded,
                result.average_score(),
                result.requests ? result.recency_sum / double(result.requests)
                                : 1.0);
  }

  // 5. Totals.
  const auto& totals = station.totals();
  std::cout << "\nover " << ticks << " ticks: " << totals.requests
            << " requests, " << totals.units_downloaded
            << " units downloaded, average client score "
            << totals.average_score() << "\n"
            << "cache: " << station.cache().stats().hits << " hits, "
            << station.cache().stats().misses << " misses, "
            << station.cache().stats().refreshes << " refreshes\n"
            << "downlink utilization: " << station.downlink().utilization()
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, example_main);
}
