// Figure 1 (paper §1/§2): the mobile-computing architecture. This binary
// instantiates the full component stack — remote servers on a fixed
// network, a base station with a cache and wireless downlink, mobile
// clients in a cell — runs a few ticks, and prints the topology with live
// state, substituting a structural summary for the paper's diagram.
#include <iostream>

#include "bench_common.hpp"
#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "object/builders.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/updates.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  util::Rng rng(std::uint64_t(flags.get_int("seed", 42)));

  const auto catalog = object::make_random_catalog(100, 1, 10, rng);
  server::ServerPool servers(catalog, 4);

  // Two cells, each with its own base station, sharing the remote servers.
  core::BaseStationConfig config;
  config.download_budget = 50;
  config.downlink_capacity = 100;
  std::vector<std::unique_ptr<core::BaseStation>> cells;
  for (int cell = 0; cell < 2; ++cell) {
    cells.push_back(std::make_unique<core::BaseStation>(
        catalog, servers, cache::make_harmonic_decay(),
        std::make_unique<core::ReciprocalScorer>(),
        core::make_policy("on-demand-knapsack"), config));
  }

  auto updates = workload::make_periodic_staggered(catalog.size(), 5);
  std::vector<workload::RequestGenerator> generators;
  for (int cell = 0; cell < 2; ++cell) {
    generators.emplace_back(workload::make_zipf_access(catalog.size(), 1.0),
                            workload::UniformTarget{0.5, 1.0}, 40,
                            rng.split());
  }
  for (sim::Tick t = 0; t < 50; ++t) {
    for (std::size_t cell = 0; cell < cells.size(); ++cell) {
      if (cell == 0) cells[cell]->apply_updates(*updates, t);
      cells[cell]->process_batch(generators[cell].next_batch(), t);
    }
  }

  std::cout << "Figure 1: architecture of a mobile computing environment\n"
            << "  fixed network: " << servers.server_count()
            << " remote servers, " << catalog.size() << " objects ("
            << catalog.total_size() << " units total)\n";
  util::Table table({"cell", "policy", "requests", "downloaded units",
                     "avg score", "downlink util"});
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    const auto& station = *cells[cell];
    table.add_row({(long long)(cell), std::string(station.policy().name()),
                   (long long)(station.totals().requests),
                   (long long)(station.totals().units_downloaded),
                   station.totals().average_score(),
                   station.downlink().utilization()});
  }
  bench::emit(flags, "Per-cell base stations after 50 ticks", "fig1", table);
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
