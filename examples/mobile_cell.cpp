// Multi-cell mobility scenario.
//
// The paper's motivation (§1): "a client may be connected to the base
// station in its cell for a short period of time, and then disconnect or
// move to a different cell". This example runs two cells whose base
// stations share the same remote servers but have independent caches. A
// population of mobile clients roams between cells (and sometimes
// disconnects); each cell serves its residents with the on-demand
// knapsack policy. The report shows how handoffs land clients on colder
// caches and what that costs in recency score.
//
//   $ ./mobile_cell [--ticks=150] [--clients=80] [--handoff=0.05]
#include <cstdio>
#include <iostream>
#include <vector>

#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "object/builders.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/updates.hpp"

namespace {

using namespace mobi;

enum class Location { kCellA, kCellB, kDisconnected };

struct MobileClient {
  workload::ClientId id = 0;
  Location location = Location::kCellA;
  double target_recency = 1.0;
  std::uint32_t handoffs = 0;
};

}  // namespace

static int example_main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto ticks = sim::Tick(flags.get_int("ticks", 150));
  const auto client_count = std::size_t(flags.get_int("clients", 80));
  const double handoff_rate = flags.get_double("handoff", 0.05);
  const double disconnect_rate = flags.get_double("disconnect", 0.02);
  util::Rng rng(std::uint64_t(flags.get_int("seed", 42)));

  const object::Catalog catalog = object::make_random_catalog(200, 1, 8, rng);
  server::ServerPool servers(catalog, 2);

  core::BaseStationConfig config;
  config.download_budget = 60;
  std::vector<std::unique_ptr<core::BaseStation>> cells;
  for (int i = 0; i < 2; ++i) {
    cells.push_back(std::make_unique<core::BaseStation>(
        catalog, servers, cache::make_harmonic_decay(),
        std::make_unique<core::ReciprocalScorer>(),
        core::make_policy("on-demand-knapsack"), config));
  }

  // Clients: half start in each cell, each with its own recency taste.
  std::vector<MobileClient> clients(client_count);
  for (std::size_t i = 0; i < client_count; ++i) {
    clients[i].id = workload::ClientId(i);
    clients[i].location = i % 2 ? Location::kCellA : Location::kCellB;
    clients[i].target_recency = rng.uniform(0.5, 1.0);
  }

  const auto access = workload::make_zipf_access(catalog.size(), 1.0);
  auto updates = workload::make_periodic_staggered(catalog.size(), 6);

  std::uint64_t total_handoffs = 0, total_disconnects = 0;
  double post_handoff_score = 0.0;
  std::size_t post_handoff_requests = 0;
  std::vector<bool> just_moved(client_count, false);

  for (sim::Tick t = 0; t < ticks; ++t) {
    // Server updates propagate to both cells' caches.
    updates->for_each_updated(t, [&](object::ObjectId id) {
      servers.apply_update(id, t);
      for (auto& cell : cells) cell->cache().on_server_update(id);
    });

    // Mobility: roam, disconnect, reconnect.
    for (auto& client : clients) {
      just_moved[client.id] = false;
      if (client.location == Location::kDisconnected) {
        if (rng.bernoulli(0.3)) {  // reconnect into a random cell
          client.location =
              rng.bernoulli(0.5) ? Location::kCellA : Location::kCellB;
          just_moved[client.id] = true;
        }
        continue;
      }
      if (rng.bernoulli(disconnect_rate)) {
        client.location = Location::kDisconnected;
        ++total_disconnects;
      } else if (rng.bernoulli(handoff_rate)) {
        client.location = client.location == Location::kCellA
                              ? Location::kCellB
                              : Location::kCellA;
        ++client.handoffs;
        ++total_handoffs;
        just_moved[client.id] = true;
      }
    }

    // Each connected client issues one request to its cell's station.
    workload::RequestBatch batch_a, batch_b;
    for (const auto& client : clients) {
      if (client.location == Location::kDisconnected) continue;
      const workload::Request request{access->sample(rng),
                                      client.target_recency, client.id};
      (client.location == Location::kCellA ? batch_a : batch_b)
          .push_back(request);
    }
    const auto result_a = cells[0]->process_batch(batch_a, t);
    const auto result_b = cells[1]->process_batch(batch_b, t);

    // Attribute scores to just-moved clients to quantify the handoff tax.
    const auto tally_moved = [&](const workload::RequestBatch& batch,
                                 const core::BaseStation& station) {
      for (const auto& request : batch) {
        if (!just_moved[request.client]) continue;
        const double x = station.cache().recency_or_zero(request.object);
        post_handoff_score +=
            station.scorer().score(x, request.target_recency);
        ++post_handoff_requests;
      }
    };
    tally_moved(batch_a, *cells[0]);
    tally_moved(batch_b, *cells[1]);
    (void)result_a;
    (void)result_b;
  }

  std::cout << "Mobile cells: " << client_count << " clients, " << ticks
            << " ticks, handoff rate " << handoff_rate << "\n\n";
  std::printf("%-8s %10s %14s %10s %15s\n", "cell", "requests", "downloaded",
              "avg score", "downlink util");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& totals = cells[i]->totals();
    std::printf("%-8s %10zu %14lld %10.4f %15.4f\n",
                i == 0 ? "A" : "B", totals.requests,
                (long long)totals.units_downloaded, totals.average_score(),
                cells[i]->downlink().utilization());
  }
  const double overall =
      (cells[0]->totals().score_sum + cells[1]->totals().score_sum) /
      double(cells[0]->totals().requests + cells[1]->totals().requests);
  std::cout << "\nhandoffs: " << total_handoffs
            << ", disconnects: " << total_disconnects << "\n"
            << "avg score overall:            " << overall << "\n"
            << "avg score right after a move: "
            << (post_handoff_requests
                    ? post_handoff_score / double(post_handoff_requests)
                    : 0.0)
            << "  (" << post_handoff_requests << " requests)\n"
            << "Clients landing in a new cell see that cell's cache state; "
               "the on-demand policy spends its budget closing exactly that "
               "gap.\n";
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, example_main);
}
