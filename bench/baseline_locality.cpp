// Workload baseline: temporal locality (LRU stack model). The same
// popularity marginals with increasing reuse make the base-station cache
// hotter: repeated requests find fresh copies, so every policy improves —
// but the request-oblivious async baseline improves least, since locality
// lives entirely in the request stream it ignores.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "object/builders.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"
#include "workload/locality.hpp"
#include "workload/updates.hpp"

namespace {

using namespace mobi;

double run(const std::string& policy, double reuse, std::uint64_t seed) {
  const std::size_t n = 300;
  const object::Catalog catalog = object::make_uniform_catalog(n, 1);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig config;
  config.download_budget = 20;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            core::make_policy(policy), config);
  workload::StackAccess access(workload::make_zipf_access(n, 0.8), reuse, 0.6,
                               64);
  auto updates = workload::make_periodic_staggered(n, 4);
  util::Rng rng(seed);

  double score = 0.0;
  std::size_t requests = 0;
  const sim::Tick warmup = 30, ticks = 200;
  for (sim::Tick t = 0; t < ticks; ++t) {
    station.apply_updates(*updates, t);
    workload::RequestBatch batch;
    for (int i = 0; i < 60; ++i) {
      batch.push_back(
          workload::Request{access.sample(rng), 1.0, workload::ClientId(i)});
    }
    const auto result = station.process_batch(batch, t);
    if (t >= warmup) {
      score += result.score_sum;
      requests += result.requests;
    }
  }
  return requests ? score / double(requests) : 0.0;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));

  util::Table table({"reuse probability", "on-demand knapsack",
                     "stale-while-revalidate", "async round-robin"});
  for (double reuse : {0.0, 0.3, 0.6, 0.9}) {
    table.add_row({reuse, run("on-demand-knapsack", reuse, seed),
                   run("stale-while-revalidate", reuse, seed),
                   run("async-round-robin", reuse, seed)});
  }
  mobi::bench::emit(flags,
                    "Temporal locality sweep (stack model over zipf "
                    "marginals, budget 20/tick)",
                    "locality", table);
  std::cout << "Read: locality concentrates requests, so request-driven "
               "policies cover the working set within budget; async gains "
               "nothing from it.\n";
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
