// Ablation: the paper's update-aware knapsack policy vs the TTL-based
// stale-while-revalidate scheduling that modern proxies use. SWR needs no
// update channel, but the TTL lies in both directions: it refreshes
// unchanged objects (wasted bandwidth) and trusts changed ones (stale
// serves). The gap vs the knapsack policy quantifies the value of update
// knowledge, as a function of how well the TTL matches the true update
// period.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "core/swr_policy.hpp"
#include "object/builders.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/updates.hpp"

namespace {

using namespace mobi;

struct Outcome {
  double avg_score = 0.0;
  object::Units downloaded = 0;
};

Outcome run(std::unique_ptr<core::DownloadPolicy> policy,
            sim::Tick update_period, std::uint64_t seed) {
  const std::size_t n = 200;
  util::Rng rng(seed);
  const object::Catalog catalog = object::make_uniform_catalog(n, 1);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig config;
  config.download_budget = 30;
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            std::move(policy), config);
  workload::RequestGenerator generator(workload::make_zipf_access(n, 1.0),
                                       workload::ConstantTarget{1.0}, 60,
                                       rng.split());
  auto updates = workload::make_periodic_staggered(n, update_period);
  const sim::Tick warmup = 30, ticks = 230;
  double score = 0.0;
  std::size_t requests = 0;
  Outcome outcome;
  for (sim::Tick t = 0; t < ticks; ++t) {
    station.apply_updates(*updates, t);
    const auto result = station.process_batch(generator.next_batch(), t);
    if (t >= warmup) {
      score += result.score_sum;
      requests += result.requests;
      outcome.downloaded += result.units_downloaded;
    }
  }
  outcome.avg_score = requests ? score / double(requests) : 0.0;
  return outcome;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));
  const sim::Tick update_period = 4;  // ground truth the TTL tries to guess

  util::Table table({"policy", "avg score", "units downloaded"});
  {
    const auto outcome =
        run(core::make_policy("on-demand-knapsack"), update_period, seed);
    table.add_row({std::string("on-demand-knapsack (update-aware)"),
                   outcome.avg_score, (long long)(outcome.downloaded)});
  }
  for (sim::Tick ttl : {1, 2, 4, 8, 16}) {
    const auto outcome =
        run(std::make_unique<core::StaleWhileRevalidatePolicy>(ttl),
            update_period, seed);
    table.add_row({"stale-while-revalidate ttl=" + std::to_string(ttl),
                   outcome.avg_score, (long long)(outcome.downloaded)});
  }
  mobi::bench::emit(flags,
                    "Ablation: update-aware knapsack vs TTL "
                    "stale-while-revalidate (true update period = 4)",
                    "ablation_swr", table);
  std::cout << "Read: TTL < 4 wastes bandwidth refreshing unchanged "
               "objects; TTL > 4 serves stale silently; even the best TTL "
               "trails the update-aware knapsack.\n";
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
