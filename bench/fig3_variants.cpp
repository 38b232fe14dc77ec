// Figure 3 variant the paper omitted (§3.2: "our results were similar for
// varying object sizes and skew in popularity"): the recency-vs-budget
// comparison under zipf-skewed access instead of uniform. The shape claim
// to check: on-demand still dominates async at every budget and the
// crossover structure is unchanged.
#include <iostream>

#include "bench_common.hpp"
#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "object/builders.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/trace.hpp"
#include "workload/updates.hpp"

namespace {

using namespace mobi;

double run_once(const workload::Trace& trace, std::size_t object_count,
                sim::Tick update_period, object::Units budget,
                bool on_demand) {
  const object::Catalog catalog =
      object::make_uniform_catalog(object_count, 1);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig config;
  config.download_budget = budget;
  config.downlink_capacity = 100;
  std::unique_ptr<core::DownloadPolicy> policy;
  if (on_demand) {
    policy = std::make_unique<core::OnDemandLowestRecencyPolicy>();
  } else {
    policy = std::make_unique<core::AsyncRoundRobinPolicy>();
  }
  core::BaseStation station(catalog, servers, cache::make_harmonic_decay(),
                            std::make_unique<core::ReciprocalScorer>(),
                            std::move(policy), config);
  auto updates =
      workload::make_periodic_synchronized(object_count, update_period);
  const sim::Tick warmup = 50, measured = 100;
  double recency = 0.0;
  std::size_t count = 0;
  for (sim::Tick t = 0; t < warmup + measured; ++t) {
    station.apply_updates(*updates, t);
    const auto result = station.process_batch(trace.batch_at(t), t);
    if (t >= warmup) {
      recency += result.recency_sum;
      count += result.requests;
    }
  }
  return count ? recency / double(count) : 0.0;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));
  const std::size_t n = 500;

  for (const sim::Tick period : {10, 1}) {
    util::Rng rng(seed);
    workload::RequestGenerator generator(workload::make_zipf_access(n, 1.0),
                                         workload::ConstantTarget{1.0}, 100,
                                         rng.split());
    const workload::Trace trace = workload::generate_trace(generator, 150);

    util::Table table({"downloaded/tick", "on-demand avg recency",
                       "async avg recency"});
    for (object::Units budget : {1, 5, 10, 20, 40, 60, 80, 100}) {
      table.add_row({(long long)(budget),
                     run_once(trace, n, period, budget, true),
                     run_once(trace, n, period, budget, false)});
    }
    mobi::bench::emit(flags,
                      std::string("Figure 3 variant: zipf access, ") +
                          (period == 10 ? "low" : "high") +
                          " update frequency",
                      period == 10 ? "fig3_var_zipf_low" : "fig3_var_zipf_high",
                      table);
  }
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
