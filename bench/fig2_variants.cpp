// The results the paper *omitted*: "we note that our results were similar
// for varying object sizes, but we omit these results due to space
// considerations" (§3.1) and "our results were similar for varying object
// sizes and skew in popularity" (§3.2). This binary regenerates both
// omitted variants so the claim can be checked:
//   * Figure 2 with object sizes U[1, 20] instead of unit size, and with
//     staggered instead of synchronized updates;
//   * Figure 3 with zipf-skewed instead of uniform access.
#include <iostream>

#include "bench_common.hpp"
#include "cache/decay.hpp"
#include "core/base_station.hpp"
#include "exp/fig2.hpp"
#include "exp/fig3.hpp"
#include "object/builders.hpp"
#include "server/remote_server.hpp"
#include "util/rng.hpp"
#include "workload/access.hpp"
#include "workload/trace.hpp"
#include "workload/updates.hpp"

namespace {

using namespace mobi;

/// Fig-2-style measurement with per-object random sizes and a choice of
/// update process.
object::Units downloaded_units(std::size_t object_count,
                               exp::AccessPattern pattern,
                               std::size_t request_rate, bool staggered,
                               std::uint64_t seed) {
  util::Rng rng(seed ^ (std::uint64_t(request_rate) << 18) ^
                std::uint64_t(pattern));
  const object::Catalog catalog =
      object::make_random_catalog(object_count, 1, 20, rng);
  server::ServerPool servers(catalog, 1);
  core::BaseStationConfig config;
  config.download_budget = -1;
  config.downlink_capacity =
      std::max<object::Units>(1, object::Units(request_rate) * 10);
  core::BaseStation station(
      catalog, servers, cache::make_harmonic_decay(),
      std::make_unique<core::ReciprocalScorer>(),
      std::make_unique<core::OnDemandStaleOnlyPolicy>(), config);
  auto updates = staggered
                     ? workload::make_periodic_staggered(object_count, 5)
                     : workload::make_periodic_synchronized(object_count, 5);
  workload::RequestGenerator generator(
      exp::make_access(pattern, object_count, 1.0),
      workload::ConstantTarget{1.0}, request_rate, rng.split());
  const sim::Tick warmup = 100, measured = 500;
  object::Units total = 0;
  for (sim::Tick t = 0; t < warmup + measured; ++t) {
    station.apply_updates(*updates, t);
    const auto result = station.process_batch(generator.next_batch(), t);
    if (t >= warmup) total += result.units_downloaded;
  }
  return total;
}

}  // namespace

static int bench_main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));
  const std::size_t n = 500;

  for (const bool staggered : {false, true}) {
    util::Table table({"requests/tick", "asynchronous", "on-demand uniform",
                       "on-demand rank-linear", "on-demand zipf"},
                      0);
    // Async bound with random sizes: total catalog size * updates.
    util::Rng rng(seed);
    const auto catalog = object::make_random_catalog(n, 1, 20, rng);
    const object::Units async_bound = catalog.total_size() * (500 / 5);
    for (std::size_t rate : {0, 50, 100, 200, 400}) {
      table.add_row(
          {(long long)(rate), (long long)(async_bound),
           (long long)(downloaded_units(n, exp::AccessPattern::kUniform, rate,
                                        staggered, seed)),
           (long long)(downloaded_units(n, exp::AccessPattern::kRankLinear,
                                        rate, staggered, seed)),
           (long long)(downloaded_units(n, exp::AccessPattern::kZipf, rate,
                                        staggered, seed))});
    }
    mobi::bench::emit(
        flags,
        std::string("Figure 2 variant: object sizes U[1,20], ") +
            (staggered ? "staggered" : "synchronized") + " updates",
        staggered ? "fig2_var_staggered" : "fig2_var_sizes", table);
  }
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
