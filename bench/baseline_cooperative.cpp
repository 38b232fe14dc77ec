// Extension baseline: cooperative caching between neighboring base
// stations (hierarchical caching in the spirit of Harvest [10], paper §5).
// Sweeps the neighbor-recency acceptance threshold and the interest
// overlap, reporting how much origin (fixed-network) bandwidth neighbors
// absorb and what the relayed staleness costs in client score.
#include <iostream>

#include "bench_common.hpp"
#include "coop/cooperative.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));

  coop::CoopConfig base;
  base.seed = seed;

  {
    util::Table table({"mode", "threshold", "avg score", "origin units",
                       "neighbor units", "neighbor fraction"});
    {
      auto config = base;
      config.mode = coop::FetchMode::kOriginOnly;
      const auto result = coop::run_cooperative(config);
      table.add_row({std::string("origin-only"), std::string("-"),
                     result.average_score(), (long long)(result.origin_units),
                     (long long)(result.neighbor_units),
                     result.neighbor_fraction()});
    }
    for (double threshold : {0.3, 0.5, 0.8, 0.99}) {
      auto config = base;
      config.mode = coop::FetchMode::kNeighborFirst;
      config.neighbor_recency_threshold = threshold;
      const auto result = coop::run_cooperative(config);
      table.add_row({std::string("neighbor-first"), std::to_string(threshold),
                     result.average_score(), (long long)(result.origin_units),
                     (long long)(result.neighbor_units),
                     result.neighbor_fraction()});
    }
    bench::emit(flags,
                "Cooperative caching: acceptance-threshold sweep (3 cells, "
                "shared zipf interests)",
                "coop_threshold", table);
  }

  {
    util::Table table({"interests", "avg score", "origin units",
                       "neighbor fraction"});
    for (const bool distinct : {false, true}) {
      auto config = base;
      config.mode = coop::FetchMode::kNeighborFirst;
      config.distinct_interests = distinct;
      const auto result = coop::run_cooperative(config);
      table.add_row({std::string(distinct ? "distinct" : "shared"),
                     result.average_score(), (long long)(result.origin_units),
                     result.neighbor_fraction()});
    }
    bench::emit(flags,
                "Cooperative caching: interest overlap determines how much "
                "neighbors can help",
                "coop_overlap", table);
  }
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
