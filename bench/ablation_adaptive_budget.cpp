// Ablation for the §6 adaptive-bound technique: AdaptiveKnapsackPolicy
// (knee and elbow rules) against fixed budgets, on the same workload.
// The interesting frontier is (units downloaded, average score): the
// adaptive policy should sit near the fixed-budget curve's knee —
// comparable score for substantially less bandwidth than large fixed
// budgets.
#include <iostream>

#include "bench_common.hpp"
#include "exp/policy_sim.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));

  util::Table table({"policy", "per-tick budget", "avg score",
                     "units downloaded", "units/tick"});
  exp::PolicySimConfig base;
  base.object_count = 200;
  base.requests_per_tick = 80;
  base.update_period = 3;
  base.seed = seed;

  for (object::Units budget : {10, 25, 50, 100, 200, 400}) {
    auto config = base;
    config.policy = "on-demand-knapsack";
    config.budget = budget;
    const auto result = exp::run_policy_sim(config);
    table.add_row({std::string("fixed"), (long long)(budget),
                   result.average_score,
                   (long long)(result.units_downloaded),
                   double(result.units_downloaded) /
                       double(config.measure_ticks)});
  }
  {
    auto config = base;
    config.policy = "adaptive-knapsack";
    config.budget = -1;  // the policy chooses its own bound
    const auto result = exp::run_policy_sim(config);
    table.add_row({std::string("adaptive (knee)"), (long long)(-1),
                   result.average_score,
                   (long long)(result.units_downloaded),
                   double(result.units_downloaded) /
                       double(config.measure_ticks)});
  }
  bench::emit(flags,
              "Ablation: adaptive download bound vs fixed budgets "
              "(score/bandwidth frontier)",
              "ablation_adaptive", table);
  std::cout << "Read: the adaptive row should achieve a score comparable "
               "to the larger fixed budgets while spending units/tick near "
               "the frontier's knee.\n";
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
