// Ablation: the paper's two example scoring functions (reciprocal,
// exponential) plus a strict step function, run through the full
// on-demand-knapsack simulation at several budgets. The scorer shapes the
// profit surface the knapsack optimizes, so it changes both the achieved
// Average Score and which objects get fetched.
#include <iostream>

#include "bench_common.hpp"
#include "exp/policy_sim.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);

  util::Table table({"scorer", "budget", "avg score", "avg recency",
                     "units downloaded"});
  for (const char* scorer : {"reciprocal", "exponential", "step"}) {
    for (object::Units budget : {20, 60, 120}) {
      exp::PolicySimConfig config;
      config.policy = "on-demand-knapsack";
      config.scorer = scorer;
      config.budget = budget;
      config.seed = std::uint64_t(flags.get_int("seed", 42));
      const auto result = exp::run_policy_sim(config);
      table.add_row({std::string(scorer), (long long)(budget),
                     result.average_score, result.average_recency,
                     (long long)(result.units_downloaded)});
    }
  }
  bench::emit(flags,
              "Ablation: recency scoring functions under the on-demand "
              "knapsack policy",
              "ablation_scoring", table);
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
