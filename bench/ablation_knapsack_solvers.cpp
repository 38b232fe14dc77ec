// Ablation: exact DP vs greedy density vs FPTAS on the paper-scale
// solution-space instance. The paper uses exact DP ("can be solved in
// pseudo-polynomial time using dynamic programming; there are also
// polynomial time approximation algorithms") — this quantifies what the
// approximations trade away.
#include <iostream>

#include "bench_common.hpp"
#include "exp/ablation.hpp"
#include "exp/solution_space.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);

  exp::SolutionSpaceConfig config;
  // Moderate size keeps the FPTAS reconstruction within its memory budget.
  config.object_count = std::size_t(flags.get_int("objects", 150));
  config.total_size = object::Units(config.object_count) * 10;
  config.total_requests = object::Units(config.object_count) * 10;
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  const auto inst = exp::build_instance(config);

  std::vector<core::KnapsackItem> items;
  for (const auto& cand : inst.candidates.candidates) {
    items.push_back(core::KnapsackItem{cand.size, cand.profit});
  }
  const object::Units cap = inst.catalog.total_size();
  const std::vector<object::Units> budgets{cap / 10, cap / 4, cap / 2,
                                           3 * cap / 4};
  const double epsilon = flags.get_double("epsilon", 0.1);
  const auto rows = exp::compare_solvers(items, budgets, epsilon);

  util::Table table({"solver", "budget", "value", "ratio to optimal",
                     "time (us)"});
  for (const auto& row : rows) {
    table.add_row({row.solver, (long long)(row.budget), row.value,
                   row.ratio_to_optimal, row.micros});
  }
  bench::emit(flags,
              "Ablation: knapsack solver quality and latency (" +
                  std::to_string(config.object_count) + " objects)",
              "ablation_solvers", table);
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
