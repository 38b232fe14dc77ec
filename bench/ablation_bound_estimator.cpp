// Ablation for the paper's §6 future work: "techniques to determine how
// much data the base station should download". Evaluates the marginal-knee
// and chord-elbow estimators (plus 90%/95% value oracles) across all nine
// correlation regimes of the solution-space analysis — exactly the
// workloads where the paper observes "under some circumstances there is
// not a great benefit to downloading large amounts of data".
#include <iostream>

#include "bench_common.hpp"
#include "exp/ablation.hpp"
#include "exp/solution_space.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);

  util::Table table({"size~requests", "size~recency", "estimator",
                     "recommended budget", "fraction of max value",
                     "fraction of capacity"});
  const auto correlations = {object::Correlation::kNegative,
                             object::Correlation::kNone,
                             object::Correlation::kPositive};
  for (auto req_corr : correlations) {
    for (auto rec_corr : correlations) {
      exp::SolutionSpaceConfig config;
      config.size_vs_requests = req_corr;
      config.size_vs_recency = rec_corr;
      config.seed = std::uint64_t(flags.get_int("seed", 42));
      const auto inst = exp::build_instance(config);
      for (const auto& row : exp::evaluate_bound_estimators(inst)) {
        table.add_row({std::string(object::correlation_name(req_corr)),
                       std::string(object::correlation_name(rec_corr)),
                       row.estimator, (long long)(row.recommended),
                       row.fraction_of_max_value, row.fraction_of_capacity});
      }
    }
  }
  bench::emit(flags,
              "Ablation: download-bound estimators across correlation "
              "regimes (capacity 5000)",
              "ablation_bound", table);
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
