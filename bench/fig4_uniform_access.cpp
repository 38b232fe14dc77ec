// Figure 4 (paper §4.2.1): Average Score vs upper bound on units
// downloaded when all objects are requested equally, for positive /
// negative / no correlation between Object Size and Cache Recency Score.
// Expected shape: "large objects high scores" (positive) rises rapidly
// then levels off; "large objects low scores" (negative) rises gradually;
// uncorrelated lies between the two.
#include <iostream>

#include "bench_common.hpp"
#include "exp/solution_space.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));
  const auto step = object::Units(flags.get_int("step", 250));

  exp::SolutionSpaceConfig base;
  base.constant_requests = true;  // uniform access: same NumRequests per object
  base.requests_constant = 10;    // 500 objects x 10 = 5000 clients
  base.seed = seed;

  std::vector<std::vector<exp::CurvePoint>> curves;
  for (auto corr : {object::Correlation::kPositive,
                    object::Correlation::kNegative,
                    object::Correlation::kNone}) {
    auto config = base;
    config.size_vs_recency = corr;
    curves.push_back(
        exp::average_score_curve(exp::build_instance(config), step));
  }

  util::Table table({"units downloaded", "large objs high scores",
                     "large objs low scores", "no correlation"});
  for (std::size_t i = 0; i < curves[0].size(); ++i) {
    table.add_row({(long long)(curves[0][i].budget),
                   curves[0][i].average_score, curves[1][i].average_score,
                   curves[2][i].average_score});
  }
  bench::emit(flags,
              "Figure 4: all objects accessed equally; correlation between "
              "Object Size and Cache Recency Score",
              "fig4", table);
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
