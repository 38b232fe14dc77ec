// Figure 5 (paper §4.2.2): Average Score vs units downloaded under skewed
// access. Panel (a): small objects hot (negative correlation between
// Object Size and NumRequests); panel (b): large objects hot (positive).
// Each panel sweeps the Size/Recency correlation. Expected shape: panel
// (a) converges quickly (scores > ~0.97 by ~2000 of 5000 units); panel (b)
// climbs steadily and only converges near ~3500 units — large hot objects
// reward a large download budget.
#include <iostream>

#include "bench_common.hpp"
#include "exp/solution_space.hpp"

namespace {

void run_panel(const mobi::util::Flags& flags, const char* title,
               const char* slug, mobi::object::Correlation size_vs_requests,
               std::uint64_t seed, mobi::object::Units step) {
  using namespace mobi;
  exp::SolutionSpaceConfig base;
  base.size_vs_requests = size_vs_requests;
  base.seed = seed;

  std::vector<std::vector<exp::CurvePoint>> curves;
  std::vector<object::Units> convergence;
  for (auto corr : {object::Correlation::kPositive,
                    object::Correlation::kNegative,
                    object::Correlation::kNone}) {
    auto config = base;
    config.size_vs_recency = corr;
    const auto inst = exp::build_instance(config);
    curves.push_back(exp::average_score_curve(inst, step));
    convergence.push_back(exp::budget_reaching_score(inst, 0.97, 50));
  }

  util::Table table({"units downloaded", "large objs high scores",
                     "large objs low scores", "no correlation"});
  for (std::size_t i = 0; i < curves[0].size(); ++i) {
    table.add_row({(long long)(curves[0][i].budget),
                   curves[0][i].average_score, curves[1][i].average_score,
                   curves[2][i].average_score});
  }
  bench::emit(flags, title, slug, table);
  std::cout << "  budget where score reaches 0.97 (the dotted-rectangle "
               "corner): high="
            << convergence[0] << " low=" << convergence[1]
            << " none=" << convergence[2] << "\n\n";
}

}  // namespace

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));
  const auto step = object::Units(flags.get_int("step", 250));
  run_panel(flags, "Figure 5(a): small objects hot (Size vs NumRequests negative)",
            "fig5a", object::Correlation::kNegative, seed, step);
  run_panel(flags, "Figure 5(b): large objects hot (Size vs NumRequests positive)",
            "fig5b", object::Correlation::kPositive, seed, step);
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
