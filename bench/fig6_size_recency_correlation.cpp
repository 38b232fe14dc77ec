// Figure 6 (paper §4.2.2): Average Score vs units downloaded for fixed
// Size/Recency correlation, sweeping the Size/NumRequests correlation.
// Panel (a): small objects have the highest recency scores (negative
// Size/Recency) — profit sits on large stale objects, so scores climb
// steadily and converge only after ~4000 of 5000 units. Panel (b): large
// objects have the highest recency scores (positive) — curves converge
// quickly, by ~2000 units.
#include <iostream>

#include "bench_common.hpp"
#include "exp/solution_space.hpp"

namespace {

void run_panel(const mobi::util::Flags& flags, const char* title,
               const char* slug, mobi::object::Correlation size_vs_recency,
               std::uint64_t seed, mobi::object::Units step) {
  using namespace mobi;
  exp::SolutionSpaceConfig base;
  base.size_vs_recency = size_vs_recency;
  base.seed = seed;

  std::vector<std::vector<exp::CurvePoint>> curves;
  std::vector<object::Units> convergence;
  for (auto corr : {object::Correlation::kPositive,
                    object::Correlation::kNegative,
                    object::Correlation::kNone}) {
    auto config = base;
    config.size_vs_requests = corr;
    const auto inst = exp::build_instance(config);
    curves.push_back(exp::average_score_curve(inst, step));
    convergence.push_back(exp::budget_reaching_score(inst, 0.97, 50));
  }

  util::Table table({"units downloaded", "large objects hot",
                     "small objects hot", "uniform access"});
  for (std::size_t i = 0; i < curves[0].size(); ++i) {
    table.add_row({(long long)(curves[0][i].budget),
                   curves[0][i].average_score, curves[1][i].average_score,
                   curves[2][i].average_score});
  }
  bench::emit(flags, title, slug, table);
  std::cout << "  budget where score reaches 0.97 (the dotted-rectangle "
               "corner): large-hot="
            << convergence[0] << " small-hot=" << convergence[1]
            << " uniform=" << convergence[2] << "\n\n";
}

}  // namespace

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const auto seed = std::uint64_t(flags.get_int("seed", 42));
  const auto step = object::Units(flags.get_int("step", 250));
  run_panel(flags,
            "Figure 6(a): small objects have highest recency scores "
            "(Size vs Recency negative)",
            "fig6a", object::Correlation::kNegative, seed, step);
  run_panel(flags,
            "Figure 6(b): large objects have highest recency scores "
            "(Size vs Recency positive)",
            "fig6b", object::Correlation::kPositive, seed, step);
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
