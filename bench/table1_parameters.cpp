// Table 1 (paper §4.1): parameter values for the solution-space analysis,
// plus a verification pass over a generated instance showing the synthetic
// data actually conforms to the table (ranges, distributions and the
// 5000-unit / 5000-client totals quoted in the text).
#include <iostream>

#include "bench_common.hpp"
#include "exp/solution_space.hpp"
#include "util/stats.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);

  util::Table table({"Parameter", "range", "distribution"});
  table.add_row({std::string("Object Size"), std::string("[1-20]"),
                 std::string("uniform")});
  table.add_row({std::string("Num Requests"), std::string("[1-20]"),
                 std::string("uniform or constant")});
  table.add_row({std::string("Cache Recency Score"), std::string("[0.1-1.0]"),
                 std::string("uniform")});
  bench::emit(flags, "Table 1: parameter values for each object", "table1",
              table);

  exp::SolutionSpaceConfig config;
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  const auto inst = exp::build_instance(config);

  util::Summary sizes, requests, recency;
  for (std::size_t i = 0; i < inst.catalog.size(); ++i) {
    sizes.add(double(inst.catalog.object_size(object::ObjectId(i))));
    requests.add(double(inst.num_requests[i]));
    recency.add(inst.cache_recency[i]);
  }
  util::Table check(
      {"attribute", "min", "mean", "max", "total"});
  check.add_row({std::string("object size"), sizes.min(), sizes.mean(),
                 sizes.max(), double(inst.catalog.total_size())});
  check.add_row({std::string("num requests"), requests.min(), requests.mean(),
                 requests.max(), requests.sum()});
  check.add_row({std::string("cache recency"), recency.min(), recency.mean(),
                 recency.max(), recency.sum()});
  bench::emit(flags,
              "Generated instance conformance (500 objects, totals 5000/5000)",
              "table1_conformance", check);
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
