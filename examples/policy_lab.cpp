// Policy lab: run any policy/scorer/workload combination from the command
// line — the library's exp::run_policy_sim exposed as a tool. Useful for
// quick what-ifs without writing code.
//
//   $ ./policy_lab --policy=on-demand-knapsack --budget=50 --access=zipf
//   $ ./policy_lab --policy=adaptive-knapsack --budget=-1 --updates=2
//   $ ./policy_lab --compare   # run the whole policy roster side by side
//
// Flags (defaults in brackets):
//   --policy=NAME        [on-demand-knapsack]   see core::make_policy
//   --scorer=NAME        [reciprocal]           reciprocal|exponential|step
//   --access=NAME        [zipf]                 uniform|rank-linear|zipf
//   --objects=N          [200]    --requests=N  [50]   per tick
//   --budget=N           [100]    negative = unlimited
//   --updates=N          [5]      server update period in ticks
//   --warmup=N --ticks=N [50/200] --seed=N [42] --compare
//
// A malformed flag value, a negative count or an unknown name prints
// "policy_lab: <message>" and exits 2, before any output.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/policy.hpp"
#include "core/scoring.hpp"
#include "exp/policy_sim.hpp"
#include "util/flags.hpp"

namespace {

using namespace mobi;

// A size flag: a negative value would wrap to a huge std::size_t.
std::size_t get_count(const util::Flags& flags, const std::string& name,
                      std::int64_t fallback) {
  const std::int64_t value = flags.get_int(name, fallback);
  if (value < 0) {
    throw std::invalid_argument("flag --" + name + " must be >= 0, got " +
                                std::to_string(value));
  }
  return std::size_t(value);
}

exp::PolicySimConfig config_from_flags(const util::Flags& flags) {
  exp::PolicySimConfig config;
  config.policy = flags.get_string("policy", "on-demand-knapsack");
  config.scorer = flags.get_string("scorer", "reciprocal");
  config.object_count = get_count(flags, "objects", 200);
  config.requests_per_tick = get_count(flags, "requests", 50);
  config.budget = object::Units(flags.get_int("budget", 100));
  config.update_period = sim::Tick(flags.get_int("updates", 5));
  config.warmup_ticks = sim::Tick(flags.get_int("warmup", 50));
  config.measure_ticks = sim::Tick(flags.get_int("ticks", 200));
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  const std::string access = flags.get_string("access", "zipf");
  if (access == "uniform") {
    config.access = exp::AccessPattern::kUniform;
  } else if (access == "rank-linear") {
    config.access = exp::AccessPattern::kRankLinear;
  } else if (access == "zipf") {
    config.access = exp::AccessPattern::kZipf;
  } else {
    throw std::invalid_argument("unknown --access: " + access);
  }
  return config;
}

void print_row(const std::string& label, const exp::PolicySimResult& result) {
  std::printf("%-26s %9.4f %11.4f %12lld %14.4f %9.4f %9.4f\n", label.c_str(),
              result.average_score, result.average_recency,
              (long long)result.units_downloaded,
              result.downlink_utilization, result.jain_fairness,
              result.score_p10);
}

int policy_lab_main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  // Every flag is read and every name checked before the header, so a
  // usage error prints nothing but its message.
  const exp::PolicySimConfig base = config_from_flags(flags);
  const bool compare = flags.get_bool("compare", false);
  if (!compare) core::make_policy(base.policy);
  core::make_scorer(base.scorer);

  std::printf("%-26s %9s %11s %12s %14s %9s %9s\n", "policy", "avg score",
              "avg recency", "downloaded", "downlink util", "jain",
              "p10 score");
  if (!compare) {
    print_row(base.policy, exp::run_policy_sim(base));
    return 0;
  }
  for (const char* policy :
       {"on-demand-knapsack", "on-demand-knapsack-greedy",
        "on-demand-lowest-recency", "on-demand-latency-aware",
        "adaptive-knapsack", "stale-while-revalidate", "async-round-robin",
        "download-all", "cache-only"}) {
    exp::PolicySimConfig config = base;
    config.policy = policy;
    if (config.policy == "download-all" ||
        config.policy == "adaptive-knapsack") {
      config.budget = -1;  // these choose or ignore their own bound
    }
    print_row(policy, exp::run_policy_sim(config));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, policy_lab_main);
}
