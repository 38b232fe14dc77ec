// The benchmark's own checks, at tiny sizes: metric catalogue validity
// (and agreement with BENCHMARK.json), exact repetition of the simulated
// metrics across runs and pool sizes, the replay cross-check, and the
// exit codes of the mobibench binary.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>

#include "e2e.hpp"
#include "report.hpp"
#include "traced.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace mobibench {
namespace {

constexpr WorkloadId kAll[] = {WorkloadId::kStationHot, WorkloadId::kFleetSkewed,
                               WorkloadId::kFleetMobile, WorkloadId::kCoopWrites};

RunOptions tiny_options(std::size_t pool = 3) {
  RunOptions options;
  options.seconds = 0.0;
  options.min_reps = 1;
  options.pool_threads = pool;
  return options;
}

Workload tiny(WorkloadId id, std::uint64_t seed = 7) {
  return make_workload(id, seed, Scale::kTiny);
}

// Per-layer metrics each workload must exercise (non-zero in its traced
// run); the README's layer map lists the same pairs.
std::vector<std::string> exercised(WorkloadId id) {
  switch (id) {
    case WorkloadId::kStationHot:
      return {"workload.next_batch_ns.p50", "workload.updates_ns.p99",
              "core.process_batch_us.p50", "core.process_batch_us.p99",
              "core.select_share", "core.candidates_per_tick",
              "core.fetch_yield", "cache.hit_frac", "net.units_per_tick",
              "net.downlink_util"};
    case WorkloadId::kFleetSkewed:
      return {"core.retry_success_frac", "net.units_per_tick",
              "client.local_hit_frac", "client.shard_ms.p50",
              "client.shard_ms.max", "exp.dispatch_s", "exp.worker_busy_frac",
              "exp.imbalance", "exp.record_share", "util.pool_cpu_util"};
    case WorkloadId::kFleetMobile:
      return {"net.units_per_tick", "client.local_hit_frac", "exp.dispatch_s",
              "mobility.step_us.p50", "mobility.step_us.p99",
              "mobility.barrier_share", "mobility.crossings_per_tick",
              "mobility.delivery_yield"};
    case WorkloadId::kCoopWrites:
      return {"workload.updates_ns.p50", "net.units_per_tick",
              "exp.dispatch_s", "exp.worker_busy_frac", "exp.imbalance",
              "coop.tick_us.p50", "coop.tick_us.p99", "coop.coherence_share",
              "coop.invalidations_per_update", "util.pool_cpu_util"};
  }
  return {};
}

void expect_valid_catalogue(const std::vector<MetricDef>& defs) {
  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const MetricDef& def : defs) {
    EXPECT_TRUE(std::regex_match(def.name, name_re)) << def.name;
    EXPECT_TRUE(std::regex_match(def.unit, unit_re)) << def.unit;
    EXPECT_TRUE(seen.insert(def.name).second) << "duplicate " << def.name;
  }
}

TEST(MobibenchCatalogue, NamesAndUnitsAreValidAndUnique) {
  expect_valid_catalogue(end_to_end_metrics());
  expect_valid_catalogue(per_layer_metrics());
  ASSERT_EQ(workload_names().size(), 4u);
  for (const std::string& name : workload_names()) {
    EXPECT_TRUE(parse_workload(name).has_value()) << name;
  }
  EXPECT_FALSE(parse_workload("station").has_value());
}

TEST(MobibenchCatalogue, MatchesBenchmarkJson) {
  std::ifstream in(MOBIBENCH_SPEC);
  ASSERT_TRUE(in) << "cannot read " << MOBIBENCH_SPEC;
  std::stringstream text;
  text << in.rdbuf();
  const auto spec = mobi::util::json::parse(text.str());
  const auto check = [&](const char* key, const std::vector<MetricDef>& defs) {
    const auto& listed = spec.at(key).arr();
    ASSERT_EQ(listed.size(), defs.size()) << key;
    for (std::size_t i = 0; i < defs.size(); ++i) {
      EXPECT_EQ(listed[i].at("name").str(), defs[i].name) << key;
      EXPECT_EQ(listed[i].at("unit").str(), defs[i].unit) << key;
    }
  };
  check("end_to_end", end_to_end_metrics());
  check("per_layer", per_layer_metrics());
  std::vector<std::string> workloads;
  for (const auto& w : spec.at("workloads").arr()) {
    workloads.push_back(w.at("name").str());
  }
  EXPECT_EQ(workloads, workload_names());
}

TEST(MobibenchRun, EveryEndToEndMetricPresentAndNonZero) {
  for (const WorkloadId id : kAll) {
    const Workload w = tiny(id);
    const RunReport report = run_e2e(w, tiny_options());
    EXPECT_TRUE(report.correct) << w.name << ": " << report.error;
    EXPECT_EQ(report.failed, 0u) << w.name;
    EXPECT_GE(report.attempted, 4u) << w.name;
    for (const MetricDef& def : end_to_end_metrics()) {
      ASSERT_TRUE(report.metrics.has(def.name)) << w.name << " " << def.name;
      const double v = report.metrics.get(def.name);
      EXPECT_TRUE(std::isfinite(v)) << w.name << " " << def.name;
      EXPECT_GT(v, 0.0) << w.name << " " << def.name;
    }
  }
}

TEST(MobibenchRun, TracedRunReportsEveryLayerItExercises) {
  for (const WorkloadId id : kAll) {
    const Workload w = tiny(id);
    const RunReport report = run_traced(w, tiny_options());
    EXPECT_TRUE(report.correct) << w.name << ": " << report.error;
    for (const MetricDef& def : per_layer_metrics()) {
      ASSERT_TRUE(report.metrics.has(def.name)) << w.name << " " << def.name;
      EXPECT_TRUE(std::isfinite(report.metrics.get(def.name)))
          << w.name << " " << def.name;
    }
    for (const std::string& name : exercised(id)) {
      EXPECT_GT(report.metrics.get(name), 0.0) << w.name << " " << name;
    }
  }
}

TEST(MobibenchRun, OnlyPooledWorkloadsGetAPool) {
  EXPECT_FALSE(tiny(WorkloadId::kStationHot).pooled);
  EXPECT_TRUE(tiny(WorkloadId::kFleetSkewed).pooled);
  EXPECT_FALSE(tiny(WorkloadId::kFleetMobile).pooled);
  EXPECT_TRUE(tiny(WorkloadId::kCoopWrites).pooled);
  const std::size_t cpus = std::max(1u, std::thread::hardware_concurrency());
  for (const WorkloadId id : kAll) {
    const Workload w = tiny(id);
    const RunReport report = run_e2e(w, tiny_options(3));
    if (w.pooled) {
      EXPECT_GE(report.pool_workers, 1u) << w.name;
      EXPECT_LE(report.pool_workers, std::min<std::size_t>(
                                         3, std::max<std::size_t>(1, cpus - 1)))
          << w.name;
    } else {
      EXPECT_EQ(report.pool_workers, 0u) << w.name;
    }
  }
}

TEST(MobibenchRun, SimMetricsRepeatAcrossRunsAndPoolSizes) {
  const char* const sim[] = {"avg_score", "units_per_request", "served_ok_frac"};
  for (const WorkloadId id : kAll) {
    const Workload w = tiny(id);
    const RunReport first = run_e2e(w, tiny_options(3));
    const RunReport second = run_e2e(w, tiny_options(3));
    const RunReport serial = run_e2e(w, tiny_options(1));
    for (const char* name : sim) {
      // Bit-for-bit: EXPECT_EQ on doubles is exact.
      EXPECT_EQ(first.metrics.get(name), second.metrics.get(name))
          << w.name << " " << name;
      EXPECT_EQ(first.metrics.get(name), serial.metrics.get(name))
          << w.name << " " << name;
    }
    // Pool 1 vs 3 at the level of every simulated total.
    mobi::util::ThreadPool one(1), three(3);
    EXPECT_EQ(Totals::mismatch(run_entry_point(w, &one).totals,
                               run_entry_point(w, &three).totals),
              "")
        << w.name;
  }
}

TEST(MobibenchRun, SeedChangesTheInputs) {
  for (const WorkloadId id : kAll) {
    EXPECT_NE(Totals::mismatch(run_entry_point(tiny(id, 1), nullptr).totals,
                               run_entry_point(tiny(id, 2), nullptr).totals),
              "")
        << tiny(id).name;
  }
}

TEST(MobibenchRun, CorruptedReplayTotalFailsTheRun) {
  for (const WorkloadId id : kAll) {
    RunOptions options = tiny_options();
    options.corrupt_total = true;
    const RunReport report = run_traced(tiny(id), options);
    EXPECT_FALSE(report.correct) << tiny(id).name;
    EXPECT_GT(report.failed, 0u) << tiny(id).name;
    EXPECT_NE(report.error.find("diverged"), std::string::npos) << report.error;
  }
}

TEST(MobibenchRun, CorruptedRepetitionTotalFailsTheWholeRun) {
  for (const WorkloadId id : kAll) {
    RunOptions options = tiny_options();
    options.corrupt_total = true;
    const RunReport report = run_e2e(tiny(id), options);
    EXPECT_FALSE(report.correct) << tiny(id).name;
    EXPECT_GT(report.failed, 0u) << tiny(id).name;
    EXPECT_NE(report.error.find("diverged"), std::string::npos) << report.error;
    // A run that fails its output check counts as wholly failed.
    EXPECT_EQ(report.metrics.get("served_ok_frac"), 0.0) << tiny(id).name;
  }
}

TEST(MobibenchRun, TotalsMismatchNamesTheField) {
  Totals a, b;
  a.add("requests", 10.0);
  a.add("score_sum", 0.5);
  b = a;
  EXPECT_EQ(Totals::mismatch(a, b), "");
  b.fields[1].second = std::nextafter(0.5, 1.0);
  EXPECT_EQ(Totals::mismatch(a, b).rfind("score_sum", 0), 0u);
}

int exit_code(const std::string& args) {
  const std::string cmd =
      std::string(MOBIBENCH_BIN) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(MobibenchCli, UsageErrorsExitTwo) {
  EXPECT_EQ(exit_code(""), 2);
  EXPECT_EQ(exit_code("--workload nope --seed 1 --seconds 1 --trace 0"), 2);
  EXPECT_EQ(exit_code("--workload station_hot --seed 1 --seconds 1 --trace 2"), 2);
  EXPECT_EQ(exit_code("--workload station_hot --seed -1 --seconds 1 --trace 0"), 2);
  EXPECT_EQ(exit_code("--workload station_hot --seed 1 --seconds 0 --trace 0"), 2);
  EXPECT_EQ(exit_code("--workload station_hot --seed 1 --seconds 1 --trace 0 --bogus 1"), 2);
  EXPECT_EQ(exit_code("--workload station_hot --seed 1 --seconds 1 --trace 0 --pool 3"), 2);
  EXPECT_EQ(exit_code("--workload station_hot --seed 1 --seconds 1"), 2);
  EXPECT_EQ(exit_code("--workload station_hot --seed x --seconds 1 --trace 0"), 2);
}

TEST(MobibenchCli, ShortRunExitsZero) {
  EXPECT_EQ(exit_code("--workload coop_writes --seed 3 --seconds 1 --trace 1"), 0);
}

}  // namespace
}  // namespace mobibench
