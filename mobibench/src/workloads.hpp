// The four benchmark workloads, their inputs made from the workload seed,
// and one closed-loop run of each through the library's public entry
// points (exp::run_policy_sim / exp::run_multi_cell).
//
// A workload run is a fixed-size batch job: build everything, tick the
// warm-up, tick the measured window. Its "set-up" twin is the same job
// cut off after the warm-up ticks, so (full - set-up) isolates the
// measured ticks without touching the library.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "exp/multi_cell.hpp"
#include "exp/policy_sim.hpp"
#include "util/thread_pool.hpp"

namespace mobibench {

enum class WorkloadId { kStationHot, kFleetSkewed, kFleetMobile, kCoopWrites };

/// kFull is what the benchmark measures; kTiny is the same shape at a
/// size the unit tests can afford.
enum class Scale { kFull, kTiny };

struct Workload {
  WorkloadId id = WorkloadId::kStationHot;
  std::string name;
  /// Station workload: run_policy_sim's config. Multi-cell workloads:
  /// run_multi_cell's config (station stays default).
  mobi::exp::PolicySimConfig station;
  mobi::exp::MultiCellConfig fleet;
  /// Ticks of warm-up that fill the caches before the measured window
  /// (the rest of the configured ticks are measured).
  mobi::sim::Tick warmup_ticks = 0;
  /// Whether runs get the worker pool (otherwise shards run serially on
  /// the driver thread).
  bool pooled = false;

  bool multi_cell() const noexcept { return id != WorkloadId::kStationHot; }
};

const std::vector<std::string>& workload_names();
std::optional<WorkloadId> parse_workload(const std::string& name);

/// Builds the workload's inputs from `seed`: same seed, same inputs.
Workload make_workload(WorkloadId id, std::uint64_t seed, Scale scale);

/// The set-up twin: the same job stopped after its warm-up ticks.
Workload setup_only(const Workload& workload);

/// Simulated totals of one run, as named doubles (integers convert
/// exactly below 2^53). Two runs of the same inputs must agree bit for
/// bit; `mismatch` names the first field that does not.
struct Totals {
  std::vector<std::pair<std::string, double>> fields;

  void add(const std::string& name, double value) {
    fields.emplace_back(name, value);
  }
  /// Empty when `a` and `b` are bit-identical, else a description.
  static std::string mismatch(const Totals& a, const Totals& b);
};

Totals totals_of(const mobi::exp::PolicySimResult& result);
Totals totals_of(const mobi::client::CellResult& result);
Totals totals_of(const mobi::coop::CoopResult& result);

/// What one entry-point call produced.
struct RunOutcome {
  Totals totals;
  /// Requests counted by the entry point (station and coop: measured
  /// window only; sharded fleets: every tick).
  std::size_t requests = 0;
  double avg_score = 0.0;
  double units_per_request = 0.0;
  /// Requests served degraded after a failed fetch, plus (mobility)
  /// payloads lost in flight.
  std::uint64_t failed_requests = 0;
};

/// One run of the workload through its public entry point. `pool` may be
/// null (serial shards); the station workload ignores it.
RunOutcome run_entry_point(const Workload& workload,
                           mobi::util::ThreadPool* pool);

/// Same run with the library's own observers attached (used by the
/// traced run only).
RunOutcome run_entry_point(const Workload& workload,
                           mobi::util::ThreadPool* pool,
                           const mobi::exp::MultiCellObservers& observers);

/// Outcome fields derived from a multi-cell result (shared with the
/// traced replays, which rebuild the same aggregates shard by shard).
RunOutcome outcome_of(const Workload& workload,
                      const mobi::client::CellResult& aggregate,
                      const mobi::exp::MobilityRunStats& mobility);
RunOutcome outcome_of(const mobi::coop::CoopResult& aggregate);

/// Field-wise sums in shard order, matching run_multi_cell's aggregate.
void accumulate(mobi::client::CellResult& into,
                const mobi::client::CellResult& from);
void accumulate(mobi::coop::CoopResult& into, const mobi::coop::CoopResult& from);

}  // namespace mobibench
