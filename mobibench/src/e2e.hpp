// The untraced, end-to-end run: closed-loop repetitions of one workload
// through its public entry point, each paired with its set-up twin so
// set-up time and measured-tick throughput come apart.
#pragma once

#include <sched.h>

#include <cstddef>
#include <optional>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace mobibench {

struct RunOptions {
  /// Measure for at least this long (after one untimed warm pair).
  double seconds = 10.0;
  /// Pool workers for multi-cell workloads; 0 runs shards serially.
  std::size_t pool_threads = 3;
  /// Measure at least this many repetitions (end-to-end: with a measured
  /// window), however long they take.
  std::size_t min_reps = 3;
  /// Test hook: perturb one checked simulated total (a repetition of the
  /// end-to-end run, the replay of the traced run) so the output check
  /// must fail.
  bool corrupt_total = false;
};

/// What a run prints: the result-line fields plus raw samples for the
/// record line.
struct RunReport {
  bool correct = true;
  std::string error;          // first failed output check
  std::size_t attempted = 0;  // entry-point runs made
  std::size_t failed = 0;     // runs that failed their output check
  std::size_t pool_workers = 0;  // 0: the run had no pool
  MetricValues metrics;
  MetricValues samples;       // extra diagnostics for the record line

  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

RunReport run_e2e(const Workload& workload, const RunOptions& options);

/// One entry-point run with its wall and process CPU time. `pool` may
/// be null (serial shards, or the station workload).
struct Timed {
  RunOutcome outcome;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};
Timed timed_run(const Workload& workload, mobi::util::ThreadPool* pool);

/// Pins the calling thread of a single-threaded (unpooled) workload, for
/// one repetition, to CPU number `rep` (mod count) of its allowed set,
/// and restores the set when it goes out of scope. Both timed runs of a
/// repetition (the set-up twin and the full job, or the untraced run and
/// its replay) then run on the same CPU, so their difference never mixes
/// two CPUs, and successive repetitions visit every allowed CPU in turn.
/// Unpinned, a run spends its whole time wherever the scheduler first put
/// it, and a busy hyperthread sibling sets its speed. Pooled workloads
/// are not pinned.
class RepetitionCpu {
 public:
  RepetitionCpu(const Workload& workload, std::size_t rep);
  RepetitionCpu(const RepetitionCpu&) = delete;
  RepetitionCpu& operator=(const RepetitionCpu&) = delete;
  ~RepetitionCpu();

 private:
  cpu_set_t allowed_;
  bool pinned_ = false;
};

/// The process's one worker pool, built once and reused by every
/// repetition (a fresh pool per run would hand each run new threads and
/// new allocator arenas, which makes both time and peak memory depend on
/// thread placement). `build_s` is its construction time, which set-up
/// time includes. Only pooled workloads get one, with `threads` workers
/// but never more than one fewer than the allowed CPUs (at least one),
/// so workers and driver fit on the machine.
struct Pool {
  Pool(const Workload& workload, std::size_t threads);
  mobi::util::ThreadPool* get() noexcept { return pool ? &*pool : nullptr; }
  std::size_t workers() const noexcept { return pool ? pool->size() : 0; }

  std::optional<mobi::util::ThreadPool> pool;
  double build_s = 0.0;
};

/// Seconds on the steady clock, and process CPU seconds (all threads).
double wall_now();
double cpu_now();
/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace mobibench
