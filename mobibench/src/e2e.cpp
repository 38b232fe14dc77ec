#include "e2e.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>

namespace mobibench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so a process started by a larger parent (a Python wrapper)
  // would report the parent's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

std::size_t allowed_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 1;
  return std::size_t(std::max(1, CPU_COUNT(&allowed)));
}

}  // namespace

RepetitionCpu::RepetitionCpu(const Workload& workload, std::size_t rep) {
  if (workload.pooled) return;
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
  std::size_t pick = rep % std::size_t(std::max(1, CPU_COUNT(&allowed_)));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed_) || pick-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    return;
  }
}

RepetitionCpu::~RepetitionCpu() {
  if (pinned_) sched_setaffinity(0, sizeof allowed_, &allowed_);
}

Timed timed_run(const Workload& workload, mobi::util::ThreadPool* pool) {
  Timed t;
  const double wall0 = wall_now();
  const double cpu0 = cpu_now();
  t.outcome = run_entry_point(workload, pool);
  t.wall_s = wall_now() - wall0;
  t.cpu_s = cpu_now() - cpu0;
  return t;
}

Pool::Pool(const Workload& workload, std::size_t threads) {
  if (!workload.pooled || threads == 0) return;
  threads = std::min(threads, std::max<std::size_t>(1, allowed_cpus() - 1));
  const double start = wall_now();
  pool.emplace(threads);
  build_s = wall_now() - start;
}

namespace {

void check_outcome(RunReport& report, const RunOutcome& outcome,
                   const RunOutcome& reference, const char* what) {
  const std::string diff = Totals::mismatch(reference.totals, outcome.totals);
  if (!diff.empty()) {
    ++report.failed;
    report.fail(std::string(what) + " run diverged from the first: " + diff);
  }
}

}  // namespace

RunReport run_e2e(const Workload& workload, const RunOptions& options) {
  RunReport report;
  const Workload setup = setup_only(workload);
  Pool pool(workload, options.pool_threads);
  report.pool_workers = pool.workers();

  // Untimed warm pair: faults in the heap and gives the reference totals.
  const RunOutcome ref_setup = timed_run(setup, pool.get()).outcome;
  const RunOutcome ref_full = timed_run(workload, pool.get()).outcome;
  report.attempted += 2;
  const std::size_t measured_requests =
      ref_full.requests > ref_setup.requests
          ? ref_full.requests - ref_setup.requests
          : 0;
  if (measured_requests == 0) {
    report.fail("measured window completed no requests");
  }
  if (!(ref_full.avg_score > 0.0 && ref_full.avg_score <= 1.0)) {
    report.fail("average score outside (0, 1]");
  }
  if (!std::isfinite(ref_full.units_per_request) ||
      ref_full.units_per_request < 0.0) {
    report.fail("units per request not a finite non-negative number");
  }
  if (ref_full.failed_requests > ref_full.requests) {
    report.fail("more failed requests than requests");
  }

  std::vector<double> setup_s, requests_per_s, cpu_per_mreq;
  const double start = wall_now();
  // Counts repetitions with a measured window: at tiny sizes timer noise
  // can make a full job finish faster than its set-up twin.
  while (requests_per_s.size() < options.min_reps ||
         wall_now() - start < options.seconds) {
    const RepetitionCpu cpu(workload, setup_s.size());
    const Timed s = timed_run(setup, pool.get());
    Timed f = timed_run(workload, pool.get());
    report.attempted += 2;
    if (options.corrupt_total && setup_s.empty() &&
        !f.outcome.totals.fields.empty()) {
      f.outcome.totals.fields.front().second += 1.0;
    }
    check_outcome(report, s.outcome, ref_setup, "set-up");
    check_outcome(report, f.outcome, ref_full, "full");
    setup_s.push_back(pool.build_s + s.wall_s);
    const double measured_wall = f.wall_s - s.wall_s;
    const double measured_cpu = f.cpu_s - s.cpu_s;
    if (measured_wall > 0.0) {
      requests_per_s.push_back(double(measured_requests) / measured_wall);
    }
    cpu_per_mreq.push_back(measured_cpu / double(measured_requests) * 1e6);
  }
  if (requests_per_s.empty()) report.fail("no repetition had a measured window");

  MetricValues& m = report.metrics;
  m.set("requests_per_s", median(requests_per_s));
  m.set("setup_s", median(setup_s));
  m.set("peak_rss_mb", peak_rss_mb());
  m.set("cpu_s_per_mreq", median(cpu_per_mreq));
  m.set("avg_score", ref_full.avg_score);
  m.set("units_per_request", ref_full.units_per_request);
  // A run that fails its output check counts as wholly failed.
  m.set("served_ok_frac",
        report.correct && ref_full.requests
            ? 1.0 - double(ref_full.failed_requests) / double(ref_full.requests)
            : 0.0);

  MetricValues& x = report.samples;
  x.set("reps", double(setup_s.size()));
  x.set("measured_requests", double(measured_requests));
  x.set("requests_per_s.p25", quantile(requests_per_s, 0.25));
  x.set("requests_per_s.p75", quantile(requests_per_s, 0.75));
  x.set("setup_s.p25", quantile(setup_s, 0.25));
  x.set("setup_s.p75", quantile(setup_s, 0.75));
  x.set("cpu_s_per_mreq.p25", quantile(cpu_per_mreq, 0.25));
  x.set("cpu_s_per_mreq.p75", quantile(cpu_per_mreq, 0.75));
  x.set("failed_requests", double(ref_full.failed_requests));
  x.set("requests", double(ref_full.requests));
  return report;
}

}  // namespace mobibench
