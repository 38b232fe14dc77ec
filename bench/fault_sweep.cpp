// Resilience: recency-vs-fault-rate curves for the request-driven
// knapsack policy vs the asynchronous round-robin baseline, with the full
// fault cocktail enabled (fetch failures, congestion slowdowns, downlink
// drops, per-server outages) and a 3-attempt retry budget. Expected
// shape: both curves degrade gracefully (no stalls, no cliffs to zero)
// and the on-demand policy — which retries exactly the objects clients
// still want — holds a recency edge over the baseline as faults mount.
#include <iostream>

#include "bench_common.hpp"
#include "exp/fault_sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);

  exp::FaultSweepConfig config;
  config.base.seed = std::uint64_t(flags.get_int("seed", 42));
  if (flags.get_bool("quick", false)) {
    config.base.object_count = 100;
    config.base.requests_per_tick = 30;
    config.base.warmup_ticks = 20;
    config.base.measure_ticks = 60;
    config.fault_rates = {0.0, 0.1, 0.3};
  }

  obs::MetricsRegistry registry;
  obs::SeriesRecorder recorder(registry);
  const auto result =
      exp::run_fault_sweep(config, flags.has("out") ? &recorder : nullptr);

  util::Table table({"fault rate", "on-demand recency", "async recency",
                     "on-demand score", "failed fetches", "retries",
                     "degraded serves", "downlink dropped"});
  for (const auto& point : result.points) {
    table.add_row({point.fault_rate, point.on_demand.average_recency,
                   point.async_baseline.average_recency,
                   point.on_demand.average_score,
                   (long long)(point.on_demand.failed_fetches),
                   (long long)(point.on_demand.retries),
                   (long long)(point.on_demand.degraded_serves),
                   (long long)(point.on_demand.downlink_dropped)});
  }
  bench::emit(flags, "Resilience: recency vs injected fault rate",
              "fault_sweep", table);
  if (flags.has("out")) bench::emit_metrics(flags, "fault_sweep", recorder);
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
