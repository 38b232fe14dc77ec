// Figure 3 (paper §3.2): average recency of data delivered to clients as
// the per-tick download budget grows, on-demand vs asynchronous, at low
// (update every 10 ticks) and high (every tick) update frequency. Paper
// setup: 500 unit objects, uniform access, 100 requests/tick, warm 50,
// measure 100, decay x' = C/(1/x + 1). Expected shape: on-demand >= async
// at every budget; on-demand -> 1.0 as the budget reaches 100; the gap is
// larger at high update frequency, where async performs poorly.
#include <iostream>

#include "bench_common.hpp"
#include "exp/fig3.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);

  for (const auto& [label, period] :
       {std::pair<const char*, mobi::sim::Tick>{"low update frequency (every 10 ticks)", 10},
        std::pair<const char*, mobi::sim::Tick>{"high update frequency (every tick)", 1}}) {
    exp::Fig3Config config;
    config.update_period = period;
    config.seed = std::uint64_t(flags.get_int("seed", 42));
    if (flags.get_bool("quick", false)) {
      config.object_count = 100;
      config.requests_per_tick = 40;
      config.warmup_ticks = 20;
      config.measure_ticks = 40;
      config.budgets = {1, 10, 20, 40};
    }
    const auto result = exp::run_fig3(config);
    util::Table table({"downloaded/tick", "on-demand avg recency",
                       "async avg recency"});
    for (const auto& point : result.points) {
      table.add_row({(long long)(point.budget), point.on_demand_recency,
                     point.async_recency});
    }
    bench::emit(flags, std::string("Figure 3: ") + label,
                period == 10 ? "fig3_low" : "fig3_high", table);

    // Per-tick observability for one representative point (on-demand at
    // the median budget) alongside the aggregate curve.
    if (flags.has("out")) {
      obs::MetricsRegistry registry;
      obs::SeriesRecorder recorder(registry);
      const object::Units budget = config.budgets[config.budgets.size() / 2];
      exp::run_fig3_once(config, budget, /*on_demand=*/true, &recorder);
      bench::emit_metrics(flags, period == 10 ? "fig3_low" : "fig3_high",
                          recorder);
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
