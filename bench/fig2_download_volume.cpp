// Figure 2 (paper §3.1): amount of data downloaded to provide the most
// recent data to all clients, asynchronous vs on-demand, for varying
// request rates and skew. Paper setup: 500 unit-size objects, updates
// every 5 time units, 100 warmup + 500 measured time units; async bound =
// 50,000 units. Expected shape: on-demand <= async everywhere; savings
// grow with skew (zipf < rank-linear < uniform); the uniform curve
// approaches the async bound as the request rate nears 300-500.
#include <iostream>

#include "bench_common.hpp"
#include "exp/fig2.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);

  exp::Fig2Config config;
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  if (flags.get_bool("quick", false)) {
    config.object_count = 100;
    config.warmup_ticks = 20;
    config.measure_ticks = 100;
    config.request_rates = {0, 25, 50, 100};
  }
  const auto result = exp::run_fig2(config);

  util::Table table({"requests/tick", "asynchronous", "on-demand uniform",
                     "on-demand rank-linear", "on-demand zipf"},
                    0);
  for (std::size_t i = 0; i < config.request_rates.size(); ++i) {
    table.add_row({(long long)(config.request_rates[i]),
                   (long long)(result.async_downloaded),
                   (long long)(result.curves[0].points[i].on_demand_downloaded),
                   (long long)(result.curves[1].points[i].on_demand_downloaded),
                   (long long)(result.curves[2].points[i].on_demand_downloaded)});
  }
  bench::emit(flags,
              "Figure 2: units downloaded in the measure window (" +
                  std::to_string(config.measure_ticks) + " ticks, " +
                  std::to_string(config.object_count) + " objects)",
              "fig2", table);

  // Per-tick observability for one representative point (zipf at the
  // median request rate) alongside the aggregate curves.
  if (flags.has("out")) {
    obs::MetricsRegistry registry;
    obs::SeriesRecorder recorder(registry);
    const std::size_t rate =
        config.request_rates[config.request_rates.size() / 2];
    exp::run_fig2_once(config, exp::AccessPattern::kZipf, rate, &recorder);
    bench::emit_metrics(flags, "fig2", recorder);
  }
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
