// Long-horizon soak: windowed runs at a ramped fault rate, trending the
// resilience (fault.*), scale-out (mc.*) and sim-time latency (lat.*)
// series window over window. Expected shape: graceful degradation — as
// the injected fault rate climbs, failed fetches / degraded serves /
// ticks-to-serve trend up and recency trends down, with no stall or
// cliff to zero. With --out=<dir> the full windowed series ship as
// <dir>/soak_metrics.json (schema mobicache.soak.v1); tools/metrics_diff
// compares that artifact against the checked-in golden as the CI gate.
//
// Online observability (ISSUE 10):
//   --obs-windows=N  N-tick tumbling WindowAggregator on every leg; with
//                    --out, frames ship as <dir>/soak_windows.json
//                    (schema mobicache.windows.v1, gated against
//                    results/golden_windows.json with the wall-clock
//                    prof.phase.*.wall_ns* columns masked).
//   --profile        driver-thread PhaseProfiler across all legs; with
//                    --flame=<path>, collapsed stacks land there
//                    (pipe through flamegraph.pl).
//   --slo            attach exp::default_soak_slos() (needs
//                    --obs-windows); alert totals print below the table
//                    and stream as slo_alert events into --trace-jsonl.
// Every sim-time series in soak_metrics.json is bit-identical with all
// three switches on or off — observation is read-only.
//
// Invalid flags (a malformed value, or --slo without --obs-windows) print
// the message to stderr and exit 2, matching the tools' 0/1/2 convention.
#include <iostream>
#include <optional>
#include <stdexcept>

#include "bench_common.hpp"
#include "exp/soak.hpp"
#include "util/thread_pool.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);

  exp::SoakConfig config;
  config.seed = std::uint64_t(flags.get_int("seed", 42));
  config.windows = std::size_t(flags.get_int("windows", int(config.windows)));
  config.cell_count =
      std::size_t(flags.get_int("cells", int(config.cell_count)));
  if (flags.get_bool("quick", false)) {
    config.windows = 4;
    config.window_ticks = 60;
    config.window_warmup = 15;
    config.base.object_count = 100;
    config.base.requests_per_tick = 30;
    config.cell_count = 2;
    config.cell.object_count = 80;
    config.cell.client_count = 24;
  }

  // Optional streamed trace: every station-leg event across all windows
  // lands in this JSONL file; the soak metrics stay bit-identical to a
  // sinkless run (dual-write), which the CI streamed-soak leg pins by
  // diffing against the buffered golden.
  config.trace_jsonl = flags.get_string("trace-jsonl", "");

  config.obs_window_ticks = sim::Tick(flags.get_int("obs-windows", 0));
  config.profile = flags.get_bool("profile", false);
  if (flags.get_bool("slo", false)) config.slos = exp::default_soak_slos();

  const int threads = int(flags.get_int("threads", 0));
  std::optional<util::ThreadPool> pool;
  if (threads > 0) pool.emplace(std::size_t(threads));

  const exp::SoakResult result =
      exp::run_soak(config, pool ? &*pool : nullptr);

  util::Table table({"window", "fault rate", "score", "recency",
                     "failed fetches", "degraded", "ticks-to-serve",
                     "queue wait", "mc score", "trace events"});
  for (std::size_t w = 0; w < result.windows; ++w) {
    table.add_row(
        {(long long)(w), result.at("fault_rate")[w], result.at("score.avg")[w],
         result.at("recency.avg")[w],
         (long long)(result.at("failed_fetches")[w]),
         (long long)(result.at("degraded_serves")[w]),
         result.at("lat.ticks_to_serve.mean")[w],
         result.at("lat.queue_wait.mean")[w],
         config.cell_count ? result.at("mc.average_score")[w] : 0.0,
         (long long)(result.at("trace.events")[w])});
  }
  bench::emit(flags, "Soak: windowed trends under a ramped fault rate",
              "soak", table);

  if (!config.slos.empty()) {
    std::cout << "SLO: " << result.slo_evaluations << " evaluations, "
              << result.slo_breaches << " breaches, " << result.slo_alerts
              << " alerts\n";
  }

  const std::string dir = flags.get_string("out", "");
  if (!dir.empty()) {
    const std::string path = dir + "/soak_metrics.json";
    util::write_file(path, result.to_json());
    std::cout << "(wrote " << path << ": " << result.windows << " windows x "
              << result.series.size() << " series)\n";
    if (config.obs_window_ticks > 0) {
      const std::string wpath = dir + "/soak_windows.json";
      util::write_file(wpath, result.windows_to_json());
      std::cout << "(wrote " << wpath << ": " << result.window_frames
                << " frames x " << result.window_series.size()
                << " columns)\n";
    }
  }
  const std::string flame = flags.get_string("flame", "");
  if (!flame.empty()) {
    util::write_file(flame, result.flamegraph);
    std::cout << "(wrote " << flame << ": collapsed stacks, feed to "
              << "flamegraph.pl)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, run);
}
