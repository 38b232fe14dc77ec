// Substrate baseline: (1, m) broadcast indexing — access latency vs
// tuning time (energy) as the number of interleaved index copies varies.
// Reproduces the classic shape: latency is U-shaped in m with its minimum
// at m* = sqrt(D/I), while tuning time is flat and tiny compared with the
// unindexed broadcast where clients must listen for the whole wait.
#include <iostream>

#include "bench_common.hpp"
#include "broadcast/indexing.hpp"

static int bench_main(int argc, char** argv) {
  using namespace mobi;
  const util::Flags flags(argc, argv);
  const std::size_t data_slots = std::size_t(flags.get_int("data", 2000));
  const std::size_t index_slots = std::size_t(flags.get_int("index", 20));

  util::Table table({"index copies (m)", "cycle length",
                     "expected latency (slots)", "tuning time (slots)"});
  const std::size_t best_m = broadcast::optimal_index_copies(data_slots,
                                                             index_slots);
  for (std::size_t m : {std::size_t(1), std::size_t(2), std::size_t(5),
                        best_m, std::size_t(25), std::size_t(50),
                        std::size_t(100)}) {
    broadcast::IndexedBroadcastConfig config;
    config.data_slots = data_slots;
    config.index_slots = index_slots;
    config.index_copies = m;
    table.add_row({(long long)(m), (long long)(broadcast::cycle_length(config)),
                   broadcast::expected_access_latency(config),
                   broadcast::expected_tuning_time(config)});
  }
  bench::emit(flags,
              "(1, m) indexing on air: D = " + std::to_string(data_slots) +
                  ", I = " + std::to_string(index_slots) +
                  ", optimal m = " + std::to_string(best_m),
              "indexing", table);
  std::cout << "Unindexed broadcast for comparison: latency = tuning = "
            << broadcast::unindexed_access_latency(data_slots, 1)
            << " slots — indexing trades a slightly longer wait for a ~"
            << long(broadcast::unindexed_access_latency(data_slots, 1) /
                    (1.0 + double(index_slots) + 1.0))
            << "x cut in listening energy.\n";
  return 0;
}

int main(int argc, char** argv) {
  return mobi::util::guarded_main(argc, argv, bench_main);
}
