// Shared helpers for the figure/table reproduction binaries.
#pragma once

#include <iostream>
#include <stdexcept>
#include <string>

#include "obs/recorder.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace mobi::bench {

/// Prints a titled table to stdout and, when --out=<dir> is given, also
/// writes <dir>/<slug>.csv.
inline void emit(const util::Flags& flags, const std::string& title,
                 const std::string& slug, const util::Table& table) {
  std::cout << "== " << title << " ==\n" << table.to_string() << '\n';
  const std::string dir = flags.get_string("out", "");
  if (!dir.empty()) {
    const std::string path = dir + "/" + slug + ".csv";
    util::write_file(path, table.to_csv());
    std::cout << "(wrote " << path << ")\n\n";
  }
}

/// Writes a recorder's per-tick metrics as <dir>/<slug>_metrics.json when
/// --out=<dir> is given (no-op otherwise), so every figure run can ship
/// its observability series next to the CSV it already emits.
inline void emit_metrics(const util::Flags& flags, const std::string& slug,
                         const obs::SeriesRecorder& recorder) {
  const std::string dir = flags.get_string("out", "");
  if (dir.empty()) return;
  const std::string path = dir + "/" + slug + "_metrics.json";
  util::write_file(path, recorder.to_json());
  std::cout << "(wrote " << path << ": " << recorder.samples()
            << " ticks x " << recorder.series_names().size()
            << " series)\n\n";
}

/// Runs a bench's `main` body. A bad flag or flag value (any
/// std::invalid_argument escaping `body`) prints "<name>: <message>" on
/// stderr and returns 2 — the metrics_diff/metrics_query usage-error code —
/// instead of aborting on an uncaught exception.
inline int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::string name = argc > 0 ? argv[0] : "bench";
    name.erase(0, name.find_last_of('/') + 1);
    std::cerr << name << ": " << error.what() << '\n';
    return 2;
  }
}

}  // namespace mobi::bench
