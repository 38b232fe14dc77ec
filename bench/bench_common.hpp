// Shared helpers for the figure/table reproduction binaries.
#pragma once

#include <iostream>
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

}  // namespace mobi::bench
