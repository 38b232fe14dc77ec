// A minimal command-line flag parser for the bench/example binaries.
// Accepts --name=value and --name value; everything else is a positional.
// guarded_main turns a bad flag value into a one-line message and exit 2.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mobi::util {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  /// True when --name was present (with or without a value).
  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

/// Runs a binary's `main` body. A bad flag or flag value (any
/// std::invalid_argument escaping `body`) prints "<name>: <message>" on
/// stderr and returns 2 — the metrics_diff/metrics_query usage-error code —
/// instead of aborting on an uncaught exception.
int guarded_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace mobi::util
