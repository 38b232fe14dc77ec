// Machine fingerprint stamped on every benchmark record: hardware
// threads, CPU model, compiler, flags and build type. Numbers from two
// fingerprints that differ are not comparable.
#pragma once

#include <string>

namespace mobibench {

struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string flags;
  std::string build_type;
  /// True when this code was compiled with optimisation on.
  bool optimised = false;
};

Fingerprint machine_fingerprint();

/// The fingerprint as one JSON object.
std::string fingerprint_json(const Fingerprint& fingerprint);

}  // namespace mobibench
