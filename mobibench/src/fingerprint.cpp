#include "fingerprint.hpp"

#include <fstream>
#include <sstream>
#include <thread>

#include "report.hpp"

#ifndef MOBIBENCH_BUILD_TYPE
#define MOBIBENCH_BUILD_TYPE ""
#endif
#ifndef MOBIBENCH_CXX_FLAGS
#define MOBIBENCH_CXX_FLAGS ""
#endif
#ifndef MOBIBENCH_COMPILER
#define MOBIBENCH_COMPILER "unknown"
#endif

namespace mobibench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(" \t", colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

Fingerprint machine_fingerprint() {
  Fingerprint f;
  f.nproc = std::thread::hardware_concurrency();
  f.cpu_model = cpu_model();
  f.compiler = MOBIBENCH_COMPILER;
  f.flags = MOBIBENCH_CXX_FLAGS;
  f.build_type = MOBIBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
  f.optimised = true;
#endif
  return f;
}

std::string fingerprint_json(const Fingerprint& f) {
  std::ostringstream out;
  out << "{\"nproc\": " << f.nproc
      << ", \"cpu_model\": " << json_string(f.cpu_model)
      << ", \"compiler\": " << json_string(f.compiler)
      << ", \"flags\": " << json_string(f.flags)
      << ", \"build_type\": " << json_string(f.build_type)
      << ", \"optimised\": " << (f.optimised ? "true" : "false") << "}";
  return out.str();
}

}  // namespace mobibench
