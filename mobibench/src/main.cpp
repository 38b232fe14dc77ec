// mobibench: end-to-end (--trace 0) and per-layer (--trace 1) benchmark
// of one mobicache workload.
//
//   mobibench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints a record line (machine fingerprint, run settings, raw samples)
// and, last, the result line {"correct", "attempted", "failed",
// "metrics"}. Exit codes: 0 ok, 1 an output check failed (the result
// line says correct: false) or the run itself failed, 2 usage error.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "e2e.hpp"
#include "fingerprint.hpp"
#include "report.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

constexpr const char* kUsage =
    "usage: mobibench --workload NAME --seed N --seconds S --trace 0|1\n";

std::uint64_t parse_uint(const std::string& flag, const std::string& text,
                         std::uint64_t lo, std::uint64_t hi) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (text.empty() || used != text.size() || text[0] == '-' || value < lo ||
      value > hi) {
    throw UsageError("--" + flag + " expects a whole number in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "], got '" + text + "'");
  }
  return value;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  static const char* const known[] = {"workload", "seed", "seconds", "trace"};
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw UsageError("unexpected argument '" + arg + "'");
    arg = arg.substr(2);
    std::string value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw UsageError("--" + arg + " needs a value");
    }
    bool ok = false;
    for (const char* k : known) ok = ok || arg == k;
    if (!ok) throw UsageError("unknown flag --" + arg);
    if (flags.count(arg)) throw UsageError("--" + arg + " given twice");
    flags[arg] = value;
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (!flags.count(required)) {
      throw UsageError(std::string("missing --") + required);
    }
  }
  return flags;
}

int run(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv);
  const auto id = mobibench::parse_workload(flags.at("workload"));
  if (!id) {
    std::string names;
    for (const auto& n : mobibench::workload_names()) names += " " + n;
    throw UsageError("unknown workload '" + flags.at("workload") +
                     "'; choose one of:" + names);
  }
  const std::uint64_t seed =
      parse_uint("seed", flags.at("seed"), 0, UINT64_MAX);
  const std::uint64_t seconds = parse_uint("seconds", flags.at("seconds"), 1, 600);
  const bool traced = parse_uint("trace", flags.at("trace"), 0, 1) == 1;
  mobibench::RunOptions options;
  options.seconds = double(seconds);

  const mobibench::Fingerprint fingerprint = mobibench::machine_fingerprint();
  if (!fingerprint.optimised) {
    std::cerr << "mobibench: warning: built without optimisation (build type '"
              << fingerprint.build_type
              << "'); timings are not comparable to an optimised build\n";
  }
  const mobibench::Workload workload =
      mobibench::make_workload(*id, seed, mobibench::Scale::kFull);
  const mobibench::RunReport report =
      traced ? mobibench::run_traced(workload, options)
             : mobibench::run_e2e(workload, options);

  std::cout << "{\"record\": \"mobibench.v1\", \"workload\": "
            << mobibench::json_string(workload.name) << ", \"seed\": " << seed
            << ", \"seconds\": " << seconds
            << ", \"trace\": " << (traced ? 1 : 0)
            << ", \"pool\": " << report.pool_workers
            << ", \"fingerprint\": "
            << mobibench::fingerprint_json(fingerprint) << ", \"samples\": {";
  bool first = true;
  for (const auto& [name, value] : report.samples.items()) {
    std::cout << (first ? "" : ", ") << mobibench::json_string(name) << ": "
              << mobibench::json_number(value);
    first = false;
  }
  std::cout << "}, \"error\": " << mobibench::json_string(report.error)
            << "}\n";
  std::cout << mobibench::result_line(
                   report.correct, report.attempted, report.failed,
                   report.metrics,
                   traced ? mobibench::per_layer_metrics()
                          : mobibench::end_to_end_metrics())
            << std::endl;
  if (!report.correct) {
    std::cerr << "mobibench: output check failed: " << report.error << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "mobibench: " << e.what() << "\n" << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "mobibench: run failed: " << e.what() << "\n";
    return 1;
  }
}
