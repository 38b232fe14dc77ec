// The traced run: per-layer numbers for one workload.
//
// Each repetition runs the workload untraced through its entry point,
// then re-drives the same inputs through the public per-layer calls with
// a benchmark-side span around each call (and the library's own
// PhaseProfiler where it has one). The replay must reproduce the
// untraced run's simulated totals bit for bit; multi-cell workloads also
// run once with the library's observers attached (exp.* phases), which
// must agree too. The untraced/traced wall-time ratio is the tracing
// overhead.
#pragma once

#include "e2e.hpp"

namespace mobibench {

RunReport run_traced(const Workload& workload, const RunOptions& options);

}  // namespace mobibench
