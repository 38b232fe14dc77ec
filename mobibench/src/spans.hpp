// Benchmark-side spans: name, start, end and the span that caused it,
// recorded around each call into a library layer and kept in memory.
// Single-threaded: a worker thread records into its own log (or its own
// per-shard slot) and the main thread merges after the join.
#pragma once

#include <cstdint>
#include <vector>

namespace mobibench {

enum class SpanName : std::uint8_t {
  kReplay,        // one traced replay of a workload (root)
  kNextBatch,     // workload::RequestGenerator::next_batch_into
  kApplyUpdates,  // core::BaseStation::apply_updates
  kProcessBatch,  // core::BaseStation::process_batch
  kDispatch,      // shards handed to the pool and joined
  kShard,         // client::run_cell for one shard, on a worker
  kFleetStep,     // exp::MobilityFleet::step
  kCoopTick,      // coop::CoopCluster::tick, on a worker
};

struct Span {
  SpanName name = SpanName::kReplay;
  std::int32_t parent = -1;  // index in the same log; -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double ns() const noexcept { return double(end_ns - start_ns); }
};

/// Nanoseconds on the steady clock.
std::int64_t now_ns() noexcept;

class SpanLog {
 public:
  /// Opens a span under the innermost open one.
  void open(SpanName name);
  void close();
  /// Records an already-timed span (e.g. one a worker measured) under
  /// the innermost open span.
  void add(SpanName name, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Durations of every `name` span, divided by `unit_ns`.
  std::vector<double> durations(SpanName name, double unit_ns = 1.0) const;
  double total_ns(SpanName name) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, SpanName name) : log_(log) { log_.open(name); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() { log_.close(); }

 private:
  SpanLog& log_;
};

}  // namespace mobibench
