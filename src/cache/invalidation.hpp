// Invalidation reports (related work, paper §5 [8]: Barbara & Imielinski,
// "Sleepers and Workaholics").
//
// In the paper's base model the base station learns of every server
// update instantly. Realistically, servers broadcast periodic
// *invalidation reports* listing the objects updated in a recent window;
// a cache that has been listening continuously applies each report to
// decay/invalidate affected entries, while a cache that slept through
// more than the report's window can no longer trust anything it holds.
// This module implements report generation on the server side, report
// application on the cache side, and the sleeper rule. The listener works
// against any cache-like target through InvalidationSink (adapters for
// Cache and BoundedCache are provided).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cache/cache.hpp"
#include "cache/replacement.hpp"
#include "object/object.hpp"
#include "sim/tick.hpp"

namespace mobi::cache {

struct InvalidationReport {
  sim::Tick window_start = 0;  // report covers updates in [start, end)
  sim::Tick window_end = 0;
  /// Objects updated during the window with their update multiplicity
  /// (an object updated k times in the window appears once with count k),
  /// in id order.
  struct Item {
    object::ObjectId object = 0;
    std::uint32_t updates = 0;
  };
  std::vector<Item> items;
};

/// Server-side: records updates as they happen and cuts periodic reports.
class InvalidationLog {
 public:
  explicit InvalidationLog(std::size_t object_count);

  void record_update(object::ObjectId id, sim::Tick tick);

  /// Builds the report covering [from, to); items appear in id order.
  InvalidationReport make_report(sim::Tick from, sim::Tick to) const;

  /// make_report into a caller-owned report (cleared first). Reusing one
  /// scratch report per reporting site makes the periodic-report tick
  /// allocation-free once `out.items` reaches its high-water capacity —
  /// the mobility fleet's steady state depends on this.
  void make_report_into(sim::Tick from, sim::Tick to,
                        InvalidationReport& out) const;

  /// Drops records older than `before` (bounded memory for long runs).
  void prune(sim::Tick before);

  std::size_t recorded_updates() const noexcept { return total_; }

 private:
  std::size_t object_count_;
  // Per-object sorted update ticks; simulations are append-only in time.
  std::vector<std::vector<sim::Tick>> updates_;
  std::size_t total_ = 0;
};

/// What a listener needs from the cache it maintains, one call per report.
struct InvalidationSink {
  /// Applies one missed update per reported update to every cached entry
  /// the report names; returns the number of decays applied.
  std::function<int(const InvalidationReport&)> decay_reported;
  /// Drops every cached entry (the sleeper rule).
  std::function<void()> drop_all;
};

/// The Cache adapter walks the report's items; the BoundedCache adapter
/// walks its residents and binary-searches the id-ordered items, so a
/// small cache pays for what it holds, not for the report's length.
/// Decays of different objects are independent, so both orders leave the
/// same state.
InvalidationSink make_sink(Cache& cache);
InvalidationSink make_sink(BoundedCache& cache);

/// Cache-side listener. Tracks the last report heard; applies decay for
/// each reported update. If a gap is detected (the new report's window
/// does not start where the previous ended), the listener must assume it
/// missed updates and — per the sleeper rule — drops every cached entry.
class InvalidationListener {
 public:
  explicit InvalidationListener(Cache& cache);
  explicit InvalidationListener(BoundedCache& cache);
  explicit InvalidationListener(InvalidationSink sink);

  /// Applies a report. Returns the number of cache entries decayed, or
  /// -1 if the sleeper rule fired and the cache was dropped.
  int apply(const InvalidationReport& report);

  sim::Tick last_heard_end() const noexcept { return last_end_; }
  std::uint64_t reports_applied() const noexcept { return applied_; }
  std::uint64_t cache_drops() const noexcept { return drops_; }

 private:
  InvalidationSink sink_;
  sim::Tick last_end_ = 0;
  bool heard_any_ = false;
  std::uint64_t applied_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace mobi::cache
