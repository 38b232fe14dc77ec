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
// against a Cache or a BoundedCache handed to it with each report.
#pragma once

#include <cstdint>
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

/// Cache-side listener. Tracks the last report heard; applies decay for
/// each reported update. If a gap is detected (the new report's window
/// does not start where the previous ended), the listener must assume it
/// missed updates and — per the sleeper rule — drops every cached entry.
///
/// The listener holds only the sleeper-rule state; the cache it maintains
/// is passed to each apply(), so neither object points into the other and
/// both can be moved freely.
class InvalidationListener {
 public:
  /// Applies a report. Returns the number of cache entries decayed, or
  /// -1 if the sleeper rule fired and the cache was dropped. The Cache
  /// overload walks the report's items; the BoundedCache overload walks
  /// the residents and binary-searches the id-ordered items, so a small
  /// cache pays for what it holds, not for the report's length. Decays
  /// of different objects are independent, so both orders leave the
  /// same state.
  int apply(const InvalidationReport& report, Cache& cache);
  int apply(const InvalidationReport& report, BoundedCache& cache);

  sim::Tick last_heard_end() const noexcept { return last_end_; }
  std::uint64_t reports_applied() const noexcept { return applied_; }
  std::uint64_t cache_drops() const noexcept { return drops_; }

 private:
  /// Validates the window; on a gap records the drop and returns true
  /// (the caller then empties its cache).
  bool sleeper_rule_fires(const InvalidationReport& report);
  /// Records a report applied without a drop; returns `decayed`.
  int heard(const InvalidationReport& report, int decayed);

  sim::Tick last_end_ = 0;
  bool heard_any_ = false;
  std::uint64_t applied_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace mobi::cache
