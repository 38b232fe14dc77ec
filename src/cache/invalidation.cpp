#include "cache/invalidation.hpp"

#include <algorithm>
#include <stdexcept>

namespace mobi::cache {
namespace {

// Orders report items against an object id.
struct ById {
  bool operator()(const InvalidationReport::Item& item,
                  object::ObjectId id) const noexcept {
    return item.object < id;
  }
};

}  // namespace

InvalidationLog::InvalidationLog(std::size_t object_count)
    : object_count_(object_count), updates_(object_count) {}

void InvalidationLog::record_update(object::ObjectId id, sim::Tick tick) {
  if (id >= object_count_) throw std::out_of_range("InvalidationLog: bad id");
  auto& history = updates_[id];
  if (!history.empty() && tick < history.back()) {
    throw std::logic_error("InvalidationLog: updates must be time-ordered");
  }
  history.push_back(tick);
  ++total_;
}

InvalidationReport InvalidationLog::make_report(sim::Tick from,
                                                sim::Tick to) const {
  InvalidationReport report;
  make_report_into(from, to, report);
  return report;
}

void InvalidationLog::make_report_into(sim::Tick from, sim::Tick to,
                                       InvalidationReport& out) const {
  if (from > to) throw std::invalid_argument("InvalidationLog: from > to");
  out.window_start = from;
  out.window_end = to;
  out.items.clear();
  for (object::ObjectId id = 0; id < object_count_; ++id) {
    const auto& history = updates_[id];
    const auto lo = std::lower_bound(history.begin(), history.end(), from);
    const auto hi = std::lower_bound(history.begin(), history.end(), to);
    const auto count = std::uint32_t(hi - lo);
    if (count > 0) {
      out.items.push_back(InvalidationReport::Item{id, count});
    }
  }
}

void InvalidationLog::prune(sim::Tick before) {
  for (auto& history : updates_) {
    const auto cut = std::lower_bound(history.begin(), history.end(), before);
    history.erase(history.begin(), cut);
  }
}

bool InvalidationListener::sleeper_rule_fires(
    const InvalidationReport& report) {
  if (report.window_end < report.window_start) {
    throw std::invalid_argument("InvalidationListener: bad report window");
  }
  // Sleeper rule: a gap between the last report heard and this one means
  // we may have missed invalidations — nothing cached can be trusted.
  if (!heard_any_ || report.window_start <= last_end_) return false;
  ++drops_;
  last_end_ = report.window_end;
  ++applied_;
  // The report's own contents are irrelevant: the cache is empty now.
  return true;
}

int InvalidationListener::heard(const InvalidationReport& report,
                                int decayed) {
  heard_any_ = true;
  last_end_ = std::max(last_end_, report.window_end);
  ++applied_;
  return decayed;
}

int InvalidationListener::apply(const InvalidationReport& report,
                                Cache& cache) {
  if (sleeper_rule_fires(report)) {
    const std::size_t n = cache.object_count();
    for (object::ObjectId id = 0; id < n; ++id) cache.evict(id);
    return -1;
  }
  int decayed = 0;
  for (const auto& item : report.items) {
    for (std::uint32_t k = 0; k < item.updates; ++k) {
      if (cache.contains(item.object)) {
        cache.on_server_update(item.object);
        ++decayed;
      }
    }
  }
  return heard(report, decayed);
}

int InvalidationListener::apply(const InvalidationReport& report,
                                BoundedCache& cache) {
  if (sleeper_rule_fires(report)) {
    cache.clear();
    return -1;
  }
  // Residents and items are both id-ordered, so each search starts where
  // the previous one ended.
  auto from = report.items.begin();
  const int decayed =
      cache.decay_residents([&](object::ObjectId id) -> std::uint32_t {
        from = std::lower_bound(from, report.items.end(), id, ById{});
        return from != report.items.end() && from->object == id
                   ? from->updates
                   : 0;
      });
  return heard(report, decayed);
}

}  // namespace mobi::cache
