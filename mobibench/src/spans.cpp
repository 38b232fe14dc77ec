#include "spans.hpp"

#include <chrono>

namespace mobibench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanLog::open(SpanName name) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  stack_.push_back(std::int32_t(spans_.size()));
  spans_.push_back(Span{name, parent, now_ns(), 0});
}

void SpanLog::close() {
  if (stack_.empty()) return;
  spans_[std::size_t(stack_.back())].end_ns = now_ns();
  stack_.pop_back();
}

void SpanLog::add(SpanName name, std::int64_t start_ns, std::int64_t end_ns) {
  spans_.push_back(
      Span{name, stack_.empty() ? -1 : stack_.back(), start_ns, end_ns});
}

std::vector<double> SpanLog::durations(SpanName name, double unit_ns) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.ns() / unit_ns);
  }
  return out;
}

double SpanLog::total_ns(SpanName name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.ns();
  }
  return total;
}

}  // namespace mobibench
