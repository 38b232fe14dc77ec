#include "obs/prometheus.hpp"

#include <sstream>

namespace mobi::obs {

std::string prometheus_name(const std::string& name) {
  // A name must not be empty or start with a digit: prefix '_' up front.
  const bool prefix = name.empty() || (name[0] >= '0' && name[0] <= '9');
  std::string out(prefix ? 1 : 0, '_');
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string prometheus_escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string prometheus_escape_help(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

void render(std::ostringstream& out, const MetricsRegistry& registry,
            const std::map<std::string, std::string>* help) {
  for (const std::string& name : registry.names()) {
    const std::string flat = prometheus_name(name);
    if (help) {
      const auto it = help->find(name);
      if (it != help->end()) {
        out << "# HELP " << flat << ' ' << prometheus_escape_help(it->second)
            << '\n';
      }
    }
    switch (registry.kind(name)) {
      case MetricKind::kCounter:
        out << "# TYPE " << flat << " counter\n"
            << flat << ' ' << registry.find_counter(name)->value() << '\n';
        break;
      case MetricKind::kGauge:
        out << "# TYPE " << flat << " gauge\n"
            << flat << ' ' << json::number(registry.find_gauge(name)->value())
            << '\n';
        break;
      case MetricKind::kHistogram: {
        const FixedHistogram& h = *registry.find_histogram(name);
        out << "# TYPE " << flat << " histogram\n";
        // Cumulative buckets: everything observed at or below each upper
        // edge, so the underflow mass folds into every finite bucket.
        std::uint64_t cumulative = h.underflow();
        for (std::size_t i = 0; i < h.bucket_count(); ++i) {
          cumulative += h.bucket(i);
          out << flat << "_bucket{le=\""
              << prometheus_escape_label(json::number(h.bucket_hi(i)))
              << "\"} " << cumulative << '\n';
        }
        out << flat << "_bucket{le=\"+Inf\"} " << h.total() << '\n'
            << flat << "_sum " << json::number(h.sum()) << '\n'
            << flat << "_count " << h.total() << '\n';
        break;
      }
    }
  }
}

}  // namespace

std::string to_prometheus(const MetricsRegistry& registry) {
  std::ostringstream out;
  render(out, registry, nullptr);
  return out.str();
}

std::string to_prometheus(const MetricsRegistry& registry,
                          const std::map<std::string, std::string>& help) {
  std::ostringstream out;
  render(out, registry, &help);
  return out.str();
}

}  // namespace mobi::obs
