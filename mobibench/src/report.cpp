#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace mobibench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"requests_per_s", "req/s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"cpu_s_per_mreq", "cpu-s/Mreq"},
      {"avg_score", "score"},
      {"units_per_request", "units/req"},
      {"served_ok_frac", "frac"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"workload.next_batch_ns.p50", "ns"},
      {"workload.next_batch_ns.p99", "ns"},
      {"workload.next_batch_ns.n", "count"},
      {"workload.updates_ns.p50", "ns"},
      {"workload.updates_ns.p99", "ns"},
      {"workload.updates_ns.n", "count"},
      {"core.process_batch_us.p50", "us"},
      {"core.process_batch_us.p99", "us"},
      {"core.process_batch_us.n", "count"},
      {"core.select_share", "frac"},
      {"core.candidates_per_tick", "count/tick"},
      {"core.fetch_yield", "frac"},
      {"core.retry_success_frac", "frac"},
      {"cache.hit_frac", "frac"},
      {"cache.stale_serve_frac", "frac"},
      {"net.units_per_tick", "units/tick"},
      {"net.downlink_util", "frac"},
      {"net.downlink_dropped_frac", "frac"},
      {"client.local_hit_frac", "frac"},
      {"client.shard_ms.p50", "ms"},
      {"client.shard_ms.max", "ms"},
      {"client.shard_ms.n", "count"},
      {"exp.dispatch_s", "s"},
      {"exp.worker_busy_frac", "frac"},
      {"exp.imbalance", "ratio"},
      {"exp.record_share", "frac"},
      {"mobility.step_us.p50", "us"},
      {"mobility.step_us.p99", "us"},
      {"mobility.step_us.n", "count"},
      {"mobility.barrier_share", "frac"},
      {"mobility.crossings_per_tick", "count/tick"},
      {"mobility.delivery_yield", "frac"},
      {"coop.tick_us.p50", "us"},
      {"coop.tick_us.p99", "us"},
      {"coop.tick_us.n", "count"},
      {"coop.coherence_share", "frac"},
      {"coop.invalidations_per_update", "ratio"},
      {"coop.peer_hit_frac", "frac"},
      {"util.pool_cpu_util", "frac"},
      {"obs.trace_overhead_frac", "frac"},
  };
  return defs;
}

void MetricValues::set(const std::string& name, double value) {
  for (auto& item : items_) {
    if (item.first == name) {
      item.second = value;
      return;
    }
  }
  items_.emplace_back(name, value);
}

double MetricValues::get(const std::string& name) const {
  for (const auto& item : items_) {
    if (item.first == name) return item.second;
  }
  return 0.0;
}

bool MetricValues::has(const std::string& name) const {
  return std::any_of(items_.begin(), items_.end(),
                     [&](const auto& item) { return item.first == name; });
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * double(values.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - double(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const MetricValues& values,
                        const std::vector<MetricDef>& defs) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (i) out << ", ";
    out << json_string(defs[i].name) << ": {\"value\": "
        << json_number(values.get(defs[i].name))
        << ", \"unit\": " << json_string(defs[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace mobibench
