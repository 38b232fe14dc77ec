// Metric catalogue, summary statistics and the result line the benchmark
// prints last: {"correct", "attempted", "failed", "metrics"}.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace mobibench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by untraced runs (`--trace 0`), in this order.
const std::vector<MetricDef>& end_to_end_metrics();
/// Printed by traced runs (`--trace 1`), in this order.
const std::vector<MetricDef>& per_layer_metrics();

/// Named metric values; `set` on a name not yet present appends it.
class MetricValues {
 public:
  void set(const std::string& name, double value);
  /// Value of `name`, or 0 when it was never set.
  double get(const std::string& name) const;
  bool has(const std::string& name) const;
  const std::vector<std::pair<std::string, double>>& items() const noexcept {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, double>> items_;
};

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// One JSON object on one line: the result line. Metrics are
/// emitted in `defs` order with their units; a metric missing from
/// `values` is emitted as 0.
std::string result_line(bool correct, std::size_t attempted, std::size_t failed,
                        const MetricValues& values,
                        const std::vector<MetricDef>& defs);

/// JSON string literal for `text` (quotes included).
std::string json_string(const std::string& text);
/// Shortest round-tripping decimal for a finite double; non-finite -> 0.
std::string json_number(double value);

}  // namespace mobibench
