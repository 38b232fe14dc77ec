#include "core/fairness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace mobi::core {

double jain_index(std::span<const double> scores) {
  double sum = 0.0, sum_sq = 0.0;
  for (double x : scores) {
    if (x < 0.0) throw std::invalid_argument("jain_index: negative score");
    sum += x;
    sum_sq += x * x;
  }
  if (scores.empty() || sum_sq == 0.0) return 1.0;
  return sum * sum / (double(scores.size()) * sum_sq);
}

double min_score(std::span<const double> scores) {
  double lowest = 1.0;
  for (double x : scores) lowest = std::min(lowest, x);
  return lowest;
}

double score_quantile(std::span<const double> scores, double q) {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("score_quantile: q outside [0, 1]");
  }
  if (scores.empty()) return 1.0;
  // The two order statistics a full sort would put at lo and hi, in O(n):
  // nth_element places the lo-th, and the hi-th (hi = lo + 1 when they
  // differ) is the smallest of what it left above. Same doubles, same
  // interpolation, so the result is bit-identical to sorting.
  std::vector<double> partial(scores.begin(), scores.end());
  const double position = q * double(partial.size() - 1);
  const auto lo = std::size_t(std::floor(position));
  const auto hi = std::size_t(std::ceil(position));
  const double frac = position - double(lo);
  const auto nth = partial.begin() + std::ptrdiff_t(lo);
  std::nth_element(partial.begin(), nth, partial.end());
  const double at_lo = *nth;
  const double at_hi =
      hi == lo ? at_lo : *std::min_element(nth + 1, partial.end());
  return at_lo * (1.0 - frac) + at_hi * frac;
}

}  // namespace mobi::core
