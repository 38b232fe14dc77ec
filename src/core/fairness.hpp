// Fairness measures over per-client recency scores.
//
// The paper's objective is the *average* client score; averages can hide
// starvation (a policy could lift popular objects' clients to 1.0 and
// abandon the tail). These helpers quantify the distribution's shape:
// Jain's fairness index (1 = perfectly equal, 1/n = one client has it
// all), the minimum score, and low quantiles.
#pragma once

#include <span>

namespace mobi::core {

/// Jain's fairness index: (sum x)^2 / (n * sum x^2). Defined for
/// non-negative scores; returns 1.0 for an empty or all-zero set (no
/// inequality to measure).
double jain_index(std::span<const double> scores);

/// Minimum score (1.0 for an empty set — vacuously fair).
double min_score(std::span<const double> scores);

/// The q-quantile (0 <= q <= 1) of the score distribution: linear
/// interpolation between the two neighbouring order statistics, selected
/// in O(n) (bit-identical to interpolating in a fully sorted copy).
double score_quantile(std::span<const double> scores, double q);

}  // namespace mobi::core
