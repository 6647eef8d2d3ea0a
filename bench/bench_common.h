// Shared measurement helpers for the bench/ binaries.
//
// Every bench wants the same three things: a steady clock, microsecond
// round-trip samples, and order-statistic percentiles over those samples.
// Keeping one implementation here means the benches and the stack bench
// agree on what "p99" means (nth_element order statistic, not
// an interpolated or bucketed estimate) and a fix lands everywhere at
// once.
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

namespace prins::bench {

using Clock = std::chrono::steady_clock;

inline double to_us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Order-statistic quantile: the element at rank floor(q * n), found with
/// nth_element (O(n), partially reorders `v` — take percentiles from
/// smallest q to largest on the same vector, or don't care about order,
/// which every current caller satisfies).  q in [0, 1]; empty input -> 0.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k =
      std::min(v.size() - 1,
               static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// The percentile pair every bench table prints.
struct LatencySummary {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

inline LatencySummary summarize_latencies(std::vector<double>& lat_us) {
  LatencySummary s;
  s.p50_us = quantile(lat_us, 0.50);
  s.p99_us = quantile(lat_us, 0.99);
  return s;
}

}  // namespace prins::bench
