// Order statistics, ratios and replica-lag matching for the stack bench.
//
// Header-only so the unit tests exercise exactly what the bench reports.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench_common.h"

namespace stackbench {

using prins::bench::Clock;

/// prins::bench::quantile over a copy, so callers may ask for several
/// quantiles of one sample set, or pass samples they only hold const.
inline double quantile(std::vector<double> v, double q) {
  return prins::bench::quantile(v, q);
}

/// Samples strictly above the q-quantile's rank: how many observations a
/// reported percentile rests on.
inline std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto k = std::min(n - 1,
                          static_cast<std::size_t>(q * static_cast<double>(n)));
  return n - 1 - k;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// num / den, or 0 when the denominator is 0 (a layer that saw no work).
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// One timestamped block event (nanoseconds on a steady clock).
struct LbaEvent {
  std::uint64_t lba = 0;
  std::int64_t t_ns = 0;
};

struct LagMatch {
  std::vector<double> lags_us;  // replica event minus primary event
  std::uint64_t unmatched = 0;  // events on one side with no partner
};

/// Pair the k-th primary event of each LBA with the k-th replica event of
/// the same LBA (same-block writes apply in order on both sides, so order
/// within an LBA identifies the write) and return the per-write lags.
inline LagMatch match_replica_lag(std::vector<LbaEvent> primary,
                                  std::vector<LbaEvent> replica) {
  const auto by_lba_time = [](const LbaEvent& a, const LbaEvent& b) {
    return a.lba != b.lba ? a.lba < b.lba : a.t_ns < b.t_ns;
  };
  std::sort(primary.begin(), primary.end(), by_lba_time);
  std::sort(replica.begin(), replica.end(), by_lba_time);
  LagMatch out;
  out.lags_us.reserve(std::min(primary.size(), replica.size()));
  std::size_t i = 0, j = 0;
  while (i < primary.size() || j < replica.size()) {
    if (j == replica.size() ||
        (i < primary.size() && primary[i].lba < replica[j].lba)) {
      ++out.unmatched;
      ++i;
    } else if (i == primary.size() || replica[j].lba < primary[i].lba) {
      ++out.unmatched;
      ++j;
    } else {
      out.lags_us.push_back(
          static_cast<double>(replica[j].t_ns - primary[i].t_ns) / 1e3);
      ++i;
      ++j;
    }
  }
  return out;
}

}  // namespace stackbench
