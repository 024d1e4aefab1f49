// Percentile and sample-count helper of the benchmark.
//
// A percentile is reported only when at least kMinBeyond samples lie
// strictly above it: a p90 over 50 samples rests on five values and moves
// with any one of them.
#ifndef PAPERBENCH_STATS_H_
#define PAPERBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "stats/quantile.h"

namespace paperbench {

inline constexpr size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;   ///< q-quantile (itrim's QuantileSorted interpolation)
  size_t samples = 0;   ///< samples the value was taken over
  size_t beyond = 0;    ///< samples strictly greater than `value`
  bool reportable() const { return samples > 0 && beyond >= kMinBeyond; }
};

inline Percentile PercentileOf(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  p.value = itrim::QuantileSorted(samples, q);
  const auto above =
      std::upper_bound(samples.begin(), samples.end(), p.value);
  p.beyond = static_cast<size_t>(samples.end() - above);
  return p;
}

inline double Median(std::vector<double> samples) {
  return PercentileOf(std::move(samples), 0.5).value;
}

}  // namespace paperbench

#endif  // PAPERBENCH_STATS_H_
