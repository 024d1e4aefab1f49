#include "stats/quantile.h"

#include <algorithm>
#include <cassert>

#include "common/math_util.h"

namespace itrim {

double QuantileSorted(const std::vector<double>& sorted, double q) {
  assert(!sorted.empty());
  q = Clamp(q, 0.0, 1.0);
  const size_t n = sorted.size();
  if (n == 1) return sorted[0];
  // MATLAB prctile: breakpoints at (i - 0.5) / n for i = 1..n, clamped ends.
  double pos = q * static_cast<double>(n) - 0.5;
  if (pos <= 0.0) return sorted.front();
  if (pos >= static_cast<double>(n - 1)) return sorted.back();
  size_t lo = static_cast<size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  return Lerp(sorted[lo], sorted[lo + 1], frac);
}

double Quantile(std::vector<double> values, double q) {
  assert(!values.empty());
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, q);
}

double PercentileRankSorted(const std::vector<double>& sorted, double x) {
  if (sorted.empty()) return 0.0;
  auto it = std::upper_bound(sorted.begin(), sorted.end(), x);
  return static_cast<double>(it - sorted.begin()) /
         static_cast<double>(sorted.size());
}

}  // namespace itrim
