// Exact quantile/percentile computation with linear interpolation.
//
// Percentile semantics follow MATLAB's `prctile` (the paper's toolchain):
// for a sorted sample x_1..x_n the q-quantile interpolates between the points
// (i - 0.5)/n, so percentile positions map stably onto data values. All
// injection and trimming positions in the paper are expressed as data
// percentiles (Section VI-A), which makes this module the numeric foundation
// of the whole defense.
#ifndef ITRIM_STATS_QUANTILE_H_
#define ITRIM_STATS_QUANTILE_H_

#include <vector>

namespace itrim {

/// \brief q-quantile (q in [0,1]) of `sorted` (ascending), MATLAB prctile
/// interpolation. Requires a non-empty, sorted input.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// \brief q-quantile of an unsorted sample (copies + sorts internally).
double Quantile(std::vector<double> values, double q);

/// \brief Rank of `x` within `sorted` as a percentile in [0,1].
double PercentileRankSorted(const std::vector<double>& sorted, double x);

}  // namespace itrim

#endif  // ITRIM_STATS_QUANTILE_H_
