// Ascending order statistics of a contiguous sample.
//
// Every game calibrates on a clean round-0 sample, and both calibrations
// order it: the public board's seal orders all of its values, and the
// position map orders the upper half of each feature column (no knot reads
// below the median). Both go through OrderUpperRanks, a value-range bucket
// scatter finished by one insertion pass, which orders a 500-value sample
// in roughly a quarter of a comparator sort's time.
#ifndef ITRIM_STATS_ORDER_H_
#define ITRIM_STATS_ORDER_H_

#include <cstddef>
#include <span>

namespace itrim {

/// \brief Writes the ascending order statistics of `in` at ranks
/// [lo_rank, n) into the same ranks of `out` (n = in.size() = out.size(),
/// lo_rank <= n; `in` and `out` must not overlap). Ranks below lo_rank of
/// `out` hold the remaining values in unspecified order.
///
/// Bucket b = floor((v - lo) * (K - 1) / (hi - lo)) over the sample's range
/// [lo, hi] is monotone in v under correctly rounded arithmetic, so every
/// bucket is a value interval and the stable scatter is sorted up to order
/// within buckets. Of the buckets that reach lo_rank, those larger than 16
/// values are std::sorted; one insertion pass orders the rest, keeping
/// equal values in input order. A sample holding a NaN, or whose range or
/// scale is not finite and positive (all values equal, an infinite value,
/// a range that overflows), is one std::sort instead. The ordered values
/// therefore equal std::sort's; only the arrangement of -0.0 against +0.0
/// can differ. Counts live on the stack; nothing is allocated.
void OrderUpperRanks(std::span<const double> in, size_t lo_rank,
                     std::span<double> out);

}  // namespace itrim

#endif  // ITRIM_STATS_ORDER_H_
