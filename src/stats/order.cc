#include "stats/order.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

namespace itrim {

namespace {

/// Value-range buckets (~1 sample per bucket at the n = 500 bootstrap).
constexpr size_t kOrderBuckets = 512;
/// Largest bucket left to the final insertion pass; larger ones are
/// std::sorted first, which bounds that pass at O(n * kInsertionMax).
constexpr size_t kInsertionMax = 16;

/// Count slot of NaN values, past the last bucket.
constexpr size_t kNanSlot = kOrderBuckets;

/// \brief Min and max of a non-empty sample; a NaN is skipped unless it
/// comes first, which makes both NaN.
std::pair<double, double> MinMax(std::span<const double> in) {
  double lo = in[0];
  double hi = in[0];
  for (const double v : in) {
    lo = v < lo ? v : lo;
    hi = v > hi ? v : hi;
  }
  return {lo, hi};
}

/// \brief Bucket of `v` in a sample starting at `lo`, or kNanSlot for a
/// NaN. The comparison keeps the float-to-integer cast in range even where
/// rounding lands past the last bucket.
inline size_t BucketOf(double v, double lo, double scale) {
  const double x = (v - lo) * scale;
  if (x < static_cast<double>(kOrderBuckets - 1)) {
    return static_cast<uint32_t>(x);
  }
  return x == x ? kOrderBuckets - 1 : kNanSlot;
}

void SortWhole(std::span<const double> in, std::span<double> out) {
  std::copy(in.begin(), in.end(), out.begin());
  std::sort(out.begin(), out.end());
}

}  // namespace

void OrderUpperRanks(std::span<const double> in, size_t lo_rank,
                     std::span<double> out) {
  assert(in.size() == out.size() && lo_rank <= in.size());
  const size_t n = in.size();
  if (lo_rank >= n) {  // no rank to order (this includes n == 0)
    std::copy(in.begin(), in.end(), out.begin());
    return;
  }
  const auto [lo, hi] = MinMax(in);
  const double range = hi - lo;
  const double scale = static_cast<double>(kOrderBuckets - 1) / range;
  if (!(range > 0.0) || !std::isfinite(range) || !std::isfinite(scale)) {
    SortWhole(in, out);
    return;
  }
  size_t starts[kOrderBuckets + 1] = {};
  for (const double v : in) ++starts[BucketOf(v, lo, scale)];
  if (starts[kNanSlot] != 0) {
    SortWhole(in, out);
    return;
  }
  // Exclusive prefix sums; `first` is the bucket holding rank lo_rank.
  size_t rank = 0;
  size_t largest = 0;
  size_t first = kOrderBuckets;
  for (size_t b = 0; b < kOrderBuckets; ++b) {
    const size_t count = starts[b];
    largest = std::max(largest, count);
    starts[b] = rank;
    rank += count;
    if (first == kOrderBuckets && rank > lo_rank) first = b;
  }
  const size_t first_rank = starts[first];
  // Stable scatter of the whole sample; the lower buckets it also writes
  // are simply never ordered. Afterwards starts[b] ends bucket b.
  double* ordered = out.data();
  for (const double v : in) ordered[starts[BucketOf(v, lo, scale)]++] = v;
  if (largest > kInsertionMax) {
    size_t begin = first_rank;
    for (size_t b = first; b < kOrderBuckets; ++b) {
      const size_t end = starts[b];
      if (end - begin > kInsertionMax) {
        std::sort(ordered + begin, ordered + end);
      }
      begin = end;
    }
  }
  // One insertion pass over the upper buckets: they ascend as intervals, so
  // a value only moves within its own (small or already sorted) bucket.
  for (size_t i = first_rank + 1; i < n; ++i) {
    const double v = ordered[i];
    size_t k = i;
    for (; k > first_rank && ordered[k - 1] > v; --k) {
      ordered[k] = ordered[k - 1];
    }
    ordered[k] = v;
  }
}

}  // namespace itrim
