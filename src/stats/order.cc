#include "stats/order.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
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

/// Most key-range buckets of OrderResidualRows, as a power of two.
constexpr int kResidualBucketBits = 10;

/// Integer key of an absolute residual: non-negative doubles order like
/// their bit patterns, NaN ranks with +inf, and -0 folds onto +0.
inline uint64_t ResidualKey(double residual) {
  if (std::isnan(residual)) {
    return std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity());
  }
  if (residual == 0.0) return 0;
  return std::bit_cast<uint64_t>(residual);
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

void OrderResidualRows(std::span<const double> residuals,
                       std::span<uint64_t> keys, std::span<size_t> order) {
  assert(keys.size() == residuals.size() &&
         order.size() == residuals.size());
  const size_t n = residuals.size();
  uint64_t lo = std::numeric_limits<uint64_t>::max();
  uint64_t hi = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = ResidualKey(residuals[i]);
    keys[i] = key;
    lo = std::min(lo, key);
    hi = std::max(hi, key);
  }
  if (lo >= hi) {  // n <= 1 or every key equal: index order is the order
    std::iota(order.begin(), order.end(), size_t{0});
    return;
  }
  // About one row per bucket, 16 to 2^10 buckets; the shift maps the key
  // range onto them exactly.
  const int bits = std::clamp(static_cast<int>(std::bit_width(n)), 4,
                              kResidualBucketBits);
  const uint64_t range = hi - lo;
  const int shift = std::max(0, static_cast<int>(std::bit_width(range)) - bits);
  const size_t buckets = static_cast<size_t>(range >> shift) + 1;
  size_t starts[size_t{1} << kResidualBucketBits];
  std::fill(starts, starts + buckets, size_t{0});
  for (size_t i = 0; i < n; ++i) ++starts[(keys[i] - lo) >> shift];
  size_t rank = 0;
  size_t largest = 0;
  for (size_t b = 0; b < buckets; ++b) {
    const size_t count = starts[b];
    largest = std::max(largest, count);
    starts[b] = rank;
    rank += count;
  }
  // Stable scatter from index order: equal keys stay in ascending index
  // order. Afterwards starts[b] ends bucket b.
  size_t* ordered = order.data();
  for (size_t i = 0; i < n; ++i) ordered[starts[(keys[i] - lo) >> shift]++] = i;
  const auto by_key_then_index = [&](size_t a, size_t b) {
    return keys[a] < keys[b] || (keys[a] == keys[b] && a < b);
  };
  if (largest > kInsertionMax) {
    size_t begin = 0;
    for (size_t b = 0; b < buckets; ++b) {
      const size_t end = starts[b];
      if (end - begin > kInsertionMax) {
        std::sort(ordered + begin, ordered + end, by_key_then_index);
      }
      begin = end;
    }
  }
  // Buckets ascend as key intervals, so a row only moves within its own
  // (small or already sorted) bucket; the strict comparison keeps ties in
  // index order.
  for (size_t i = 1; i < n; ++i) {
    const size_t row = ordered[i];
    const uint64_t key = keys[row];
    size_t k = i;
    for (; k > 0 && keys[ordered[k - 1]] > key; --k) {
      ordered[k] = ordered[k - 1];
    }
    ordered[k] = row;
  }
}

}  // namespace itrim
