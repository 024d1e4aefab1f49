#include "game/position_map.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/math_util.h"
#include "game/kernels.h"
#include "stats/order.h"
#include "stats/quantile.h"

namespace itrim {

Result<PositionMap> PositionMap::Build(
    const std::vector<std::vector<double>>& sample) {
  if (sample.size() < 2) {
    return Status::InvalidArgument("position map needs >= 2 sample rows");
  }
  const size_t dims = sample[0].size();
  for (const auto& row : sample) {
    if (row.size() != dims) {
      return Status::InvalidArgument("ragged sample matrix");
    }
  }
  std::vector<const double*> rows(sample.size());
  for (size_t i = 0; i < sample.size(); ++i) rows[i] = sample[i].data();
  return Build(rows, dims);
}

Result<PositionMap> PositionMap::Build(std::span<const double* const> rows,
                                       size_t dims) {
  const size_t n = rows.size();
  if (n < 2) {
    return Status::InvalidArgument("position map needs >= 2 sample rows");
  }
  if (dims == 0) return Status::InvalidArgument("zero-dimensional rows");
  PositionMap map;
  // One pass in row order: the centroid sums (the additions of Centroid(),
  // bit for bit).
  map.centroid_.assign(dims, 0.0);
  for (const double* row : rows) {
    for (size_t j = 0; j < dims; ++j) map.centroid_[j] += row[j];
  }
  // A NaN or infinite value makes its column sum non-finite (so does a sum
  // that overflows, which would leave no usable centroid either).
  for (double sum : map.centroid_) {
    if (!std::isfinite(sum)) {
      return Status::InvalidArgument("non-finite sample value or column sum");
    }
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  for (double& c : map.centroid_) c *= inv_n;

  // Every quantile read below sits at q >= kGridLo, where QuantileSorted
  // touches only ranks >= floor(kGridLo * n - 0.5): order just those, one
  // column at a time, into the (knots + 1) x dims quantile matrix (the last
  // row is q = 0.95).
  const size_t knots =
      static_cast<size_t>(std::lround((1.0 - kGridLo) / kGridStep)) + 1;
  const size_t lo_rank =
      static_cast<size_t>(kGridLo * static_cast<double>(n) - 0.5);
  std::vector<double> quantiles((knots + 1) * dims);
  std::vector<double> column(n);
  std::vector<double> ordered(n);
  for (size_t j = 0; j < dims; ++j) {
    for (size_t i = 0; i < n; ++i) column[i] = rows[i][j];
    OrderUpperRanks(column, lo_rank, ordered);
    for (size_t i = 0; i < knots; ++i) {
      const double a = kGridLo + static_cast<double>(i) * kGridStep;
      quantiles[i * dims + j] = QuantileSorted(ordered, a);
    }
    quantiles[knots * dims + j] = QuantileSorted(ordered, 0.95);
  }
  map.grid_distance_.resize(knots);
  for (size_t i = 0; i < knots; ++i) {
    map.grid_distance_[i] = EuclideanDistance(
        std::span<const double>(quantiles.data() + i * dims, dims),
        map.centroid_);
  }
  // Enforce monotonicity (running max): skewed features can make the raw
  // curve dip locally; the envelope keeps the inverse well-defined.
  for (size_t i = 1; i < knots; ++i) {
    map.grid_distance_[i] =
        std::max(map.grid_distance_[i], map.grid_distance_[i - 1]);
  }
  // Guard against a degenerate (constant) sample.
  if (map.grid_distance_.back() <= 0.0) {
    return Status::InvalidArgument("sample has no spread around centroid");
  }
  // Canonical adversarial direction: toward the 0.95 quantile vector.
  const std::span<const double> q95(quantiles.data() + knots * dims, dims);
  map.quantile_direction_.resize(dims);
  double norm = EuclideanDistance(q95, map.centroid_);
  if (norm <= 0.0) norm = 1.0;
  for (size_t j = 0; j < dims; ++j) {
    map.quantile_direction_[j] = (q95[j] - map.centroid_[j]) / norm;
  }
  map.BuildInversionIndex();
  return map;
}

void PositionMap::BuildInversionIndex() {
  inv_bucket_start_.clear();
  inv_bucket_scale_ = 0.0;
  const double d_lo = grid_distance_.front();
  const double d_hi = grid_distance_.back();
  if (!(d_hi > d_lo)) return;  // flat grid: the search branch is unreachable
  inv_bucket_scale_ = static_cast<double>(kInvBuckets) / (d_hi - d_lo);
  inv_bucket_start_.resize(kInvBuckets);
  for (size_t b = 0; b < kInvBuckets; ++b) {
    const double edge =
        d_lo + static_cast<double>(b) / inv_bucket_scale_;
    const auto it = std::lower_bound(grid_distance_.begin(),
                                     grid_distance_.end(), edge);
    inv_bucket_start_[b] =
        static_cast<uint32_t>(it - grid_distance_.begin());
  }
}

size_t PositionMap::UpperKnot(double distance) const {
  // Bucket the query, then walk to the exact lower_bound. The walk is what
  // makes the accelerator exact: a start index perturbed by FP rounding of
  // the bucket edges still converges to the same knot a binary search
  // returns, and with ~5 buckets per knot it is almost always 0 steps.
  size_t b = static_cast<size_t>((distance - grid_distance_.front()) *
                                 inv_bucket_scale_);
  if (b >= inv_bucket_start_.size()) b = inv_bucket_start_.size() - 1;
  size_t hi = inv_bucket_start_[b];
  while (hi > 0 && grid_distance_[hi - 1] >= distance) --hi;
  while (grid_distance_[hi] < distance) ++hi;
  return hi;
}

double PositionMap::DistanceAt(double position) const {
  const double d_lo = grid_distance_.front();
  const double d_hi = grid_distance_.back();
  if (position <= kGridLo) {
    // Shrink linearly toward the centroid.
    return d_lo * std::max(position, 0.0) / kGridLo;
  }
  if (position >= 1.0) {
    // Extrapolate beyond the observed domain proportionally.
    return d_hi * (1.0 + (position - 1.0));
  }
  double idx = (position - kGridLo) / kGridStep;
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, grid_distance_.size() - 1);
  return Lerp(grid_distance_[lo], grid_distance_[hi],
              idx - static_cast<double>(lo));
}

double PositionMap::PositionOf(double distance) const {
  const double d_lo = grid_distance_.front();
  const double d_hi = grid_distance_.back();
  if (distance <= d_lo) {
    return d_lo > 0.0 ? kGridLo * distance / d_lo : 0.0;
  }
  if (distance >= d_hi) {
    return 1.0 + (distance - d_hi) / d_hi;
  }
  // Locate the monotone grid segment (O(1) bucket accelerator, exact
  // lower_bound semantics), then invert the linear piece.
  size_t hi = UpperKnot(distance);
  size_t lo = hi == 0 ? 0 : hi - 1;
  double span = grid_distance_[hi] - grid_distance_[lo];
  double frac = span > 0.0 ? (distance - grid_distance_[lo]) / span : 0.0;
  return kGridLo + (static_cast<double>(lo) + frac) * kGridStep;
}

double PositionMap::PositionOfRow(std::span<const double> row) const {
  return PositionOf(EuclideanDistance(row, centroid_));
}

void PositionMap::PositionsOfRows(std::span<const double> rows, size_t n_rows,
                                  std::span<double> out) const {
  assert(rows.size() == n_rows * centroid_.size());
  assert(out.size() >= n_rows);
  // One batched distance sweep, then the grid inversion: sqrt is
  // correctly rounded and the kernel shares the canonical lane order with
  // EuclideanDistance, so this matches per-row PositionOfRow bit for bit.
  kernels::DistancesToCenter(rows.data(), n_rows, centroid_.size(),
                             centroid_.data(), out.data());
  // The inversion is PositionOf with the grid/bucket state hoisted out of
  // the per-row call: same branches, same arithmetic, same bits. In the
  // interior branch hi >= 1 always (grid[0] = d_lo < distance), so the
  // hi == 0 guard of PositionOf is dropped rather than re-checked.
  const double d_lo = grid_distance_.front();
  const double d_hi = grid_distance_.back();
  const double* grid = grid_distance_.data();
  const uint32_t* buckets = inv_bucket_start_.data();
  const size_t n_buckets = inv_bucket_start_.size();
  const double scale = inv_bucket_scale_;
  for (size_t r = 0; r < n_rows; ++r) {
    const double distance = out[r];
    if (distance <= d_lo) {
      out[r] = d_lo > 0.0 ? kGridLo * distance / d_lo : 0.0;
    } else if (distance >= d_hi) {
      out[r] = 1.0 + (distance - d_hi) / d_hi;
    } else {
      size_t b = static_cast<size_t>((distance - d_lo) * scale);
      if (b >= n_buckets) b = n_buckets - 1;
      size_t hi = buckets[b];
      while (hi > 0 && grid[hi - 1] >= distance) --hi;
      while (grid[hi] < distance) ++hi;
      const size_t lo = hi - 1;
      const double span = grid[hi] - grid[lo];
      const double frac = span > 0.0 ? (distance - grid[lo]) / span : 0.0;
      out[r] = kGridLo + (static_cast<double>(lo) + frac) * kGridStep;
    }
  }
}

std::vector<double> PositionMap::MakePoint(
    double position, std::span<const double> direction) const {
  std::vector<double> out;
  MakePointInto(position, direction, &out);
  return out;
}

void PositionMap::MakePointInto(double position,
                                std::span<const double> direction,
                                std::vector<double>* out) const {
  out->resize(centroid_.size());
  MakePointInto(position, direction, std::span<double>(*out));
}

void PositionMap::MakePointInto(double position,
                                std::span<const double> direction,
                                std::span<double> out) const {
  assert(direction.size() == centroid_.size());
  assert(out.size() == centroid_.size());
  const double scale = DistanceAt(position);
  for (size_t j = 0; j < centroid_.size(); ++j) {
    out[j] = centroid_[j] + scale * direction[j];
  }
}

}  // namespace itrim
