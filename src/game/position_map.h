// Percentile-position geometry for multi-dimensional rounds.
//
// The paper expresses every strategy (injection and trimming positions) as a
// *data percentile* (Section VI-A). For a d-dimensional dataset the natural
// generalization of "the value at percentile a" is the per-feature quantile
// vector q(a) = (q_1(a), ..., q_d(a)); a colluding adversary injecting "at
// percentile a" fabricates rows at distance D(a) = ||q(a) - centroid|| from
// the data centroid, and a collector trimming "at percentile T" removes rows
// farther than D(T).
//
// PositionMap captures this mapping, built once from the clean round-0
// calibration sample (finite values only): a monotone grid of (position
// a -> distance D(a)) on [0.5, 1] plus its inverse. Since no knot reads
// below the median, Build orders only the upper half of each feature
// column. Scoring a row means mapping its centroid distance back to a
// position, so the whole game — trimming thresholds, injection points,
// quality bands — plays out in one shared percentile coordinate, exactly
// like the scalar case.
//
// Empirically (see DESIGN.md) this geometry reproduces the paper's two key
// quantitative features: benign loss under a threshold T ~= 1 - T for
// T in [0.85, 0.93] and ~0 for T >= 0.95 (the Fig 4 vs Fig 5 overhead
// difference), and poison damage that grows steeply toward a = 1 (the
// Ostrich-vs-defenses gap).
#ifndef ITRIM_GAME_POSITION_MAP_H_
#define ITRIM_GAME_POSITION_MAP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace itrim {

/// \brief Monotone position <-> distance mapping for row-valued rounds.
class PositionMap {
 public:
  /// Creates an empty map; populate it via Build().
  PositionMap() = default;

  /// \brief Builds the map from a clean sample of `rows.size()` (>= 2)
  /// borrowed rows of `dims` doubles each; the rows are read in place and
  /// not retained. Every value, and each column's sum, must be finite
  /// (InvalidArgument otherwise).
  ///
  /// Cost contract: every quantile the map reads sits at q >= 0.5, where
  /// QuantileSorted touches only ranks >= floor(0.5 * n - 0.5), so each
  /// column is gathered once and stats/order.h's OrderUpperRanks orders
  /// just that upper half (a value-range bucket scatter, exact because
  /// every bucket is a value interval). All scratch (one column, its
  /// order and the quantile matrix) is call-local; the map keeps none.
  /// The centroid, grid and direction equal a full per-column sort and
  /// QuantileSorted bit for bit.
  static Result<PositionMap> Build(std::span<const double* const> rows,
                                   size_t dims);

  /// \brief Shape-checking form over owned rows (>= 2 rows, uniform
  /// width); forwards to the borrowed-row Build above.
  static Result<PositionMap> Build(
      const std::vector<std::vector<double>>& sample);

  /// \brief Centroid of the calibration sample.
  const std::vector<double>& centroid() const { return centroid_; }

  /// \brief Distance from the centroid representing `position`.
  ///
  /// Positions in [0.5, 1] interpolate the quantile-vector grid; positions
  /// above 1 extrapolate linearly (the adversary may fabricate values beyond
  /// the observed domain); positions below 0.5 shrink linearly to 0.
  double DistanceAt(double position) const;

  /// \brief Inverse of DistanceAt: the position whose representative
  /// distance equals `distance` (clamped/extrapolated consistently).
  double PositionOf(double distance) const;

  /// \brief Position score of a row (its centroid distance, inverted).
  double PositionOfRow(std::span<const double> row) const;

  /// \brief Batched PositionOfRow over `n_rows` contiguous rows of width
  /// centroid().size() (row-major): one kernel sweep for the distances,
  /// then the grid inversion per row. Bit-identical to per-row scoring.
  void PositionsOfRows(std::span<const double> rows, size_t n_rows,
                       std::span<double> out) const;

  /// \brief Fabricates a row at `position` along `direction` (unit vector):
  /// centroid + DistanceAt(position) * direction.
  std::vector<double> MakePoint(double position,
                                std::span<const double> direction) const;

  /// \brief MakePoint into caller-owned storage (resized, capacity reused).
  void MakePointInto(double position, std::span<const double> direction,
                     std::vector<double>* out) const;

  /// \brief MakePoint into a preallocated row of width centroid().size()
  /// (the SoA row-pool shape; no resizing, no allocation).
  void MakePointInto(double position, std::span<const double> direction,
                     std::span<double> out) const;

  /// \brief Unit direction of the upper quantile vector q(0.95) - centroid:
  /// the data-meaningful "all features high" direction a colluding adversary
  /// fabricates values along (a random direction would be nearly orthogonal
  /// to the class structure in high dimension and dilute the attack).
  const std::vector<double>& quantile_direction() const {
    return quantile_direction_;
  }

  /// \brief Number of grid knots (for introspection/tests).
  size_t grid_size() const { return grid_distance_.size(); }

 private:
  static constexpr double kGridLo = 0.5;
  static constexpr double kGridStep = 0.005;
  /// Bucket count of the inversion accelerator (~5x the knot count, so a
  /// bucket rarely spans more than one knot).
  static constexpr size_t kInvBuckets = 512;

  /// \brief Index of the first grid knot >= `distance` (the lower_bound
  /// the inversion interpolates at). O(1) via the bucket accelerator; the
  /// index is an exact integer, so the accelerated search is bitwise
  /// equivalent to a plain binary search by construction.
  size_t UpperKnot(double distance) const;

  /// \brief Populates the bucket accelerator from the finished grid.
  void BuildInversionIndex();

  std::vector<double> centroid_;
  std::vector<double> quantile_direction_;
  std::vector<double> grid_distance_;  // D(a) at a = kGridLo + i*kGridStep
  /// Inversion accelerator: bucket b (uniform over [D(lo), D(hi)]) maps to
  /// a starting knot near lower_bound(bucket lower edge); a query lands in
  /// its bucket with one multiply and walks at most a knot or two. Empty
  /// when the grid is flat (the search branch is then unreachable).
  std::vector<uint32_t> inv_bucket_start_;
  double inv_bucket_scale_ = 0.0;
};

}  // namespace itrim

#endif  // ITRIM_GAME_POSITION_MAP_H_
