#include "game/position_map.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/math_util.h"
#include "common/rng.h"
#include "data/generators.h"
#include "stats/quantile.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

std::vector<std::vector<double>> GaussianSample(size_t n, size_t dims,
                                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(dims);
    for (auto& v : row) v = rng.Normal();
    rows.push_back(std::move(row));
  }
  return rows;
}

TEST(PositionMapTest, ValidatesInput) {
  EXPECT_FALSE(PositionMap::Build({}).ok());
  EXPECT_FALSE(PositionMap::Build({{1.0}}).ok());
  EXPECT_FALSE(PositionMap::Build({{1.0}, {1.0, 2.0}}).ok());
  // Constant sample: no spread around the centroid.
  EXPECT_FALSE(PositionMap::Build({{1.0, 1.0}, {1.0, 1.0}}).ok());
}

TEST(PositionMapTest, RejectsNonFiniteSampleValues) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (double v : bad) {
    auto sample = GaussianSample(50, 3, 9);
    sample[17][2] = v;
    auto map = PositionMap::Build(sample);
    ASSERT_FALSE(map.ok()) << v;
    EXPECT_EQ(map.status().code(), StatusCode::kInvalidArgument) << v;
  }
}

TEST(PositionMapTest, BorrowedRowsBuildTheSameMap) {
  const auto sample = GaussianSample(300, 5, 10);
  std::vector<const double*> rows;
  for (const auto& row : sample) rows.push_back(row.data());
  auto owned = PositionMap::Build(sample).ValueOrDie();
  auto borrowed = PositionMap::Build(rows, 5).ValueOrDie();
  EXPECT_EQ(owned.centroid(), borrowed.centroid());
  EXPECT_EQ(owned.quantile_direction(), borrowed.quantile_direction());
  EXPECT_FALSE(PositionMap::Build(rows, 0).ok());
  EXPECT_FALSE(
      PositionMap::Build(std::span<const double* const>(rows.data(), 1), 5)
          .ok());
}

// --- Differential test: upper-rank ordering vs a full per-column sort ---

constexpr double kGridLo = 0.5;
constexpr double kGridStep = 0.005;

// Line-by-line replica of the full-sort PositionMap::Build: every column
// sorted whole, the quantile vector evaluated per knot.
struct LegacyGeometry {
  std::vector<double> centroid;
  std::vector<double> grid;
  std::vector<double> direction;
};

Result<LegacyGeometry> LegacyBuild(
    const std::vector<std::vector<double>>& sample) {
  const size_t dims = sample[0].size();
  LegacyGeometry g;
  g.centroid = Centroid(sample);
  std::vector<std::vector<double>> columns(dims);
  for (size_t j = 0; j < dims; ++j) {
    for (const auto& row : sample) columns[j].push_back(row[j]);
    std::sort(columns[j].begin(), columns[j].end());
  }
  const size_t knots =
      static_cast<size_t>(std::lround((1.0 - kGridLo) / kGridStep)) + 1;
  g.grid.resize(knots);
  std::vector<double> qvec(dims);
  for (size_t i = 0; i < knots; ++i) {
    double a = kGridLo + static_cast<double>(i) * kGridStep;
    for (size_t j = 0; j < dims; ++j) qvec[j] = QuantileSorted(columns[j], a);
    g.grid[i] = EuclideanDistance(qvec, g.centroid);
  }
  for (size_t i = 1; i < knots; ++i) {
    g.grid[i] = std::max(g.grid[i], g.grid[i - 1]);
  }
  if (g.grid.back() <= 0.0) {
    return Status::InvalidArgument("sample has no spread around centroid");
  }
  for (size_t j = 0; j < dims; ++j) qvec[j] = QuantileSorted(columns[j], 0.95);
  g.direction.resize(dims);
  double norm = EuclideanDistance(qvec, g.centroid);
  if (norm <= 0.0) norm = 1.0;
  for (size_t j = 0; j < dims; ++j) {
    g.direction[j] = (qvec[j] - g.centroid[j]) / norm;
  }
  return g;
}

// DistanceAt / PositionOf over the legacy grid, with a plain binary search
// standing in for the inversion accelerator.
double LegacyDistanceAt(const std::vector<double>& grid, double position) {
  if (position <= kGridLo) {
    return grid.front() * std::max(position, 0.0) / kGridLo;
  }
  if (position >= 1.0) return grid.back() * (1.0 + (position - 1.0));
  double idx = (position - kGridLo) / kGridStep;
  size_t lo = static_cast<size_t>(idx);
  size_t hi = std::min(lo + 1, grid.size() - 1);
  return Lerp(grid[lo], grid[hi], idx - static_cast<double>(lo));
}

double LegacyPositionOf(const std::vector<double>& grid, double distance) {
  const double d_lo = grid.front();
  const double d_hi = grid.back();
  if (distance <= d_lo) return d_lo > 0.0 ? kGridLo * distance / d_lo : 0.0;
  if (distance >= d_hi) return 1.0 + (distance - d_hi) / d_hi;
  size_t hi = static_cast<size_t>(
      std::lower_bound(grid.begin(), grid.end(), distance) - grid.begin());
  size_t lo = hi == 0 ? 0 : hi - 1;
  double span = grid[hi] - grid[lo];
  double frac = span > 0.0 ? (distance - grid[lo]) / span : 0.0;
  return kGridLo + (static_cast<double>(lo) + frac) * kGridStep;
}

enum class Shape {
  kGaussian,
  kDuplicates,
  kConstantColumn,
  kFarOutlier,
  kSignedZeros
};

std::vector<std::vector<double>> ShapedSample(Shape shape, size_t n,
                                              size_t dims, uint64_t seed) {
  auto rows = GaussianSample(n, dims, seed);
  Rng rng(seed ^ 0x5A5A);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < dims; ++j) {
      double& v = rows[i][j];
      switch (shape) {
        case Shape::kGaussian:
          break;
        case Shape::kDuplicates:  // a handful of distinct values
          v = static_cast<double>(rng.UniformInt(4)) - 1.5;
          break;
        case Shape::kConstantColumn:
          if (j == 0) v = 3.25;
          break;
        case Shape::kFarOutlier:  // everything else lands in one bucket
          if (i == n / 2) v = 1e9;
          break;
        case Shape::kSignedZeros: {
          const double pool[] = {-0.0, 0.0, -2.5, 2.5, -0.0, 0.0, 1.0};
          v = pool[rng.UniformInt(7)];
          break;
        }
      }
    }
  }
  return rows;
}

// Builds `sample` both ways and compares centroid, direction and every
// knot's forward and inverse lookups bit for bit.
void ExpectMatchesLegacyBuild(const std::vector<std::vector<double>>& sample) {
  const size_t dims = sample[0].size();
  auto legacy = LegacyBuild(sample);
  auto built = PositionMap::Build(sample);
  ASSERT_EQ(legacy.ok(), built.ok());
  if (!built.ok()) {
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    return;
  }
  const LegacyGeometry& g = legacy.ValueOrDie();
  const PositionMap& map = built.ValueOrDie();
  ASSERT_EQ(map.grid_size(), g.grid.size());
  for (size_t j = 0; j < dims; ++j) {
    EXPECT_TRUE(BitEqual(map.centroid()[j], g.centroid[j])) << j;
    EXPECT_TRUE(BitEqual(map.quantile_direction()[j], g.direction[j])) << j;
  }
  for (size_t i = 0; i < g.grid.size(); ++i) {
    const double a = kGridLo + static_cast<double>(i) * kGridStep;
    EXPECT_TRUE(BitEqual(map.DistanceAt(a), LegacyDistanceAt(g.grid, a)))
        << "knot " << i;
    EXPECT_TRUE(BitEqual(map.PositionOf(g.grid[i]),
                         LegacyPositionOf(g.grid, g.grid[i])))
        << "knot " << i;
  }
}

TEST(PositionMapDifferentialTest, MatchesFullSortBuildBitForBit) {
  const size_t sizes[] = {2, 3, 4, 5, 7, 500, 501, 2000};
  const size_t widths[] = {1, 3, 60};
  const Shape shapes[] = {Shape::kGaussian, Shape::kDuplicates,
                          Shape::kConstantColumn, Shape::kFarOutlier,
                          Shape::kSignedZeros};
  uint64_t seed = 100;
  for (Shape shape : shapes) {
    for (size_t n : sizes) {
      for (size_t dims : widths) {
        SCOPED_TRACE("shape=" + std::to_string(static_cast<int>(shape)) +
                     " n=" + std::to_string(n) +
                     " dims=" + std::to_string(dims));
        ExpectMatchesLegacyBuild(ShapedSample(shape, n, dims, ++seed));
      }
    }
  }
}

// A column of finite values whose range hi - lo overflows to +inf (its
// sum stays finite, so Build accepts it). The ordering must take its
// std::sort path rather than bucket with a zero scale, where inf * 0 is a
// NaN cast to an integer (undefined behaviour, reported by the sanitizer
// build's float-cast-overflow check).
TEST(PositionMapDifferentialTest, ExtremeRangeColumnMatchesFullSort) {
  for (size_t n : {size_t{2}, size_t{3}, size_t{500}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    auto sample = GaussianSample(n, 3, 55 + n);
    for (size_t i = 0; i < n; ++i) {
      sample[i][1] = (i % 2 == 0 ? 1.0 : -1.0) * 1e308;
    }
    ExpectMatchesLegacyBuild(sample);
  }
}

TEST(PositionMapTest, DistanceIsMonotoneInPosition) {
  auto map = PositionMap::Build(GaussianSample(2000, 8, 1)).ValueOrDie();
  double prev = -1.0;
  for (double a = 0.0; a <= 1.3; a += 0.01) {
    double d = map.DistanceAt(a);
    EXPECT_GE(d, prev) << "a=" << a;
    prev = d;
  }
}

TEST(PositionMapTest, RoundTripPositionDistance) {
  auto map = PositionMap::Build(GaussianSample(2000, 8, 2)).ValueOrDie();
  for (double a : {0.55, 0.7, 0.85, 0.9, 0.95, 0.99, 1.0, 1.1}) {
    EXPECT_NEAR(map.PositionOf(map.DistanceAt(a)), a, 0.006) << "a=" << a;
  }
}

TEST(PositionMapTest, MakePointHasRequestedPosition) {
  auto map = PositionMap::Build(GaussianSample(2000, 8, 3)).ValueOrDie();
  Rng rng(4);
  auto dir = rng.UnitVector(8);
  for (double a : {0.87, 0.9, 0.99}) {
    std::vector<double> point(8);
    map.MakePointInto(a, dir, point);
    EXPECT_NEAR(map.PositionOfRow(point), a, 0.006) << "a=" << a;
  }
}

TEST(PositionMapTest, ExtrapolatesBeyondDomain) {
  auto map = PositionMap::Build(GaussianSample(2000, 8, 5)).ValueOrDie();
  double d1 = map.DistanceAt(1.0);
  EXPECT_NEAR(map.DistanceAt(1.5), 1.5 * d1, 1e-9);
  EXPECT_NEAR(map.PositionOf(2.0 * d1), 2.0, 1e-9);
}

TEST(PositionMapTest, ShrinksTowardCentroid) {
  auto map = PositionMap::Build(GaussianSample(2000, 8, 6)).ValueOrDie();
  EXPECT_NEAR(map.DistanceAt(0.0), 0.0, 1e-12);
  EXPECT_NEAR(map.PositionOfRow(map.centroid()), 0.0, 1e-9);
}

TEST(PositionMapTest, ControlGeometryMatchesProbe) {
  // The calibration facts DESIGN.md relies on: benign loss at threshold
  // T = 0.9 is ~12%, and ~0 at T >= 0.95 (Fig 4 vs Fig 5 overhead).
  Dataset control = MakeControl(21);
  auto map = PositionMap::Build(control.rows).ValueOrDie();
  size_t above_90 = 0, above_95 = 0;
  for (const auto& row : control.rows) {
    double pos = map.PositionOfRow(row);
    if (pos > 0.90) ++above_90;
    if (pos > 0.95) ++above_95;
  }
  double frac_90 = static_cast<double>(above_90) / control.size();
  double frac_95 = static_cast<double>(above_95) / control.size();
  EXPECT_NEAR(frac_90, 0.12, 0.05);
  EXPECT_LT(frac_95, 0.01);
}

TEST(PositionMapTest, DamageGapBetweenPositions) {
  // Poison at position 0.99 must be much farther out than at 0.87 — the
  // damage gap behind the Ostrich-vs-defenses ordering.
  Dataset control = MakeControl(22);
  auto map = PositionMap::Build(control.rows).ValueOrDie();
  EXPECT_GT(map.DistanceAt(0.99), 1.5 * map.DistanceAt(0.87));
}

// Property sweep: the map stays consistent across datasets.
class PositionMapDatasetTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PositionMapDatasetTest, InverseConsistency) {
  auto data = MakeByName(GetParam(), 7, 0.1).ValueOrDie();
  auto map = PositionMap::Build(data.rows).ValueOrDie();
  for (double a : {0.6, 0.8, 0.9, 0.99}) {
    EXPECT_NEAR(map.PositionOf(map.DistanceAt(a)), a, 0.01)
        << GetParam() << " a=" << a;
  }
  // Benign rows score mostly below 1 (within the observed domain).
  size_t above_one = 0;
  for (const auto& row : data.rows) {
    if (map.PositionOfRow(row) > 1.0) ++above_one;
  }
  EXPECT_LT(static_cast<double>(above_one) / data.size(), 0.02);
}

INSTANTIATE_TEST_SUITE_P(Datasets, PositionMapDatasetTest,
                         ::testing::Values("control", "vehicle", "letter",
                                           "creditcard"));

}  // namespace
}  // namespace itrim
