// Differential sweep of OrderResidualRows against a comparator sort on
// (residual with NaN as +inf and -0 as +0, index): the row order must be
// exactly the comparator's permutation. Every size from 1 to the maximum
// (default 1100, past the fitted trim's ~550-row rounds) crosses the
// residual shapes that reach each path of the kernel: the bucket scatter
// with small buckets, the per-bucket std::sort for duplicate keys, +-0
// keys and a lone outlier that stretches the key range, the all-equal
// shortcut, and NaN / +inf keys.
//
// ITRIM_RESIDUAL_ORDER_FUZZ_MAX_N lowers the maximum size; sizes 550 and
// 1100 always run. The sanitizer CI leg runs a short variant through this
// knob.
#include "stats/order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"

namespace itrim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

// Largest swept size, overridable for the short sanitizer sweep.
size_t MaxSize() {
  if (const char* env = std::getenv("ITRIM_RESIDUAL_ORDER_FUZZ_MAX_N")) {
    const int v = std::atoi(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 1100;
}

struct Shape {
  std::string name;
  std::function<double(size_t i, size_t n, Rng* rng)> draw;
};

double HalfNormal(Rng* rng) { return std::fabs(rng->Normal(0.0, 1.0)); }

std::vector<Shape> Shapes() {
  return {
      {"HalfNormal", [](size_t, size_t, Rng* rng) { return HalfNormal(rng); }},
      // A paper-shaped round: clean residuals plus a tenth of poison ones.
      {"PoisonedRound",
       [](size_t i, size_t, Rng* rng) {
         return i % 10 == 9 ? rng->Uniform(2.0, 5.0) : 0.1 * HalfNormal(rng);
       }},
      // Duplicate rows: five distinct positive keys.
      {"Duplicates",
       [](size_t, size_t, Rng* rng) {
         return 0.25 * static_cast<double>(1 + rng->UniformInt(5));
       }},
      // Residuals one ulp apart: keys that differ only in their low bits.
      {"UlpSteps",
       [](size_t, size_t, Rng* rng) {
         double v = 1.5;
         for (uint64_t k = rng->UniformInt(40); k > 0; --k) {
           v = std::nextafter(v, kInf);
         }
         return v;
       }},
      // Exact fits: -0 and +0 residuals share the lowest key.
      {"SignedZeros",
       [](size_t i, size_t, Rng* rng) {
         if (i % 7 == 0) return -0.0;
         if (i % 7 == 3) return 0.0;
         return HalfNormal(rng);
       }},
      {"AllZeros",
       [](size_t i, size_t, Rng*) { return i % 2 == 0 ? -0.0 : 0.0; }},
      // NaN ranks with +inf, after every finite residual.
      {"NaNsAndInfinities",
       [](size_t i, size_t, Rng* rng) {
         if (i % 11 == 7) return kNaN;
         if (i % 13 == 5) return kInf;
         return HalfNormal(rng);
       }},
      {"AllNaN", [](size_t, size_t, Rng*) { return kNaN; }},
      // Denormal keys next to keys near the top of the double range.
      {"DenormalsNextToLarge",
       [](size_t i, size_t, Rng* rng) {
         if (i % 3 == 0) {
           return kDenormMin * static_cast<double>(1 + rng->UniformInt(8));
         }
         if (i % 29 == 1) return kMax;
         return 1e300 * rng->Uniform(0.5, 1.0);
       }},
      {"AllEqual", [](size_t, size_t, Rng*) { return 0.75; }},
      // One huge residual: every other row lands in the lowest bucket.
      {"SingleLargeOutlier",
       [](size_t i, size_t n, Rng* rng) {
         return i == n / 2 ? 1e12 : 1.0 + 1e-3 * rng->Uniform();
       }},
      // One tiny residual below a tight cluster.
      {"SingleTinyOutlier",
       [](size_t i, size_t n, Rng* rng) {
         return i == n / 3 ? kDenormMin : 1.0 + 1e-3 * rng->Uniform();
       }},
  };
}

// The oracle: indices sorted by (residual with NaN as +inf, index). The
// double comparison already ranks -0 equal to +0.
std::vector<size_t> ComparatorOrder(const std::vector<double>& residuals) {
  std::vector<size_t> order(residuals.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double ka = std::isnan(residuals[a]) ? kInf : residuals[a];
    const double kb = std::isnan(residuals[b]) ? kInf : residuals[b];
    if (ka != kb) return ka < kb;
    return a < b;
  });
  return order;
}

std::vector<size_t> Sizes() {
  std::vector<size_t> sizes;
  const size_t max_n = MaxSize();
  for (size_t n = 1; n <= max_n; ++n) sizes.push_back(n);
  for (size_t n : {size_t{550}, size_t{1100}}) {
    if (n > max_n) sizes.push_back(n);
  }
  return sizes;
}

TEST(OrderResidualRowsTest, MatchesComparatorSortOnEveryShapeAndSize) {
  const std::vector<size_t> sizes = Sizes();
  size_t compared = 0;
  for (const Shape& shape : Shapes()) {
    // Scratch reused across sizes, as the fitted trim reuses its own.
    std::vector<uint64_t> keys;
    std::vector<size_t> order;
    for (size_t n : sizes) {
      SCOPED_TRACE(shape.name + " n=" + std::to_string(n));
      Rng rng(n * 2654435761u + shape.name.size());
      std::vector<double> residuals(n);
      for (size_t i = 0; i < n; ++i) residuals[i] = shape.draw(i, n, &rng);
      keys.assign(n, 0);
      order.assign(n, n);
      OrderResidualRows(residuals, keys, order);
      ASSERT_EQ(order, ComparatorOrder(residuals));
      ++compared;
    }
  }
  EXPECT_EQ(compared, Shapes().size() * sizes.size());
}

TEST(OrderResidualRowsTest, EmptyInputIsANoOp) {
  OrderResidualRows({}, {}, {});
}

}  // namespace
}  // namespace itrim
