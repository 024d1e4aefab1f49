// Differential tests of OrderUpperRanks against std::sort: every rank the
// kernel orders must hold std::sort's value bit for bit, and the output as
// a whole must be a permutation of the input. The sweep crosses the input
// shapes that reach each of the kernel's paths (the bucket scatter with
// small and flooded buckets, and the std::sort fallback for degenerate,
// overflowing and non-finite ranges) with sizes around every boundary and
// the three lo_rank regimes (all ranks, the upper half, the top rank).
#include "stats/order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"

namespace itrim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

struct Shape {
  std::string name;
  std::function<double(size_t i, Rng* rng)> draw;
};

std::vector<Shape> Shapes() {
  return {
      {"Uniform", [](size_t, Rng* rng) { return rng->Uniform(-4.0, 4.0); }},
      {"Normal", [](size_t, Rng* rng) { return rng->Normal(3.0, 0.5); }},
      // Five distinct keys: every bucket holding one is far past the
      // insertion bound, so the per-bucket std::sort runs.
      {"DuplicateFlood",
       [](size_t, Rng* rng) {
         return static_cast<double>(rng->UniformInt(5));
       }},
      // All values but the last within 1e-9 of zero: one bucket holds
      // nearly the whole sample.
      {"SingleBucket",
       [](size_t i, Rng* rng) {
         return i % 97 == 96 ? 1.0 : rng->Uniform() * 1e-9;
       }},
      {"AllEqual", [](size_t, Rng*) { return 2.5; }},
      // hi - lo overflows to +inf although every value is finite.
      {"RangeOverflows",
       [](size_t i, Rng* rng) {
         return (i % 2 == 0 ? 1.0 : -1.0) * kMax * rng->Uniform(0.5, 1.0);
       }},
      // A range of a few denormals: (K - 1) / range overflows to +inf.
      {"ScaleOverflows",
       [](size_t, Rng* rng) {
         return kDenormMin * static_cast<double>(rng->UniformInt(4));
       }},
      {"Infinities",
       [](size_t i, Rng* rng) {
         if (i % 13 == 5) return kInf;
         if (i % 17 == 3) return -kInf;
         return rng->Uniform(-1.0, 1.0);
       }},
      {"NaNs",
       [](size_t i, Rng* rng) {
         return i % 11 == 7 ? std::numeric_limits<double>::quiet_NaN()
                            : rng->Uniform(-1.0, 1.0);
       }},
  };
}

std::vector<uint64_t> SortedBits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    bits[i] = std::bit_cast<uint64_t>(values[i]);
  }
  std::sort(bits.begin(), bits.end());
  return bits;
}

TEST(OrderUpperRanksTest, MatchesStdSortOnEveryShapeSizeAndLoRank) {
  for (const Shape& shape : Shapes()) {
    for (size_t n : std::vector<size_t>{0, 1, 2, 3, 17, 500, 4097}) {
      std::vector<size_t> lo_ranks = {0};
      if (n > 0) lo_ranks = {0, n / 2, n - 1};
      for (size_t lo_rank : lo_ranks) {
        SCOPED_TRACE(shape.name + " n=" + std::to_string(n) +
                     " lo_rank=" + std::to_string(lo_rank));
        Rng rng(n * 131 + lo_rank);
        std::vector<double> in(n);
        for (size_t i = 0; i < n; ++i) in[i] = shape.draw(i, &rng);
        std::vector<double> expected = in;
        std::sort(expected.begin(), expected.end());
        std::vector<double> out(n, -1.0);
        OrderUpperRanks(in, lo_rank, out);
        for (size_t r = lo_rank; r < n; ++r) {
          ASSERT_EQ(std::bit_cast<uint64_t>(out[r]),
                    std::bit_cast<uint64_t>(expected[r]))
              << "rank " << r;
        }
        EXPECT_EQ(SortedBits(out), SortedBits(in));
      }
    }
  }
}

// lo_rank == n orders nothing but still hands back every value.
TEST(OrderUpperRanksTest, LoRankAtSizeKeepsTheValues) {
  const std::vector<double> in = {3.0, 1.0, 2.0};
  std::vector<double> out(3);
  OrderUpperRanks(in, 3, out);
  EXPECT_EQ(SortedBits(out), SortedBits(in));
}

// Equal values keep their input order wherever the insertion pass alone
// orders a bucket: with ~1 value per bucket, the mixed -0.0 / +0.0 zeros
// share one small bucket and must come out exactly as std::stable_sort
// leaves them.
TEST(OrderUpperRanksTest, KeepsInputOrderOfEqualValuesInSmallBuckets) {
  Rng rng(77);
  std::vector<double> in;
  for (size_t i = 0; i < 500; ++i) {
    in.push_back(i % 50 == 0 ? (i % 100 == 0 ? -0.0 : 0.0)
                             : rng.Uniform(-1.0, 1.0));
  }
  std::vector<double> expected = in;
  std::stable_sort(expected.begin(), expected.end());
  std::vector<double> out(in.size());
  OrderUpperRanks(in, 0, out);
  for (size_t r = 0; r < in.size(); ++r) {
    ASSERT_EQ(std::bit_cast<uint64_t>(out[r]),
              std::bit_cast<uint64_t>(expected[r]))
        << "rank " << r;
  }
}

}  // namespace
}  // namespace itrim
