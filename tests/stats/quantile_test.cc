#include "stats/quantile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"

namespace itrim {
namespace {

TEST(QuantileSortedTest, SingleElement) {
  std::vector<double> v = {3.0};
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 1.0), 3.0);
}

TEST(QuantileSortedTest, MedianOfTwoInterpolates) {
  std::vector<double> v = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.5), 2.0);
}

TEST(QuantileSortedTest, MatlabPrctileBreakpoints) {
  // MATLAB: prctile([1 2 3 4], 50) = 2.5; prctile([1 2 3 4], 25) = 1.5.
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.25), 1.5);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.75), 3.5);
}

TEST(QuantileSortedTest, ExtremesClampToMinMax) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 1.0), 5.0);
  // Below 1/(2n) and above 1 - 1/(2n) the estimate saturates.
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.05), 1.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 0.95), 5.0);
}

TEST(QuantileSortedTest, OutOfRangeQClamped) {
  std::vector<double> v = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(QuantileSorted(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(v, 1.5), 2.0);
}

TEST(QuantileTest, UnsortedInputHandled) {
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
}

TEST(QuantileTest, MonotoneInQ) {
  Rng rng(5);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.Normal());
  std::sort(v.begin(), v.end());
  double prev = QuantileSorted(v, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    double cur = QuantileSorted(v, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(PercentileRankSortedTest, Values) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(PercentileRankSorted(v, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(PercentileRankSorted(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(PercentileRankSorted(v, 9.0), 1.0);
}

TEST(QuantileRankInverseTest, RankOfQuantileIsApproxQ) {
  Rng rng(9);
  std::vector<double> v;
  for (int i = 0; i < 2000; ++i) v.push_back(rng.Uniform());
  std::sort(v.begin(), v.end());
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    double value = QuantileSorted(v, q);
    double rank = PercentileRankSorted(v, value);
    EXPECT_NEAR(rank, q, 0.01);
  }
}

}  // namespace
}  // namespace itrim
