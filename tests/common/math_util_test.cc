#include "common/math_util.h"

#include <gtest/gtest.h>

#include <vector>

namespace itrim {
namespace {

TEST(ClampTest, Bounds) {
  EXPECT_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(DistanceTest, SquaredAndEuclidean) {
  std::vector<double> a = {0.0, 0.0};
  std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, a), 0.0);
}

TEST(DotTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Dot({1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}), 32.0);
}

TEST(AxpyTest, InPlaceUpdate) {
  std::vector<double> a = {1.0, 2.0};
  Axpy(2.0, {10.0, 20.0}, &a);
  EXPECT_DOUBLE_EQ(a[0], 21.0);
  EXPECT_DOUBLE_EQ(a[1], 42.0);
}

TEST(MeanTest, Values) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

TEST(CentroidTest, ComponentwiseMean) {
  auto c = Centroid({{0.0, 0.0}, {2.0, 4.0}});
  ASSERT_EQ(c.size(), 2u);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 2.0);
  EXPECT_TRUE(Centroid({}).empty());
}

TEST(LerpTest, Endpoints) {
  EXPECT_DOUBLE_EQ(Lerp(2.0, 4.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(Lerp(2.0, 4.0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Lerp(2.0, 4.0, 0.5), 3.0);
}

}  // namespace
}  // namespace itrim
