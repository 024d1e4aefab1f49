#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace itrim {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanApproachesHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) acc += rng.Uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformInt(10)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalShiftScale) {
  Rng rng(23);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.Normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, LaplaceMomentsMatch) {
  Rng rng(29);
  const int n = 200000;
  const double b = 1.5;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Laplace(b);
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  // Var(Laplace(b)) = 2 b^2 = 4.5.
  EXPECT_NEAR(sum_sq / n, 2.0 * b * b, 0.15);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(31);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(41);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(RngTest, CategoricalZeroTotalReturnsSize) {
  Rng rng(43);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.Categorical(weights), weights.size());
}

TEST(RngTest, UnitVectorHasUnitNorm) {
  Rng rng(47);
  for (size_t dim : {1u, 2u, 16u, 60u}) {
    auto v = rng.UnitVector(dim);
    ASSERT_EQ(v.size(), dim);
    double norm_sq = 0.0;
    for (double x : v) norm_sq += x * x;
    EXPECT_NEAR(norm_sq, 1.0, 1e-12);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(53);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ShuffleEmptyAndSingleton) {
  Rng rng(59);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  rng.Shuffle(&one);
  EXPECT_EQ(one[0], 42);
}

TEST(RngTest, SampleWithoutReplacementUnique) {
  Rng rng(61);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  ASSERT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(RngTest, SampleAllElements) {
  Rng rng(67);
  auto sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(0), b(0);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), b.Next());
}

}  // namespace
}  // namespace itrim
