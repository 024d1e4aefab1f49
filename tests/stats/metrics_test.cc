#include "stats/metrics.h"

#include <gtest/gtest.h>

#include <vector>

namespace itrim {
namespace {

TEST(ClusteringSseTest, AssignedCentroids) {
  std::vector<std::vector<double>> points = {{0.0}, {1.0}, {10.0}};
  std::vector<std::vector<double>> centroids = {{0.5}, {10.0}};
  std::vector<size_t> assignment = {0, 0, 1};
  EXPECT_DOUBLE_EQ(ClusteringSse(points, centroids, assignment), 0.5);
}

TEST(CentroidSetDistanceTest, IdenticalSetsZero) {
  std::vector<std::vector<double>> a = {{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(CentroidSetDistance(a, a), 0.0);
}

TEST(CentroidSetDistanceTest, PermutationInvariant) {
  std::vector<std::vector<double>> a = {{0.0, 0.0}, {5.0, 5.0}};
  std::vector<std::vector<double>> b = {{5.0, 5.0}, {0.0, 0.0}};
  EXPECT_DOUBLE_EQ(CentroidSetDistance(a, b), 0.0);
}

TEST(CentroidSetDistanceTest, SimpleOffset) {
  std::vector<std::vector<double>> a = {{0.0}, {10.0}};
  std::vector<std::vector<double>> b = {{1.0}, {10.0}};
  EXPECT_DOUBLE_EQ(CentroidSetDistance(a, b), 1.0);
}

TEST(CentroidSetDistanceTest, UnequalSizesMatchGreedy) {
  std::vector<std::vector<double>> a = {{0.0}};
  std::vector<std::vector<double>> b = {{2.0}, {100.0}};
  // Only one pair can match: |0-2| = 2.
  EXPECT_DOUBLE_EQ(CentroidSetDistance(a, b), 2.0);
}

TEST(ConfusionMatrixTest, AccuracyAndCounts) {
  ConfusionMatrix cm(3);
  cm.Add(0, 0);
  cm.Add(0, 0);
  cm.Add(1, 1);
  cm.Add(2, 1);
  EXPECT_EQ(cm.total(), 4u);
  EXPECT_EQ(cm.Count(0, 0), 2u);
  EXPECT_EQ(cm.Count(2, 1), 1u);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.75);
}

TEST(ConfusionMatrixTest, EmptyAccuracyZero) {
  ConfusionMatrix cm(2);
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 0.0);
}

TEST(ConfusionMatrixTest, PpvOfEachClass) {
  ConfusionMatrix cm(2);
  cm.Add(0, 0);  // true 0 predicted 0
  cm.Add(1, 0);  // true 1 predicted 0 (false discovery for class 0)
  cm.Add(1, 1);
  EXPECT_DOUBLE_EQ(cm.Ppv(0), 0.5);
  EXPECT_DOUBLE_EQ(cm.Ppv(1), 1.0);
}

TEST(ConfusionMatrixTest, UnpredictedClassPpvZero) {
  ConfusionMatrix cm(3);
  cm.Add(0, 0);
  EXPECT_DOUBLE_EQ(cm.Ppv(2), 0.0);
}

TEST(ConfusionMatrixTest, PerfectClassifier) {
  ConfusionMatrix cm(4);
  for (size_t c = 0; c < 4; ++c) {
    for (int i = 0; i < 5; ++i) cm.Add(c, c);
  }
  EXPECT_DOUBLE_EQ(cm.Accuracy(), 1.0);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_DOUBLE_EQ(cm.Ppv(c), 1.0);
  }
}

}  // namespace
}  // namespace itrim
