#include "ml/som.h"

#include <gtest/gtest.h>

#include <set>

#include "common/math_util.h"
#include "common/rng.h"
#include "data/generators.h"

namespace itrim {
namespace {

Dataset MakeBlobs(uint64_t seed, size_t per_class) {
  Rng rng(seed);
  Dataset ds;
  ds.num_clusters = 3;
  const std::vector<std::vector<double>> centers = {
      {0.0, 0.0}, {6.0, 0.0}, {0.0, 6.0}};
  for (size_t c = 0; c < centers.size(); ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      ds.rows.push_back({centers[c][0] + rng.Normal(0.0, 0.4),
                         centers[c][1] + rng.Normal(0.0, 0.4)});
      ds.labels.push_back(static_cast<int>(c));
    }
  }
  return ds;
}

SomConfig SmallConfig() {
  SomConfig c;
  c.width = 8;
  c.height = 8;
  c.epochs = 8;
  c.seed = 3;
  return c;
}

TEST(SomTest, TrainsAndQuantizes) {
  Dataset ds = MakeBlobs(1, 100);
  auto som = Som::Train(ds, SmallConfig()).ValueOrDie();
  EXPECT_EQ(som.width(), 8u);
  EXPECT_EQ(som.height(), 8u);
  EXPECT_EQ(som.weights().size(), 64u);
  // Quantization error should be on the order of the blob spread.
  EXPECT_LT(som.QuantizationError(ds.rows), 0.6);
}

TEST(SomTest, BmuIsNearestNode) {
  Dataset ds = MakeBlobs(2, 50);
  auto som = Som::Train(ds, SmallConfig()).ValueOrDie();
  for (size_t i = 0; i < 10; ++i) {
    size_t bmu = som.BestMatchingUnit(ds.rows[i]);
    double bmu_dist = EuclideanDistance(ds.rows[i], som.weights()[bmu]);
    for (const auto& w : som.weights()) {
      EXPECT_LE(bmu_dist, EuclideanDistance(ds.rows[i], w) + 1e-12);
    }
  }
}

TEST(SomTest, SeparatedClassesOwnDistinctRegions) {
  Dataset ds = MakeBlobs(3, 150);
  auto som = Som::Train(ds, SmallConfig()).ValueOrDie();
  EXPECT_EQ(som.ClassesRepresented(ds), 3u);
  // The BMUs of different classes must not coincide.
  std::set<size_t> bmu0, bmu1;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (ds.labels[i] == 0) bmu0.insert(som.BestMatchingUnit(ds.rows[i]));
    if (ds.labels[i] == 1) bmu1.insert(som.BestMatchingUnit(ds.rows[i]));
  }
  for (size_t n : bmu0) EXPECT_EQ(bmu1.count(n), 0u);
}

TEST(SomTest, LabelMapMarksEmptyNodes) {
  Dataset ds = MakeBlobs(6, 30);
  auto som = Som::Train(ds, SmallConfig()).ValueOrDie();
  auto labels = som.LabelMap(ds);
  ASSERT_EQ(labels.size(), 64u);
  for (int l : labels) {
    EXPECT_GE(l, -1);
    EXPECT_LT(l, 3);
  }
}

TEST(SomTest, ValidatesInput) {
  Dataset empty;
  EXPECT_FALSE(Som::Train(empty, SmallConfig()).ok());
  Dataset ds = MakeBlobs(7, 10);
  SomConfig bad = SmallConfig();
  bad.width = 0;
  EXPECT_FALSE(Som::Train(ds, bad).ok());
  bad = SmallConfig();
  bad.epochs = 0;
  EXPECT_FALSE(Som::Train(ds, bad).ok());
}

TEST(SomTest, DeterministicInSeed) {
  Dataset ds = MakeBlobs(8, 60);
  auto a = Som::Train(ds, SmallConfig()).ValueOrDie();
  auto b = Som::Train(ds, SmallConfig()).ValueOrDie();
  EXPECT_EQ(a.weights(), b.weights());
}

TEST(SomTest, RareClassVisibleOnCreditcardShape) {
  Dataset ds = MakeCreditcard(9, 2000);
  SomConfig config;
  config.width = 12;
  config.height = 12;
  config.epochs = 6;
  auto som = Som::Train(ds, config).ValueOrDie();
  // At minimum, the bulk and the green segment should own regions.
  EXPECT_GE(som.ClassesRepresented(ds), 2u);
}

// Property: more epochs never drastically worsen quantization error.
class EpochSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(EpochSweepTest, QuantizationErrorReasonable) {
  Dataset ds = MakeBlobs(10, 100);
  SomConfig config = SmallConfig();
  config.epochs = GetParam();
  auto som = Som::Train(ds, config).ValueOrDie();
  EXPECT_LT(som.QuantizationError(ds.rows), 1.2);
}

INSTANTIATE_TEST_SUITE_P(Epochs, EpochSweepTest,
                         ::testing::Values(2, 4, 8, 16));

}  // namespace
}  // namespace itrim
