#include "data/dataset.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace itrim {
namespace {

Dataset MakeTiny() {
  Dataset ds;
  ds.name = "tiny";
  ds.rows = {{0.0, 1.0}, {2.0, 3.0}, {4.0, 5.0}};
  ds.labels = {0, 1, 0};
  ds.num_clusters = 2;
  return ds;
}

TEST(DatasetTest, BasicAccessors) {
  Dataset ds = MakeTiny();
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.dims(), 2u);
  EXPECT_TRUE(ds.labeled());
  EXPECT_TRUE(ds.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsLabelMismatch) {
  Dataset ds = MakeTiny();
  ds.labels.pop_back();
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsRaggedRows) {
  Dataset ds = MakeTiny();
  ds.rows[1].push_back(9.0);
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(DatasetTest, ValidateRejectsZeroClusters) {
  Dataset ds = MakeTiny();
  ds.num_clusters = 0;
  EXPECT_FALSE(ds.Validate().ok());
}

TEST(NormalizeMinMaxTest, MapsIntoUnitRange) {
  Dataset ds = MakeTiny();
  NormalizeMinMax(&ds);
  for (const auto& row : ds.rows) {
    for (double v : row) {
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
  }
  EXPECT_DOUBLE_EQ(ds.rows[0][0], -1.0);
  EXPECT_DOUBLE_EQ(ds.rows[2][0], 1.0);
  EXPECT_DOUBLE_EQ(ds.rows[1][0], 0.0);
}

TEST(NormalizeMinMaxTest, ConstantFeatureMapsToZero) {
  Dataset ds;
  ds.rows = {{5.0, 1.0}, {5.0, 2.0}};
  NormalizeMinMax(&ds);
  EXPECT_DOUBLE_EQ(ds.rows[0][0], 0.0);
  EXPECT_DOUBLE_EQ(ds.rows[1][0], 0.0);
}

TEST(SampleWithReplacementTest, SizeAndMembership) {
  Dataset ds = MakeTiny();
  Rng rng(3);
  Dataset sample = SampleWithReplacement(ds, 50, &rng);
  EXPECT_EQ(sample.size(), 50u);
  EXPECT_EQ(sample.labels.size(), 50u);
  for (size_t i = 0; i < sample.size(); ++i) {
    bool found = false;
    for (size_t j = 0; j < ds.size(); ++j) {
      if (sample.rows[i] == ds.rows[j] &&
          sample.labels[i] == ds.labels[j]) {
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

}  // namespace
}  // namespace itrim
