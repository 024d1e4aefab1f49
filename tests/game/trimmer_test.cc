#include "game/trimmer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace itrim {
namespace {

TEST(TrimAboveValueTest, StrictlyAboveRemoved) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  auto outcome = TrimAboveValue(values, 2.0);
  EXPECT_EQ(outcome.kept_count, 2u);
  EXPECT_EQ(outcome.removed_count, 2u);
  EXPECT_EQ(outcome.keep[0], 1);
  EXPECT_EQ(outcome.keep[1], 1);  // tie at the cutoff survives
  EXPECT_EQ(outcome.keep[2], 0);
  EXPECT_EQ(outcome.keep[3], 0);
  EXPECT_DOUBLE_EQ(outcome.cutoff, 2.0);
}

TEST(TrimAboveValueTest, EmptyInput) {
  auto outcome = TrimAboveValue({}, 1.0);
  EXPECT_EQ(outcome.kept_count, 0u);
  EXPECT_EQ(outcome.removed_count, 0u);
}

TEST(TrimAtReferencePercentileTest, CutoffFromReference) {
  std::vector<double> reference = {1.0, 2.0, 3.0, 4.0, 5.0,
                                   6.0, 7.0, 8.0, 9.0, 10.0};
  std::vector<double> round = {0.5, 5.0, 9.9, 20.0};
  auto outcome =
      TrimAtReferencePercentile(round, reference, 0.9).ValueOrDie();
  // 0.9-quantile of the reference is 9.5: 9.9 and 20.0 are removed.
  EXPECT_EQ(outcome.kept_count, 2u);
  EXPECT_EQ(outcome.keep[0], 1);
  EXPECT_EQ(outcome.keep[1], 1);
  EXPECT_EQ(outcome.keep[2], 0);
  EXPECT_EQ(outcome.keep[3], 0);
}

TEST(TrimAtReferencePercentileTest, EmptyReferenceFails) {
  const std::vector<double> round = {1.0};
  auto outcome = TrimAtReferencePercentile(round, {}, 0.9);
  EXPECT_FALSE(outcome.ok());
}

TEST(TrimAtReferencePercentileTest, QAtLeastOneKeepsEverything) {
  const std::vector<double> round = {100.0};
  auto outcome = TrimAtReferencePercentile(round, {1.0}, 1.0).ValueOrDie();
  EXPECT_EQ(outcome.kept_count, 1u);
  EXPECT_TRUE(std::isinf(outcome.cutoff));
}

TEST(TrimTopFractionTest, RemovesExactCount) {
  std::vector<double> v = {5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0};
  auto outcome = TrimTopFraction(v, 0.8);  // remove top 20% = 2 values
  EXPECT_EQ(outcome.removed_count, 2u);
  EXPECT_EQ(outcome.kept_count, 8u);
  // The two largest (9, 8) must be gone.
  EXPECT_EQ(outcome.keep[2], 0);
  EXPECT_EQ(outcome.keep[6], 0);
}

TEST(TrimTopFractionTest, CutoffIsSmallestRemoved) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  auto outcome = TrimTopFraction(v, 0.5);
  EXPECT_EQ(outcome.removed_count, 2u);
  EXPECT_DOUBLE_EQ(outcome.cutoff, 3.0);
}

TEST(TrimTopFractionTest, KeepAllWhenQGeOne) {
  std::vector<double> v = {1.0, 2.0};
  auto outcome = TrimTopFraction(v, 1.0);
  EXPECT_EQ(outcome.kept_count, 2u);
}

TEST(TrimTopFractionTest, RemoveAllWhenQZero) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  auto outcome = TrimTopFraction(v, 0.0);
  EXPECT_EQ(outcome.removed_count, 3u);
  EXPECT_EQ(outcome.kept_count, 0u);
}

TEST(TrimTopFractionTest, AtomAtThresholdPartiallyRemoved) {
  // 20 duplicates at the top: fraction trimming removes exactly ceil((1-q)n)
  // of them, modeling the percentile-atom behavior of the MATLAB pipeline.
  std::vector<double> v(80, 1.0);
  v.insert(v.end(), 20, 5.0);
  auto outcome = TrimTopFraction(v, 0.9);
  EXPECT_EQ(outcome.removed_count, 10u);
  size_t atoms_kept = 0;
  for (size_t i = 80; i < 100; ++i) atoms_kept += outcome.keep[i];
  EXPECT_EQ(atoms_kept, 10u);
}

// Property: for any data, reference-percentile trimming keeps a value iff
// its value is <= the reference quantile — so keeping is monotone in q.
class TrimMonotonicityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrimMonotonicityTest, KeptCountMonotoneInQ) {
  Rng rng(GetParam());
  std::vector<double> reference, round;
  for (int i = 0; i < 500; ++i) reference.push_back(rng.Normal());
  for (int i = 0; i < 200; ++i) round.push_back(rng.Normal());
  size_t prev_kept = 0;
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    auto outcome = TrimAtReferencePercentile(round, reference, q).ValueOrDie();
    EXPECT_GE(outcome.kept_count, prev_kept);
    prev_kept = outcome.kept_count;
  }
}

TEST_P(TrimMonotonicityTest, TopFractionCountExact) {
  Rng rng(GetParam() ^ 0xFF);
  std::vector<double> round;
  for (int i = 0; i < 137; ++i) round.push_back(rng.Normal());
  for (double q : {0.1, 0.37, 0.5, 0.9, 0.99}) {
    auto outcome = TrimTopFraction(round, q);
    size_t expected =
        static_cast<size_t>(std::ceil((1.0 - q) * round.size()));
    EXPECT_EQ(outcome.removed_count, expected) << "q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrimMonotonicityTest,
                         ::testing::Values(1, 7, 13, 29, 101));

}  // namespace
}  // namespace itrim
