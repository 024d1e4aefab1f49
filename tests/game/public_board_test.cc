#include "game/public_board.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"

namespace itrim {
namespace {

TEST(PublicBoardTest, EmptyQuantileFails) {
  PublicBoard board;
  board.Seal();
  EXPECT_FALSE(board.Quantile(0.5).ok());
  EXPECT_EQ(board.Quantile(0.5).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(board.PercentileRank(1.0), 0.0);
  EXPECT_EQ(board.FractionAtOrAbove(1.0), 0.0);
}

TEST(PublicBoardTest, RecordsAndQueries) {
  PublicBoard board;
  board.Record({4.0, 2.0, 3.0, 1.0});
  EXPECT_FALSE(board.sealed());
  board.Seal();
  EXPECT_TRUE(board.sealed());
  EXPECT_EQ(board.size(), 4u);
  EXPECT_EQ(board.total_recorded(), 4u);
  EXPECT_DOUBLE_EQ(board.Quantile(0.5).ValueOrDie(), 2.5);
}

TEST(PublicBoardTest, SealSortsTheValues) {
  PublicBoard board;
  board.Record({3.0, -1.0, 2.0, 2.0});
  EXPECT_EQ(board.values(), (std::vector<double>{3.0, -1.0, 2.0, 2.0}));
  board.Seal();
  EXPECT_EQ(board.values(), (std::vector<double>{-1.0, 2.0, 2.0, 3.0}));
}

TEST(PublicBoardTest, PercentileRank) {
  PublicBoard board;
  board.Record({1.0, 2.0, 3.0, 4.0});
  board.Seal();
  EXPECT_DOUBLE_EQ(board.PercentileRank(2.5), 0.5);
  EXPECT_DOUBLE_EQ(board.PercentileRank(0.0), 0.0);
  EXPECT_DOUBLE_EQ(board.PercentileRank(10.0), 1.0);
}

TEST(PublicBoardTest, FractionAtOrAboveCountsTiesAndIgnoresNaN) {
  PublicBoard board;
  board.Record({1.0, 2.0, 2.0, 3.0});
  board.Seal();
  EXPECT_DOUBLE_EQ(board.FractionAtOrAbove(2.0), 0.75);
  EXPECT_DOUBLE_EQ(board.FractionAtOrAbove(2.5), 0.25);
  EXPECT_DOUBLE_EQ(board.FractionAtOrAbove(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(board.FractionAtOrAbove(5.0), 0.0);
  // `v >= NaN` holds for no value, so a NaN band edge counts nothing.
  EXPECT_EQ(board.FractionAtOrAbove(std::nan("")), 0.0);
  EXPECT_DOUBLE_EQ(
      board.FractionAtOrAbove(-std::numeric_limits<double>::infinity()), 1.0);
}

TEST(PublicBoardTest, CapacityBoundsMemory) {
  PublicBoard board(100, 1);
  for (int i = 0; i < 10000; ++i) board.RecordOne(static_cast<double>(i));
  EXPECT_EQ(board.size(), 100u);
  EXPECT_EQ(board.total_recorded(), 10000u);
}

TEST(PublicBoardTest, ReserveIsClampedToCapacity) {
  PublicBoard bounded(64, 1);
  bounded.Reserve(500);
  EXPECT_EQ(bounded.values().capacity(), 64u);
  PublicBoard unbounded(0, 1);
  unbounded.Reserve(500);
  EXPECT_EQ(unbounded.values().capacity(), 500u);
  PublicBoard roomy(20000, 1);
  roomy.Reserve(500);
  EXPECT_EQ(roomy.values().capacity(), 500u);
}

TEST(PublicBoardTest, ReservoirIsApproximatelyUnbiased) {
  // With uniform input, the capped board's median should track the stream
  // median.
  PublicBoard board(500, 2);
  Rng rng(9);
  for (int i = 0; i < 50000; ++i) board.RecordOne(rng.Uniform());
  board.Seal();
  EXPECT_NEAR(board.Quantile(0.5).ValueOrDie(), 0.5, 0.08);
  EXPECT_NEAR(board.Quantile(0.9).ValueOrDie(), 0.9, 0.08);
}

TEST(PublicBoardTest, ClearResetsAndUnseals) {
  PublicBoard board;
  board.Record({1.0, 2.0});
  board.Seal();
  board.Clear();
  EXPECT_FALSE(board.sealed());
  EXPECT_EQ(board.size(), 0u);
  EXPECT_EQ(board.total_recorded(), 0u);
  board.Seal();
  EXPECT_FALSE(board.Quantile(0.5).ok());
}

// A rebuild after Clear() repeats the reservoir draws of the first build,
// which is what lets a session restore rebuild its board by re-running
// the bootstrap.
TEST(PublicBoardTest, ClearRestartsTheReservoirStream) {
  PublicBoard board(8, 5);
  auto build = [&board] {
    Rng rng(13);
    for (int i = 0; i < 200; ++i) board.RecordOne(rng.Uniform());
    board.Seal();
    return board.values();
  };
  const std::vector<double> first = build();
  board.Clear();
  EXPECT_EQ(build(), first);
}

TEST(PublicBoardTest, UnboundedWhenCapacityZero) {
  PublicBoard board(0, 3);
  for (int i = 0; i < 5000; ++i) board.RecordOne(static_cast<double>(i));
  EXPECT_EQ(board.size(), 5000u);
}

#ifndef NDEBUG
TEST(PublicBoardDeathTest, RecordAfterSealAsserts) {
  PublicBoard board;
  board.RecordOne(1.0);
  board.Seal();
  EXPECT_DEATH(board.RecordOne(2.0), "sealed");
}

TEST(PublicBoardDeathTest, QueryBeforeSealAsserts) {
  PublicBoard board;
  board.RecordOne(1.0);
  EXPECT_DEATH((void)board.Quantile(0.5), "unsealed");
  EXPECT_DEATH((void)board.PercentileRank(0.5), "unsealed");
}
#endif

}  // namespace
}  // namespace itrim
