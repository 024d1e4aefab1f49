#include "game/quality.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "game/public_board.h"

namespace itrim {
namespace {

// A board over uniform [0, 1] data so quantiles are predictable.
PublicBoard MakeUniformBoard(size_t n = 5000, uint64_t seed = 3) {
  PublicBoard board;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) board.RecordOne(rng.Uniform());
  board.Seal();
  return board;
}

std::vector<double> UniformRound(size_t n, Rng* rng) {
  std::vector<double> out;
  for (size_t i = 0; i < n; ++i) out.push_back(rng->Uniform());
  return out;
}

TEST(TailMassQualityTest, CleanDataScoresNearOne) {
  PublicBoard board = MakeUniformBoard();
  Rng rng(5);
  TailMassQuality quality(0.9);
  auto round = UniformRound(2000, &rng);
  EXPECT_GT(quality.Evaluate(round, board), 0.97);
}

TEST(TailMassQualityTest, PoisonDropsQualityByAttackMass) {
  PublicBoard board = MakeUniformBoard();
  Rng rng(7);
  TailMassQuality quality(0.9);
  auto round = UniformRound(1000, &rng);
  // Add 20% poison above the 0.9 quantile.
  for (int i = 0; i < 250; ++i) round.push_back(0.99);
  double q = quality.Evaluate(round, board);
  EXPECT_NEAR(q, 1.0 - 0.2, 0.03);
}

TEST(TailMassQualityTest, EmptyBoardScoresOne) {
  PublicBoard board;
  board.Seal();
  TailMassQuality quality(0.9);
  const std::vector<double> round = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(quality.Evaluate(round, board), 1.0);
}

TEST(DefectShareQualityTest, EquilibriumPlayScoresHigh) {
  PublicBoard board = MakeUniformBoard();
  Rng rng(9);
  DefectShareQuality quality(0.90, 0.99);
  auto round = UniformRound(1000, &rng);
  // All poison above the 99th percentile: equilibrium position.
  for (int i = 0; i < 200; ++i) round.push_back(0.999);
  EXPECT_GT(quality.Evaluate(round, board), 0.85);
}

TEST(DefectShareQualityTest, DefectPlayScoresLow) {
  PublicBoard board = MakeUniformBoard();
  Rng rng(11);
  DefectShareQuality quality(0.90, 0.99);
  auto round = UniformRound(1000, &rng);
  // All poison inside the defect band (0.90, 0.99).
  for (int i = 0; i < 200; ++i) round.push_back(0.945);
  EXPECT_LT(quality.Evaluate(round, board), 0.15);
}

TEST(DefectShareQualityTest, MixedPlayScoresBetween) {
  PublicBoard board = MakeUniformBoard();
  Rng rng(13);
  DefectShareQuality quality(0.90, 0.99);
  auto round = UniformRound(1000, &rng);
  for (int i = 0; i < 100; ++i) round.push_back(0.999);  // equilibrium half
  for (int i = 0; i < 100; ++i) round.push_back(0.945);  // defect half
  double q = quality.Evaluate(round, board);
  EXPECT_GT(q, 0.3);
  EXPECT_LT(q, 0.7);
}

TEST(DefectShareQualityTest, CleanRoundScoresOne) {
  PublicBoard board = MakeUniformBoard();
  Rng rng(15);
  DefectShareQuality quality(0.90, 0.99);
  auto round = UniformRound(500, &rng);
  EXPECT_GT(quality.Evaluate(round, board), 0.4);  // no mass -> neutral/1
}

TEST(NoisyDefectShareQualityTest, NoiseIsBoundedToUnitInterval) {
  PublicBoard board = MakeUniformBoard();
  Rng rng(17);
  NoisyDefectShareQuality quality(0.90, 0.99, 0.2, 0.2, 77);
  auto round = UniformRound(500, &rng);
  for (int i = 0; i < 50; ++i) {
    double q = quality.Evaluate(round, board);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
}

TEST(NoisyDefectShareQualityTest, ZeroNoiseMatchesInner) {
  PublicBoard board = MakeUniformBoard();
  Rng rng(19);
  auto round = UniformRound(800, &rng);
  for (int i = 0; i < 150; ++i) round.push_back(0.999);
  DefectShareQuality inner(0.90, 0.99);
  NoisyDefectShareQuality noisy(0.90, 0.99, 0.0, 0.0, 5);
  EXPECT_DOUBLE_EQ(noisy.Evaluate(round, board),
                   inner.Evaluate(round, board));
}

TEST(NoisyDefectShareQualityTest, JitterVariesAcrossCalls) {
  PublicBoard board = MakeUniformBoard();
  Rng rng(21);
  auto round = UniformRound(800, &rng);
  for (int i = 0; i < 150; ++i) round.push_back(0.999);
  NoisyDefectShareQuality noisy(0.90, 0.99, 0.01, 0.02, 6);
  double a = noisy.Evaluate(round, board);
  double b = noisy.Evaluate(round, board);
  EXPECT_NE(a, b);
}

TEST(TitfortatTriggerQualityTest, SubtractsRedundancy) {
  EXPECT_DOUBLE_EQ(TitfortatTriggerQuality(0.95, 0.05), 0.9);
}

}  // namespace
}  // namespace itrim
