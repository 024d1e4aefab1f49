#include "game/variants.h"

#include <gtest/gtest.h>

#include "game/score_model.h"
#include "game/session.h"

namespace itrim {
namespace {

RoundContext Ctx(int round, double tth = 0.9) {
  RoundContext ctx;
  ctx.round = round;
  ctx.tth = tth;
  return ctx;
}

RoundObservation Obs(int round, double quality) {
  return RoundObservation{round, 0.91, 0.9, quality, 100, 90};
}

TEST(TitForTwoTatsTest, SingleBadRoundTolerated) {
  TitForTwoTatsCollector c(+0.01, -0.03, 0.8);
  c.Observe(Obs(1, 0.5));  // bad
  EXPECT_FALSE(c.triggered());
  c.Observe(Obs(2, 0.95));  // good resets the streak
  c.Observe(Obs(3, 0.5));   // bad again, still only one in a row
  EXPECT_FALSE(c.triggered());
  EXPECT_DOUBLE_EQ(c.TrimPercentile(Ctx(4)), 0.91);
}

TEST(TitForTwoTatsTest, TwoConsecutiveBadRoundsTrigger) {
  TitForTwoTatsCollector c(+0.01, -0.03, 0.8);
  c.Observe(Obs(1, 0.5));
  c.Observe(Obs(2, 0.5));
  EXPECT_TRUE(c.triggered());
  EXPECT_EQ(c.termination_round(), 2);
  EXPECT_DOUBLE_EQ(c.TrimPercentile(Ctx(3)), 0.87);
  // Permanent, like the paper's rigid trigger.
  c.Observe(Obs(3, 1.0));
  EXPECT_DOUBLE_EQ(c.TrimPercentile(Ctx(4)), 0.87);
}

TEST(TitForTwoTatsTest, ResetRestores) {
  TitForTwoTatsCollector c(+0.01, -0.03, 0.8);
  c.Observe(Obs(1, 0.5));
  c.Observe(Obs(2, 0.5));
  ASSERT_TRUE(c.triggered());
  c.Reset();
  EXPECT_FALSE(c.triggered());
  EXPECT_EQ(c.termination_round(), 0);
}

TEST(TitForTwoTatsTest, NanQualityIgnored) {
  TitForTwoTatsCollector c(+0.01, -0.03, 0.8);
  c.Observe(Obs(1, std::nan("")));
  c.Observe(Obs(2, std::nan("")));
  EXPECT_FALSE(c.triggered());
}

TEST(GenerousTitfortatTest, PenaltyWindowExpires) {
  GenerousTitfortatCollector c(+0.01, -0.03, 0.8, /*generosity=*/0.0,
                               /*penalty_rounds=*/2, /*seed=*/1);
  c.Observe(Obs(1, 0.5));  // trigger: penalty for 2 rounds
  EXPECT_EQ(c.triggers(), 1);
  EXPECT_DOUBLE_EQ(c.TrimPercentile(Ctx(2)), 0.87);
  c.Observe(Obs(2, 1.0));
  EXPECT_DOUBLE_EQ(c.TrimPercentile(Ctx(3)), 0.87);
  c.Observe(Obs(3, 1.0));
  // Forgiven: back to soft.
  EXPECT_DOUBLE_EQ(c.TrimPercentile(Ctx(4)), 0.91);
}

TEST(GenerousTitfortatTest, FullGenerosityNeverPunishes) {
  GenerousTitfortatCollector c(+0.01, -0.03, 0.8, /*generosity=*/1.0,
                               /*penalty_rounds=*/3, /*seed=*/2);
  for (int r = 1; r <= 20; ++r) c.Observe(Obs(r, 0.1));
  EXPECT_EQ(c.triggers(), 0);
  EXPECT_DOUBLE_EQ(c.TrimPercentile(Ctx(21)), 0.91);
}

TEST(GenerousTitfortatTest, PartialGenerosityForgivesFraction) {
  GenerousTitfortatCollector c(+0.01, -0.03, 0.8, /*generosity=*/0.5,
                               /*penalty_rounds=*/0, /*seed=*/3);
  for (int r = 1; r <= 2000; ++r) c.Observe(Obs(r, 0.1));
  // About half of the 2000 defections should have been punished.
  EXPECT_GT(c.triggers(), 850);
  EXPECT_LT(c.triggers(), 1150);
}

TEST(GenerousTitfortatTest, RecordsFirstTrigger) {
  GenerousTitfortatCollector c(+0.01, -0.03, 0.8, 0.0, 1, 4);
  c.Observe(Obs(1, 0.95));
  c.Observe(Obs(2, 0.5));
  EXPECT_EQ(c.termination_round(), 2);
}

TEST(PavlovTest, WinStayLoseShift) {
  PavlovCollector c(+0.01, -0.03, 0.8);
  EXPECT_FALSE(c.playing_hard());
  c.Observe(Obs(1, 1.0));  // win: stay soft
  EXPECT_FALSE(c.playing_hard());
  c.Observe(Obs(2, 0.5));  // lose: shift to hard
  EXPECT_TRUE(c.playing_hard());
  EXPECT_DOUBLE_EQ(c.TrimPercentile(Ctx(3)), 0.87);
  c.Observe(Obs(3, 0.5));  // lose again: shift back to soft
  EXPECT_FALSE(c.playing_hard());
  EXPECT_EQ(c.termination_round(), 2);
}

TEST(PavlovTest, ResetRestoresSoft) {
  PavlovCollector c(+0.01, -0.03, 0.8);
  c.Observe(Obs(1, 0.1));
  ASSERT_TRUE(c.playing_hard());
  c.Reset();
  EXPECT_FALSE(c.playing_hard());
}

// The variants must slot into a real game: two-tats tolerates the jittery
// adversary longer than the rigid trigger.
TEST(VariantsGameTest, TwoTatsTerminatesNoEarlierThanTitfortat) {
  Rng rng(9);
  std::vector<double> pool;
  for (int i = 0; i < 5000; ++i) pool.push_back(rng.Uniform());
  GameConfig config;
  config.rounds = 30;
  config.round_size = 400;
  config.attack_ratio = 0.2;
  config.tth = 0.9;
  config.seed = 21;

  auto run = [&](CollectorStrategy* collector) {
    MixedPercentileAdversary adversary(0.5);
    NoisyDefectShareQuality quality(0.90, 0.99, 0.02, 0.05, 77);
    IdentityScoreModel model(&pool);
    TrimmingSession game(config, &model, collector, &adversary, &quality);
    GameSummary summary = game.RunToCompletion().ValueOrDie();
    return summary.termination_round == 0 ? config.rounds + 1
                                          : summary.termination_round;
  };
  TitfortatCollector rigid(+0.01, -0.03, 0.45);
  TitForTwoTatsCollector tolerant(+0.01, -0.03, 0.45);
  EXPECT_GE(run(&tolerant), run(&rigid));
}

}  // namespace
}  // namespace itrim
