// ReferencePolicy seam: the explicit PercentileReference is the default
// (bit for bit), the fitted-model policy validates its model, and its trim
// keeps exactly the budgeted lowest-residual rows.
#include "game/reference_policy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "data/generators.h"
#include "game/public_board.h"
#include "game/score_model.h"
#include "game/session.h"
#include "game/strategies.h"
#include "ml/residual_score_model.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

GameConfig SmallConfig(uint64_t seed) {
  GameConfig config;
  config.rounds = 8;
  config.round_size = 50;
  config.attack_ratio = 0.2;
  config.bootstrap_size = 80;
  config.seed = seed;
  return config;
}

// Passing an explicit PercentileReference must be indistinguishable from
// passing nothing — the policy extraction cannot move a single bit.
TEST(ReferencePolicyTest, ExplicitPercentileMatchesDefaultBitForBit) {
  Dataset data = MakeControl(17, 60);

  DistanceScoreModel m_default(&data);
  ElasticCollector c_default(0.5);
  ElasticAdversary a_default(0.5);
  TrimmingSession with_default(SmallConfig(7), &m_default, &c_default,
                               &a_default, nullptr);
  ASSERT_TRUE(with_default.Bootstrap().ok());
  ASSERT_TRUE(with_default.RunToCompletion().ok());

  DistanceScoreModel m_explicit(&data);
  ElasticCollector c_explicit(0.5);
  ElasticAdversary a_explicit(0.5);
  PercentileReference percentile;
  TrimmingSession with_explicit(SmallConfig(7), &m_explicit, &c_explicit,
                                &a_explicit, nullptr, &percentile);
  ASSERT_TRUE(with_explicit.Bootstrap().ok());
  ASSERT_TRUE(with_explicit.RunToCompletion().ok());

  ExpectSummaryBitIdentical(with_default.Finish(), with_explicit.Finish());
}

TEST(ReferencePolicyTest, DefaultPolicyIsSharedAndNamed) {
  PercentileReference* shared = DefaultReferencePolicy();
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared, DefaultReferencePolicy());
  EXPECT_EQ(shared->name(), "percentile");
  FittedModelReference fitted;
  EXPECT_EQ(fitted.name(), "fitted_model");
}

// The fitted-model policy refuses models that cannot hand it observations;
// the session surfaces that at Bootstrap() rather than mid-round.
TEST(ReferencePolicyTest, FittedModelValidateRejectsScalarModels) {
  std::vector<double> pool = UniformPool(500, 13);
  IdentityScoreModel model(&pool);
  FittedModelReference reference;
  EXPECT_EQ(reference.Validate(model).code(), StatusCode::kInvalidArgument);

  ElasticCollector collector(0.5);
  ElasticAdversary adversary(0.5);
  TrimmingSession session(SmallConfig(3), &model, &collector, &adversary,
                          nullptr, &reference);
  EXPECT_EQ(session.Bootstrap().code(), StatusCode::kInvalidArgument);

  RegressionData source = MakeSyntheticRegression(200, 2, 0.1, 5);
  ResidualScoreModel residual(&source);
  EXPECT_TRUE(reference.Validate(residual).ok());
  FittedModelReference::Options bad;
  bad.max_refits = 0;
  EXPECT_EQ(FittedModelReference(bad).Validate(residual).code(),
            StatusCode::kInvalidArgument);
}

// Driving TrimRound directly: a threshold q keeps exactly the
// floor(q * n) lowest-residual rows (clamped to leave enough to fit), and
// every kept row's residual against the final refit sits at or below the
// reported cutoff's selection-time contract: the kept count matches and
// poisoned extremes fall outside the kept set.
TEST(ReferencePolicyTest, FittedModelTrimKeepsBudgetedLowestResidualRows) {
  RegressionData source = MakeSyntheticRegression(300, 2, 0.05, 17);
  ResidualScoreModel model(&source);
  Rng rng(29);
  PublicBoard board;
  ASSERT_TRUE(model.BeginRun().ok());
  ASSERT_TRUE(model.Bootstrap(100, &rng, &board).ok());
  board.Seal();

  model.BeginRound(40);
  model.AppendBenignBatch(36, &rng);
  for (int p = 0; p < 4; ++p) {
    ASSERT_TRUE(model.AppendPoison(1.4, &rng, board).ok());
  }

  FittedModelReference reference;
  TrimOutcome outcome;
  ASSERT_TRUE(reference.TrimRound(0.9, &model, board, &outcome).ok());
  const size_t n = model.scores().size();
  ASSERT_EQ(n, 40u);
  ASSERT_EQ(outcome.keep.size(), n);
  EXPECT_EQ(outcome.kept_count, 36u);  // floor(0.9 * 40)
  EXPECT_EQ(outcome.removed_count, 4u);
  // Far-out poison (position 1.4: beyond every bootstrap residual) must be
  // among the removed rows.
  std::span<const char> poison = model.is_poison();
  for (size_t i = 0; i < n; ++i) {
    if (poison[i]) {
      EXPECT_EQ(outcome.keep[i], 0) << "poison row " << i << " survived";
    }
  }

  // A keep-everything threshold keeps everything and reports +inf cutoff.
  ASSERT_TRUE(reference.TrimRound(1.0, &model, board, &outcome).ok());
  EXPECT_EQ(outcome.kept_count, n);
  EXPECT_TRUE(std::isinf(outcome.cutoff));
}

}  // namespace
}  // namespace itrim
