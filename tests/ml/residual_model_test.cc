// ResidualScoreModel in the interactive game: batch-vs-scalar scoring
// bit-identity across kernel variants, full sessions under both trim
// references, checkpoint/restore bit-identity at every split point, and
// fleet thread-count determinism.
#include "ml/residual_score_model.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fleet/session_fleet.h"
#include "fleet/tenant.h"
#include "game/kernels.h"
#include "game/public_board.h"
#include "game/reference_policy.h"
#include "game/session.h"
#include "game/strategies.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

using kernels::Variant;

struct VariantGuard {
  ~VariantGuard() { kernels::ResetVariant(); }
};

GameConfig ResidualConfig(uint64_t seed) {
  GameConfig config;
  config.rounds = 10;
  config.round_size = 60;
  config.attack_ratio = 0.2;
  config.bootstrap_size = 120;
  config.board_capacity = 512;
  config.seed = seed;
  return config;
}

TEST(ResidualScoreModelTest, BatchScoringEqualsScalarAcrossSizesAndVariants) {
  RegressionData source = MakeSyntheticRegression(300, 4, 0.1, 21);
  ResidualScoreModel model(&source);
  Rng rng(5);
  PublicBoard board;
  ASSERT_TRUE(model.BeginRun().ok());
  ASSERT_TRUE(model.Bootstrap(100, &rng, &board).ok());
  const size_t width = model.ObsWidth();
  ASSERT_EQ(width, source.dims + 1);

  Rng obs_rng(9);
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 16u, 33u, 100u}) {
    std::vector<double> obs(n * width);
    for (double& v : obs) v = obs_rng.Uniform(-2.0, 2.0);
    std::vector<double> scalar(n);
    ASSERT_TRUE(model.ScoreIntoScalar(obs, scalar).ok());
    for (Variant variant : {Variant::kGeneric, Variant::kVector}) {
      VariantGuard guard;
      kernels::ForceVariant(variant);
      std::vector<double> batch(n, -1.0);
      ASSERT_TRUE(model.ScoreInto(obs, batch).ok());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(BitEqual(batch[i], scalar[i]))
            << "n=" << n << " i=" << i << " variant="
            << kernels::VariantName(variant);
      }
    }
  }
}

TEST(ResidualScoreModelTest, RejectsDegenerateSources) {
  RegressionData empty;
  empty.dims = 2;
  ResidualScoreModel no_rows(&empty);
  EXPECT_EQ(no_rows.BeginRun().code(), StatusCode::kFailedPrecondition);

  RegressionData no_dims;
  no_dims.ys = {1.0, 2.0};
  ResidualScoreModel zero_dims(&no_dims);
  EXPECT_EQ(zero_dims.BeginRun().code(), StatusCode::kFailedPrecondition);
}

// A full session under each (adversary, reference) pairing runs to
// completion and trims: the model integrates with the round protocol.
TEST(ResidualScoreModelTest, SessionRunsUnderBothReferences) {
  RegressionData source = MakeSyntheticRegression(500, 3, 0.1, 33);
  for (bool fitted : {false, true}) {
    SCOPED_TRACE(fitted ? "fitted_model" : "percentile");
    ResidualScoreModel model(&source);
    ElasticCollector collector(0.5);
    FlipShiftAdversary adversary;
    FittedModelReference reference;
    TrimmingSession session(ResidualConfig(71), &model, &collector, &adversary,
                            nullptr, fitted ? &reference : nullptr);
    ASSERT_TRUE(session.Bootstrap().ok());
    auto summary = session.RunToCompletion();
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    size_t received = 0, kept = 0;
    for (const RoundRecord& r : summary.ValueOrDie().rounds) {
      received += r.benign_received + r.poison_received;
      kept += r.benign_kept + r.poison_kept;
    }
    EXPECT_GT(received, 0u);
    EXPECT_LT(kept, received);  // something was trimmed
    EXPECT_GT(kept, 0u);
  }
}

// Checkpoint/restore bit-identity at EVERY split point, for both trim
// references and both poison shapes.
TEST(ResidualScoreModelTest, CheckpointRestoreBitIdenticalAtEverySplit) {
  RegressionData source = MakeSyntheticRegression(400, 2, 0.1, 47);
  const int kRounds = 8;
  for (PoisonShape shape : {PoisonShape::kFlipShift, PoisonShape::kLeverage}) {
    for (bool fitted : {false, true}) {
      SCOPED_TRACE(std::string(PoisonShapeName(shape)) + "/" +
                   (fitted ? "fitted_model" : "percentile"));
      GameConfig config = ResidualConfig(83);
      config.rounds = kRounds;

      auto run_rounds = [&](TrimmingSession* session, int n) {
        for (int i = 0; i < n; ++i) ASSERT_TRUE(session->Step().ok());
      };

      ResidualScoreModel m_ref(&source, shape);
      ElasticCollector c_ref(0.5);
      OptimalRegressionAdversary a_ref;
      FittedModelReference r_ref;
      TrimmingSession reference(config, &m_ref, &c_ref, &a_ref, nullptr,
                                fitted ? &r_ref : nullptr);
      ASSERT_TRUE(reference.Bootstrap().ok());
      run_rounds(&reference, kRounds);
      GameSummary expected = reference.Finish();

      for (int split = 0; split <= kRounds; ++split) {
        SCOPED_TRACE("split after round " + std::to_string(split));
        ResidualScoreModel m_first(&source, shape);
        ElasticCollector c_first(0.5);
        OptimalRegressionAdversary a_first;
        FittedModelReference r_first;
        TrimmingSession first(config, &m_first, &c_first, &a_first, nullptr,
                              fitted ? &r_first : nullptr);
        ASSERT_TRUE(first.Bootstrap().ok());
        run_rounds(&first, split);
        SessionCheckpoint checkpoint = first.Checkpoint();

        ResidualScoreModel m_resumed(&source, shape);
        ElasticCollector c_resumed(0.5);
        OptimalRegressionAdversary a_resumed;
        FittedModelReference r_resumed;
        TrimmingSession resumed(config, &m_resumed, &c_resumed, &a_resumed,
                                nullptr, fitted ? &r_resumed : nullptr);
        ASSERT_TRUE(resumed.Restore(checkpoint).ok());
        run_rounds(&resumed, kRounds - split);
        ExpectSummaryBitIdentical(expected, resumed.Finish());
      }
    }
  }
}

// Residual tenants in a fleet: 1-thread and N-thread lockstep runs are bit
// identical, with both reference kinds mixed across the tenant population.
TEST(ResidualScoreModelTest, FleetThreadCountInvariantForResidualTenants) {
  RegressionData source = MakeSyntheticRegression(400, 2, 0.1, 67);
  std::vector<TenantSpec> specs;
  for (size_t i = 0; i < 8; ++i) {
    TenantSpec spec;
    spec.name = "residual-" + std::to_string(i);
    spec.model = TenantModelKind::kResidual;
    spec.regression = &source;
    spec.regression_poison =
        (i % 2 == 0) ? PoisonShape::kFlipShift : PoisonShape::kLeverage;
    spec.reference = (i % 3 == 0) ? TenantReferenceKind::kFittedModel
                                  : TenantReferenceKind::kPercentile;
    spec.scheme = SchemeId::kElastic05;
    spec.game = ResidualConfig(0);
    specs.push_back(spec);
  }

  std::vector<std::vector<RoundRecord>> per_thread_records[2];
  const int thread_counts[] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    FleetConfig config;
    config.rounds = 6;
    config.threads = thread_counts[t];
    config.seed = 4242;
    SessionFleet fleet(config, specs);
    ASSERT_TRUE(fleet.Bootstrap().ok());
    for (int r = 0; r < 6; ++r) ASSERT_TRUE(fleet.StepRound().ok());
    for (size_t i = 0; i < specs.size(); ++i) {
      per_thread_records[t].push_back(fleet.TenantRounds(i).ValueOrDie());
    }
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    GameSummary a, b;
    a.rounds = per_thread_records[0][i];
    b.rounds = per_thread_records[1][i];
    ExpectSummaryBitIdentical(a, b);
  }
}

// Spec validation: the fitted-model reference is rejected outside the
// residual kind, and with bad options — with the tenant named in the error.
TEST(ResidualScoreModelTest, TenantSpecValidatesReferenceOptions) {
  RegressionData source = MakeSyntheticRegression(100, 2, 0.1, 11);
  std::vector<double> pool = UniformPool(100, 3);

  TenantSpec scalar_spec;
  scalar_spec.model = TenantModelKind::kScalar;
  scalar_spec.scalar_pool = &pool;
  scalar_spec.reference = TenantReferenceKind::kFittedModel;
  EXPECT_EQ(scalar_spec.Validate().code(), StatusCode::kInvalidArgument);

  TenantSpec residual_spec;
  residual_spec.name = "tenant-under-test";
  residual_spec.model = TenantModelKind::kResidual;
  residual_spec.regression = &source;
  residual_spec.reference = TenantReferenceKind::kFittedModel;
  EXPECT_TRUE(residual_spec.Validate().ok());
  residual_spec.fitted_reference.max_refits = 0;
  EXPECT_EQ(residual_spec.Validate().code(), StatusCode::kInvalidArgument);
  residual_spec.fitted_reference.max_refits = 20;
  residual_spec.fitted_reference.tol = -1.0;
  EXPECT_EQ(residual_spec.Validate().code(), StatusCode::kInvalidArgument);

  // A fleet surfaces the failure with the tenant index and name attached.
  residual_spec.fitted_reference.tol = 1e-4;
  residual_spec.regression = nullptr;
  FleetConfig config;
  config.threads = 1;
  SessionFleet fleet(config, {residual_spec});
  Status status = fleet.Bootstrap();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("tenant-under-test"), std::string::npos)
      << status.ToString();
}

// Residual tenants hibernate and rehydrate bit-identically at every round
// boundary, under both trim references.
TEST(ResidualScoreModelTest, HibernationBitIdenticalAtEverySplit) {
  RegressionData source = MakeSyntheticRegression(300, 2, 0.1, 71);
  const int kRounds = 6;
  for (TenantReferenceKind reference : {TenantReferenceKind::kPercentile,
                                        TenantReferenceKind::kFittedModel}) {
    SCOPED_TRACE(reference == TenantReferenceKind::kFittedModel
                     ? "fitted_model"
                     : "percentile");
    TenantSpec spec;
    spec.model = TenantModelKind::kResidual;
    spec.regression = &source;
    spec.reference = reference;
    spec.scheme = SchemeId::kElastic05;
    spec.game = ResidualConfig(0);

    auto make_fleet = [&]() {
      FleetConfig config;
      config.threads = 1;
      config.seed = 515;
      SessionFleet fleet(config, {spec});
      EXPECT_TRUE(fleet.Bootstrap().ok());
      EXPECT_TRUE(fleet.BeginPerTenantStepping().ok());
      return fleet;
    };

    SessionFleet reference_fleet = make_fleet();
    for (int r = 0; r < kRounds; ++r) {
      ASSERT_TRUE(reference_fleet.StepTenant(0).ok());
    }
    std::vector<RoundRecord> expected =
        reference_fleet.TenantRounds(0).ValueOrDie();

    for (int split = 0; split <= kRounds; ++split) {
      SCOPED_TRACE("split after round " + std::to_string(split));
      SessionFleet fleet = make_fleet();
      for (int r = 0; r < split; ++r) ASSERT_TRUE(fleet.StepTenant(0).ok());
      ASSERT_TRUE(fleet.HibernateTenant(0).ok());
      ASSERT_TRUE(fleet.RehydrateTenant(0).ok());
      for (int r = split; r < kRounds; ++r) {
        ASSERT_TRUE(fleet.StepTenant(0).ok());
      }
      GameSummary a, b;
      a.rounds = expected;
      b.rounds = fleet.TenantRounds(0).ValueOrDie();
      ExpectSummaryBitIdentical(a, b);
    }
  }
}

}  // namespace
}  // namespace itrim
