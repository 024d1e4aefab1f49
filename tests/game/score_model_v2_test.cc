// Tests of the ScoreModel scoring surface and the base-owned round buffer.
//
// Asserted here at the bit level:
//
//   1. ScoreInto, the one public scoring entry point, reproduces the scores
//      the round loop records for every row a model pools, poison rows
//      included; the distance model's first-draw score cache matches
//      per-row PositionMap scoring across rounds, restores and variants.
//   2. A full game stream produces bit-identical GameSummarys whether the
//      kernels dispatch to the generic or the auto-vectorized build,
//      across every scheme and data setting.
//
// Plus the span plumbing around them: mismatched spans are rejected with
// InvalidArgument, scores()/is_poison() stay parallel views, and every model
// kind fills the base-owned round buffer the same way.
#include "game/score_model.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "exp/schemes.h"
#include "game/kernels.h"
#include "game/public_board.h"
#include "game/session.h"
#include "game/strategies.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"
#include "ldp/report_score_model.h"
#include "ml/residual_score_model.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

using kernels::Variant;

struct VariantGuard {
  ~VariantGuard() { kernels::ResetVariant(); }
};

// Bootstraps a distance model over a control-chart sample so the
// percentile geometry exists before scoring.
class DistanceModelFixture {
 public:
  DistanceModelFixture() : data_(MakeControl(35, 40)), model_(&data_) {
    Rng rng(71);
    EXPECT_TRUE(model_.BeginRun().ok());
    EXPECT_TRUE(model_.Bootstrap(120, &rng, &board_).ok());
  }

  Dataset data_;
  DistanceScoreModel model_;
  PublicBoard board_;
};

TEST(ScoreIntoSpanCheckTest, MismatchedSpansAreInvalidArgument) {
  std::vector<double> pool = UniformPool(100, 17);
  IdentityScoreModel model(&pool);
  std::vector<double> obs(10), out(9);
  EXPECT_EQ(model.ScoreInto(obs, out).code(), StatusCode::kInvalidArgument);

  DistanceModelFixture fx;
  const size_t dims = fx.data_.dims();
  ASSERT_GT(dims, 1u);
  // One double short of a whole number of rows.
  std::vector<double> rows(5 * dims - 1), scores(5);
  EXPECT_EQ(fx.model_.ScoreInto(rows, scores).code(),
            StatusCode::kInvalidArgument);
}

// The round buffer lives in the ScoreModel base, and each model kind fills
// it through the same members: ObsWidth() is fixed at construction, one
// played round leaves one score and one poison flag per arrival, and only
// the residual model (which always pools its rows) exposes observations.
// The distance model pools its rows only while it retains survivors, so it
// appears twice. For every kind that pools its rows, ScoreInto over the
// pooled rows reproduces the recorded scores bit for bit, poison included:
// the one public scoring entry point agrees with the arrival path.
TEST(BaseRoundBufferTest, EveryModelKindFillsTheBaseBuffer) {
  const std::vector<double> pool = UniformPool(500, 3);
  const Dataset data = MakeControl(35, 40);
  const RegressionData regression = MakeSyntheticRegression(400, 3, 0.1, 19);
  PiecewiseMechanism mechanism(2.0);
  InputManipulationAttack attack(1.0);
  GameConfig config;
  config.round_size = 80;
  config.attack_ratio = 0.2;
  config.bootstrap_size = 100;
  config.seed = 99;

  struct Kind {
    std::unique_ptr<ScoreModel> model;
    size_t width;
    bool provides;  ///< ProvidesObservations()
    bool pools;     ///< observations() holds every arrival's row
  };
  std::vector<Kind> kinds;
  kinds.push_back(
      {std::make_unique<IdentityScoreModel>(&pool), 1, false, false});
  kinds.push_back({std::make_unique<DistanceScoreModel>(&data), data.dims(),
                   false, false});
  kinds.back().model->set_retain_survivors(false);
  kinds.push_back({std::make_unique<DistanceScoreModel>(&data), data.dims(),
                   false, true});
  kinds.push_back({std::make_unique<LdpReportScoreModel>(
                       &pool, &mechanism, &attack, config.tth),
                   1, false, false});
  kinds.push_back({std::make_unique<ResidualScoreModel>(&regression),
                   regression.dims + 1, true, true});

  for (Kind& kind : kinds) {
    ScoreModel& model = *kind.model;
    SCOPED_TRACE(model.name() +
                 (model.retain_survivors() ? " retaining" : " streaming"));
    EXPECT_EQ(model.ObsWidth(), kind.width);
    ElasticCollector collector(0.1);
    ElasticAdversary adversary(0.1);
    TrimmingSession session(
        config, &model, &collector,
        model.RequiresAdversaryPositions() ? &adversary : nullptr, nullptr);
    ASSERT_TRUE(session.Bootstrap().ok());  // runs BeginRun()
    EXPECT_EQ(model.ObsWidth(), kind.width);

    auto record = session.Step();
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    const size_t poison = record.ValueOrDie().poison_received;
    EXPECT_GT(poison, 0u);
    const size_t arrivals = config.round_size + poison;
    ASSERT_EQ(model.scores().size(), arrivals);
    ASSERT_EQ(model.is_poison().size(), arrivals);
    size_t flagged = 0;
    for (char flag : model.is_poison()) flagged += flag != 0 ? 1 : 0;
    EXPECT_EQ(flagged, poison);

    EXPECT_EQ(model.ProvidesObservations(), kind.provides);
    ASSERT_EQ(model.observations().size(),
              kind.pools ? arrivals * kind.width : 0u);
    if (!kind.pools) continue;
    std::vector<double> rescored(arrivals, -1.0);
    ASSERT_TRUE(model.ScoreInto(model.observations(), rescored).ok());
    for (size_t i = 0; i < arrivals; ++i) {
      EXPECT_TRUE(BitEqual(rescored[i], model.scores()[i]))
          << "i=" << i << (model.is_poison()[i] ? " (poison)" : "");
    }
  }
}

// Source-row scores are filled on a row's first draw. The round's benign
// draws are the first RNG consumer of Step(), so replaying the pre-step
// stream state recovers the rows; their scores must equal PositionOfRow of
// each row, computed afresh, bit for bit.
void ExpectStepScoresMatchPerRow(TrimmingSession* session,
                                 const DistanceScoreModel& model,
                                 const Dataset& data) {
  Rng replay;
  replay.Restore(session->Checkpoint().rng);
  ASSERT_TRUE(session->Step().ok());
  const size_t count = session->config().round_size;
  std::vector<uint64_t> idx(count);
  replay.FillUniformInt(data.rows.size(), idx.data(), count);
  std::span<const double> scores = model.scores();
  std::span<const char> is_poison = model.is_poison();
  ASSERT_GE(scores.size(), count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(is_poison[i], 0) << "i=" << i;
    EXPECT_TRUE(BitEqual(scores[i],
                         model.position_map().PositionOfRow(data.rows[idx[i]])))
        << "i=" << i;
  }
}

TEST(DistanceFirstDrawScoresTest, MatchPerRowScoringAcrossRoundsAndRestore) {
  VariantGuard guard;
  // 240 source rows against 6 x 80 draws: rounds mix first draws and
  // cached repeats.
  Dataset data = MakeControl(47, 40);
  GameConfig config;
  config.rounds = 10;
  config.round_size = 80;
  config.attack_ratio = 0.2;
  config.bootstrap_size = 100;
  config.seed = 4242;
  for (Variant variant : {Variant::kGeneric, Variant::kVector}) {
    SCOPED_TRACE(kernels::VariantName(variant));
    kernels::ForceVariant(variant);
    SessionCheckpoint checkpoint;
    {
      DistanceScoreModel model(&data);
      ElasticCollector collector(0.1);
      ElasticAdversary adversary(0.1);
      TrimmingSession session(config, &model, &collector, &adversary,
                              nullptr);
      ASSERT_TRUE(session.Bootstrap().ok());
      for (int round = 0; round < 6; ++round) {
        ExpectStepScoresMatchPerRow(&session, model, data);
      }
      checkpoint = session.Checkpoint();
    }
    // Restore re-runs the bootstrap: the score table starts unfilled again.
    DistanceScoreModel model(&data);
    ElasticCollector collector(0.1);
    ElasticAdversary adversary(0.1);
    TrimmingSession session(config, &model, &collector, &adversary, nullptr);
    ASSERT_TRUE(session.Restore(checkpoint).ok());
    for (int round = 0; round < 3; ++round) {
      ExpectStepScoresMatchPerRow(&session, model, data);
    }
  }
}

// Distance models read source rows in place at the source width: a ragged
// source must be rejected before any row is read (this also runs on the
// sanitizer leg, which catches an out-of-bounds read).
TEST(DistanceRaggedSourceTest, BootstrapRejectsRaggedSource) {
  for (bool short_first : {false, true}) {
    SCOPED_TRACE(short_first ? "short first row" : "short later row");
    Dataset data = MakeControl(53, 30);
    data.rows[short_first ? 0 : data.rows.size() / 2].resize(3);
    DistanceScoreModel model(&data);
    ElasticCollector collector(0.1);
    ElasticAdversary adversary(0.1);
    GameConfig config;
    config.round_size = 40;
    config.bootstrap_size = 120;
    TrimmingSession session(config, &model, &collector, &adversary, nullptr);
    EXPECT_EQ(session.Bootstrap().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(session.Step().ok());
  }
}

// ObsWidth() is fixed from the borrowed source at construction, and rows
// are read in place at that width: a source reshaped before BeginRun() is
// refused instead of read at the old width.
TEST(SourceWidthTest, BeginRunRefusesASourceReshapedAfterConstruction) {
  Dataset data = MakeControl(53, 30);
  DistanceScoreModel distance(&data);
  for (auto& row : data.rows) row.resize(3);
  EXPECT_EQ(distance.BeginRun().code(), StatusCode::kFailedPrecondition);

  RegressionData regression = MakeSyntheticRegression(100, 3, 0.1, 19);
  ResidualScoreModel residual(&regression);
  regression.dims = 1;
  regression.xs.resize(regression.size());
  EXPECT_EQ(residual.BeginRun().code(), StatusCode::kFailedPrecondition);
}

// The headline end-to-end gate: a full game stream is bit-identical under
// both kernel builds, across every scheme and all three data settings.
class VariantStreamEquivalenceTest
    : public ::testing::TestWithParam<SchemeId> {};

TEST_P(VariantStreamEquivalenceTest, ScalarAndDistanceStreamsBitIdentical) {
  if (!kernels::VectorAvailable()) {
    GTEST_SKIP() << "no AVX2: single-variant machine";
  }
  VariantGuard guard;
  std::vector<double> pool = UniformPool(2000, 29);
  Dataset data = MakeControl(31, 50);
  GameConfig config;
  config.rounds = 6;
  config.round_size = 80;
  config.attack_ratio = 0.2;
  config.bootstrap_size = 100;
  config.seed = 12345;

  for (bool distance : {false, true}) {
    SCOPED_TRACE(distance ? "distance" : "scalar");
    GameSummary per_variant[2];
    for (Variant variant : {Variant::kGeneric, Variant::kVector}) {
      kernels::ForceVariant(variant);
      SchemeInstance scheme = MakeScheme(GetParam(), config.tth);
      GameSummary summary;
      if (distance) {
        DistanceScoreModel model(&data);
        TrimmingSession session(config, &model, scheme.collector.get(),
                                scheme.adversary.get(), scheme.quality.get());
        summary = session.RunToCompletion().ValueOrDie();
      } else {
        IdentityScoreModel model(&pool);
        TrimmingSession session(config, &model, scheme.collector.get(),
                                scheme.adversary.get(), scheme.quality.get());
        summary = session.RunToCompletion().ValueOrDie();
      }
      per_variant[variant == Variant::kVector ? 1 : 0] = summary;
    }
    ExpectSummaryBitIdentical(per_variant[0], per_variant[1]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, VariantStreamEquivalenceTest,
                         ::testing::ValuesIn(AllSchemes()),
                         [](const auto& info) {
                           // Scheme names carry '.'/'-'; gtest parameter
                           // names must be alphanumeric.
                           std::string name(SchemeName(info.param));
                           std::erase_if(name, [](char c) {
                             return !std::isalnum(
                                 static_cast<unsigned char>(c));
                           });
                           return name;
                         });

TEST(VariantStreamEquivalenceLdpTest, LdpStreamBitIdentical) {
  if (!kernels::VectorAvailable()) {
    GTEST_SKIP() << "no AVX2: single-variant machine";
  }
  VariantGuard guard;
  std::vector<double> population = UniformPool(1500, 37);
  for (double& v : population) v = 2.0 * v - 1.0;
  PiecewiseMechanism mechanism(2.0);
  GameConfig config;
  config.rounds = 6;
  config.round_size = 80;
  config.attack_ratio = 0.15;
  config.bootstrap_size = 100;
  config.seed = 777;

  GameSummary per_variant[2];
  for (Variant variant : {Variant::kGeneric, Variant::kVector}) {
    kernels::ForceVariant(variant);
    InputManipulationAttack attack(1.0);
    LdpReportScoreModel model(&population, &mechanism, &attack, config.tth);
    ElasticCollector collector(0.5);
    TrimmingSession session(config, &model, &collector, nullptr, nullptr);
    per_variant[variant == Variant::kVector ? 1 : 0] =
        session.RunToCompletion().ValueOrDie();
  }
  ExpectSummaryBitIdentical(per_variant[0], per_variant[1]);
}

}  // namespace
}  // namespace itrim
