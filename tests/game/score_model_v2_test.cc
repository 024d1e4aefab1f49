// Differential tests of the ScoreModel v2 batched scoring surface.
//
// The v2 contract has two halves, both asserted here at the bit level:
//
//   1. ScoreInto (the batched kernel path) equals ScoreIntoScalar (the
//      retained per-observation reference) for every model kind, batch
//      size and dispatch variant — the batch is an optimization, never a
//      semantic change.
//   2. A full game stream produces bit-identical GameSummarys whether the
//      kernels dispatch to the generic or the auto-vectorized build,
//      across every scheme and data setting.
//
// Plus the span plumbing around them: mismatched spans are rejected with
// InvalidArgument, external AppendBenignBatch ingest scores like the
// simulation path, and scores()/is_poison() stay parallel views.
#include "game/score_model.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
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

#include "game/summary_test_util.h"

namespace itrim {
namespace {

using kernels::Variant;

struct VariantGuard {
  ~VariantGuard() { kernels::ResetVariant(); }
};

const size_t kBatchSizes[] = {0, 1, 2, 3, 4, 5, 17, 64, 257};

// Bootstraps a distance model over an unlabeled control-chart sample so the
// percentile geometry exists before scoring.
class DistanceModelFixture {
 public:
  DistanceModelFixture() : data_(MakeControl(35, 40)), model_(&data_) {
    data_.labels.clear();  // external ingest needs an unlabeled source
    Rng rng(71);
    EXPECT_TRUE(model_.BeginRun().ok());
    EXPECT_TRUE(model_.Bootstrap(120, &rng, &board_).ok());
  }

  Dataset data_;
  DistanceScoreModel model_;
  PublicBoard board_;
};

// Flattens `count` source rows (sampled with replacement) into one span.
std::vector<double> FlatRows(const Dataset& data, size_t count, Rng* rng) {
  std::vector<double> flat;
  flat.reserve(count * data.dims());
  for (size_t i = 0; i < count; ++i) {
    const auto& row = data.rows[rng->UniformInt(data.rows.size())];
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

void ExpectBatchEqualsScalar(const ScoreModel& model,
                             std::span<const double> obs, size_t count) {
  std::vector<double> batch(count, -1.0), scalar(count, -2.0);
  ASSERT_TRUE(model.ScoreInto(obs, batch).ok());
  ASSERT_TRUE(model.ScoreIntoScalar(obs, scalar).ok());
  for (size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(BitEqual(batch[i], scalar[i])) << "i=" << i;
  }
}

TEST(ScoreIntoDifferentialTest, IdentityBatchEqualsScalarReference) {
  std::vector<double> pool = UniformPool(500, 3);
  IdentityScoreModel model(&pool);
  ASSERT_TRUE(model.BeginRun().ok());
  Rng rng(5);
  for (size_t n : kBatchSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<double> obs(n);
    for (double& v : obs) v = rng.Uniform(-5.0, 5.0);
    ExpectBatchEqualsScalar(model, obs, n);
  }
}

TEST(ScoreIntoDifferentialTest, LdpBatchEqualsScalarReference) {
  std::vector<double> population = UniformPool(500, 7);
  PiecewiseMechanism mechanism(2.0);
  InputManipulationAttack attack(1.0);
  LdpReportScoreModel model(&population, &mechanism, &attack, 0.9);
  Rng rng(9);
  for (size_t n : kBatchSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<double> obs(n);
    for (double& v : obs) v = rng.Uniform(-3.0, 3.0);
    ExpectBatchEqualsScalar(model, obs, n);
  }
}

TEST(ScoreIntoDifferentialTest, DistanceBatchEqualsScalarReference) {
  DistanceModelFixture fx;
  Rng rng(11);
  for (size_t n : kBatchSizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<double> obs = FlatRows(fx.data_, n, &rng);
    ExpectBatchEqualsScalar(fx.model_, obs, n);
  }
}

TEST(ScoreIntoDifferentialTest, DistanceBatchEqualsScalarUnderBothVariants) {
  if (!kernels::VectorAvailable()) {
    GTEST_SKIP() << "no AVX2: single-variant machine";
  }
  VariantGuard guard;
  DistanceModelFixture fx;
  Rng rng(13);
  const size_t n = 129;
  std::vector<double> obs = FlatRows(fx.data_, n, &rng);
  std::vector<double> generic(n), vector(n), scalar(n);
  kernels::ForceVariant(Variant::kGeneric);
  ASSERT_TRUE(fx.model_.ScoreInto(obs, generic).ok());
  ASSERT_TRUE(fx.model_.ScoreIntoScalar(obs, scalar).ok());
  kernels::ForceVariant(Variant::kVector);
  ASSERT_TRUE(fx.model_.ScoreInto(obs, vector).ok());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(BitEqual(generic[i], vector[i])) << "i=" << i;
    EXPECT_TRUE(BitEqual(generic[i], scalar[i])) << "i=" << i;
  }
}

TEST(ScoreIntoSpanCheckTest, MismatchedSpansAreInvalidArgument) {
  std::vector<double> pool = UniformPool(100, 17);
  IdentityScoreModel model(&pool);
  std::vector<double> obs(10), out(9);
  EXPECT_EQ(model.ScoreInto(obs, out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(model.ScoreIntoScalar(obs, out).code(),
            StatusCode::kInvalidArgument);

  DistanceModelFixture fx;
  const size_t dims = fx.data_.dims();
  ASSERT_GT(dims, 1u);
  // One double short of a whole number of rows.
  std::vector<double> rows(5 * dims - 1), scores(5);
  EXPECT_EQ(fx.model_.ScoreInto(rows, scores).code(),
            StatusCode::kInvalidArgument);
}

TEST(ExternalIngestTest, IdentityIngestAppendsVerbatim) {
  std::vector<double> pool = UniformPool(100, 19);
  IdentityScoreModel model(&pool);
  ASSERT_TRUE(model.BeginRun().ok());
  model.BeginRound(4);
  const std::vector<double> obs = {0.25, -1.5, 3.75, 0.0};
  ASSERT_TRUE(model.AppendBenignBatch(obs).ok());
  std::span<const double> scores = model.scores();
  std::span<const char> poison = model.is_poison();
  ASSERT_EQ(scores.size(), obs.size());
  ASSERT_EQ(poison.size(), obs.size());
  for (size_t i = 0; i < obs.size(); ++i) {
    EXPECT_TRUE(BitEqual(scores[i], obs[i]));
    EXPECT_EQ(poison[i], 0);
  }
}

TEST(ExternalIngestTest, DistanceIngestScoresLikeScalarPath) {
  DistanceModelFixture fx;
  Rng rng(23);
  const size_t n = 37;
  std::vector<double> obs = FlatRows(fx.data_, n, &rng);
  fx.model_.BeginRound(n);
  ASSERT_TRUE(fx.model_.AppendBenignBatch(obs).ok());
  std::span<const double> scores = fx.model_.scores();
  ASSERT_EQ(scores.size(), n);
  const size_t dims = fx.data_.dims();
  for (size_t i = 0; i < n; ++i) {
    double expect = 0.0;
    ASSERT_TRUE(fx.model_
                    .ScoreIntoScalar(
                        std::span<const double>(obs).subspan(i * dims, dims),
                        std::span<double>(&expect, 1))
                    .ok());
    EXPECT_TRUE(BitEqual(scores[i], expect)) << "i=" << i;
  }
}

TEST(ExternalIngestTest, DistanceIngestRejectsLabeledAndUnbootstrapped) {
  Dataset labeled = MakeControl(41, 30);
  ASSERT_TRUE(labeled.labeled());
  DistanceScoreModel model(&labeled);
  std::vector<double> obs(labeled.dims(), 0.0);
  // Not bootstrapped yet: no geometry to score against.
  EXPECT_EQ(model.AppendBenignBatch(obs).code(),
            StatusCode::kFailedPrecondition);
  Rng rng(43);
  PublicBoard board;
  ASSERT_TRUE(model.BeginRun().ok());
  ASSERT_TRUE(model.Bootstrap(60, &rng, &board).ok());
  // Bootstrapped but labeled: external rows carry no labels.
  EXPECT_EQ(model.AppendBenignBatch(obs).code(),
            StatusCode::kFailedPrecondition);
  // Partial rows are rejected outright.
  Dataset unlabeled = labeled;
  unlabeled.labels.clear();
  DistanceScoreModel umodel(&unlabeled);
  ASSERT_TRUE(umodel.BeginRun().ok());
  PublicBoard uboard;
  ASSERT_TRUE(umodel.Bootstrap(60, &rng, &uboard).ok());
  std::vector<double> partial(unlabeled.dims() + 1, 0.0);
  EXPECT_EQ(umodel.AppendBenignBatch(partial).code(),
            StatusCode::kInvalidArgument);
}

// Source-row scores are filled on a row's first draw. The round's benign
// draws are the first RNG consumer of Step(), so replaying the pre-step
// stream state recovers the rows; their scores must equal one batched
// PositionsOfRows sweep over the same rows, bit for bit.
void ExpectStepScoresMatchBatch(TrimmingSession* session,
                                const DistanceScoreModel& model,
                                const Dataset& data) {
  Rng replay;
  replay.Restore(session->Checkpoint().rng);
  ASSERT_TRUE(session->Step().ok());
  const size_t count = session->config().round_size;
  std::vector<uint64_t> idx(count);
  replay.FillUniformInt(data.rows.size(), idx.data(), count);
  std::vector<double> flat;
  for (uint64_t i : idx) {
    flat.insert(flat.end(), data.rows[i].begin(), data.rows[i].end());
  }
  std::vector<double> batch(count);
  model.position_map().PositionsOfRows(flat, count, batch);
  std::span<const double> scores = model.scores();
  std::span<const char> is_poison = model.is_poison();
  ASSERT_GE(scores.size(), count);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(is_poison[i], 0) << "i=" << i;
    EXPECT_TRUE(BitEqual(scores[i], batch[i])) << "i=" << i;
  }
}

TEST(DistanceFirstDrawScoresTest, MatchBatchedSweepAcrossRoundsAndRestore) {
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
        ExpectStepScoresMatchBatch(&session, model, data);
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
      ExpectStepScoresMatchBatch(&session, model, data);
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

// The engine's batched no-adversary poison path (AppendPoisonBatch) must be
// a pure dispatch-count optimization: records bit-identical to the default
// per-observation loop, which a wrapper model pins here.
class LoopingPoisonLdpModel : public LdpReportScoreModel {
 public:
  using LdpReportScoreModel::LdpReportScoreModel;
  Status AppendPoisonBatch(std::span<const double> positions, Rng* rng,
                           const PublicBoard& board) override {
    // Deliberately the base-class default loop, not the batched override.
    return ScoreModel::AppendPoisonBatch(positions, rng, board);
  }
};

TEST(PoisonBatchEquivalenceTest, BatchedPoisonMatchesPerObservationLoop) {
  std::vector<double> population = UniformPool(1500, 41);
  for (double& v : population) v = 2.0 * v - 1.0;
  PiecewiseMechanism mechanism(2.0);
  GameConfig config;
  config.rounds = 5;
  config.round_size = 60;
  config.attack_ratio = 0.25;
  config.bootstrap_size = 80;
  config.seed = 999;

  GameSummary batched, looped;
  {
    InputManipulationAttack attack(1.0);
    LdpReportScoreModel model(&population, &mechanism, &attack, config.tth);
    ElasticCollector collector(0.5);
    TrimmingSession session(config, &model, &collector, nullptr, nullptr);
    batched = session.RunToCompletion().ValueOrDie();
  }
  {
    InputManipulationAttack attack(1.0);
    LoopingPoisonLdpModel model(&population, &mechanism, &attack, config.tth);
    ElasticCollector collector(0.5);
    TrimmingSession session(config, &model, &collector, nullptr, nullptr);
    looped = session.RunToCompletion().ValueOrDie();
  }
  ExpectSummaryBitIdentical(batched, looped);
}

}  // namespace
}  // namespace itrim
