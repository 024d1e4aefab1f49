// ResidualScoreModel in the interactive game: scoring bit-identity across
// kernel variants, a differential check against a
// replica of the eager interleaved-copy bootstrap, full sessions under both
// trim references, checkpoint/restore bit-identity at every split point,
// and fleet thread-count determinism.
#include "ml/residual_score_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
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

// ScoreObservation evaluates w . x through the dispatched LaneDot, so
// ScoreInto must give the same bits under either kernel build.
TEST(ResidualScoreModelTest, ScoringBitIdenticalAcrossSizesAndVariants) {
  VariantGuard guard;
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
    std::vector<double> generic(n, -1.0), vector(n, -2.0);
    kernels::ForceVariant(Variant::kGeneric);
    ASSERT_TRUE(model.ScoreInto(obs, generic).ok());
    kernels::ForceVariant(Variant::kVector);
    ASSERT_TRUE(model.ScoreInto(obs, vector).ok());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(BitEqual(generic[i], vector[i])) << "n=" << n << " i=" << i;
    }
  }
}

// The residual model as it was before it read its source in place, kept as
// a differential oracle. Bootstrap() interleaves the whole source into
// [x..., y] rows, scores the bootstrap sample through the batched kernel,
// scores every source row eagerly and always runs the leverage scan; the
// round methods read the interleaved copy.
class InterleavedReplicaModel : public ScoreModel {
 public:
  InterleavedReplicaModel(const RegressionData* source, PoisonShape shape)
      : ScoreModel(source->dims + 1), source_(source), shape_(shape) {}

  std::string name() const override { return "residual_replica"; }
  uint64_t BoardSeedSalt() const override { return 0x94D049BB133111EBULL; }

  Status BeginRun() override {
    width_ = source_->dims + 1;
    retained_ = RegressionData{};
    retained_.dims = source_->dims;
    return Status::OK();
  }

  Status Bootstrap(size_t bootstrap_size, Rng* rng,
                   PublicBoard* board) override {
    const size_t n_source = source_->size();
    const size_t dims = source_->dims;
    flat_rows_.resize(n_source * width_);
    for (size_t i = 0; i < n_source; ++i) {
      double* row = flat_rows_.data() + i * width_;
      std::copy(source_->xs.data() + i * dims,
                source_->xs.data() + (i + 1) * dims, row);
      row[dims] = source_->ys[i];
    }
    std::vector<double> fit_xs(bootstrap_size * dims);
    std::vector<double> fit_ys(bootstrap_size);
    std::vector<double> sample_rows(bootstrap_size * width_);
    for (size_t i = 0; i < bootstrap_size; ++i) {
      const size_t idx = static_cast<size_t>(rng->UniformInt(n_source));
      const double* row = flat_rows_.data() + idx * width_;
      std::copy(row, row + dims, fit_xs.data() + i * dims);
      fit_ys[i] = row[dims];
      std::copy(row, row + width_, sample_rows.data() + i * width_);
    }
    ITRIM_RETURN_NOT_OK(
        regressor_.FitClosedForm(fit_xs, fit_ys, dims, &reference_));
    std::vector<double> sample_resid(bootstrap_size);
    kernels::AbsResidualsToModel(sample_rows.data(), bootstrap_size, width_,
                                 reference_.weights.data(), reference_.bias,
                                 sample_resid.data());
    for (double r : sample_resid) board->RecordOne(r);
    source_scores_.resize(n_source);
    kernels::AbsResidualsToModel(flat_rows_.data(), n_source, width_,
                                 reference_.weights.data(), reference_.bias,
                                 source_scores_.data());
    std::vector<double> mean(dims, 0.0);
    for (size_t i = 0; i < n_source; ++i) {
      const double* x = source_->xs.data() + i * dims;
      for (size_t j = 0; j < dims; ++j) mean[j] += x[j];
    }
    for (double& m : mean) m /= static_cast<double>(n_source);
    leverage_row_ = 0;
    double best = -1.0;
    for (size_t i = 0; i < n_source; ++i) {
      const double dist = kernels::SquaredDistance(
          source_->xs.data() + i * dims, mean.data(), dims);
      if (dist > best) {
        best = dist;
        leverage_row_ = i;
      }
    }
    return Status::OK();
  }

  void AppendBenignBatch(size_t count, Rng* rng) override {
    std::vector<uint64_t> indices(count);
    rng->FillUniformInt(source_->size(), indices.data(), count);
    for (uint64_t idx : indices) {
      const double* row = flat_rows_.data() + idx * width_;
      std::span<double> slot = NextRowSlot();
      std::copy(row, row + width_, slot.begin());
      AppendScore(source_scores_[idx], false);
    }
  }

  double InjectionCap() const override { return 1.5; }

  Status AppendPoison(double position, Rng* rng,
                      const PublicBoard& board) override {
    double magnitude;
    if (position <= 1.0) {
      ITRIM_ASSIGN_OR_RETURN(magnitude, board.Quantile(position));
    } else {
      ITRIM_ASSIGN_OR_RETURN(magnitude, board.Quantile(1.0));
      magnitude *= position;
    }
    size_t idx;
    double sign;
    if (shape_ == PoisonShape::kFlipShift) {
      idx = static_cast<size_t>(rng->UniformInt(source_->size()));
      sign = rng->Bernoulli(0.5) ? 1.0 : -1.0;
    } else {
      idx = leverage_row_;
      sign = 1.0;
    }
    const size_t dims = width_ - 1;
    const double* x = flat_rows_.data() + idx * width_;
    std::span<double> slot = NextRowSlot();
    std::copy(x, x + dims, slot.begin());
    slot[dims] = reference_.Predict({x, dims}) + sign * magnitude;
    AppendScore(ScoreObservation(slot), true);
    return Status::OK();
  }

  bool ProvidesObservations() const override { return true; }

  Status TrimAtReference(double percentile, const PublicBoard& board,
                         TrimOutcome* out) override {
    ITRIM_ASSIGN_OR_RETURN(double cutoff, board.Quantile(percentile));
    TrimAboveValueInto(scores(), cutoff, out);
    return Status::OK();
  }

  void Commit(std::span<const char> keep) override {
    const std::span<const double> rows = observations();
    const size_t dims = width_ - 1;
    for (size_t i = 0; i < scores().size(); ++i) {
      if (!keep[i]) continue;
      const double* row = rows.data() + i * width_;
      retained_.xs.insert(retained_.xs.end(), row, row + dims);
      retained_.ys.push_back(row[dims]);
    }
  }

  const RegressionData& retained_data() const { return retained_; }
  const LinearModel& reference_model() const { return reference_; }

 protected:
  double ScoreObservation(std::span<const double> obs) const override {
    const size_t dims = obs.size() - 1;
    const double prediction =
        kernels::LaneDot(reference_.weights.data(), obs.data(), dims) +
        reference_.bias;
    return std::fabs(obs[dims] - prediction);
  }

 private:
  const RegressionData* source_;
  PoisonShape shape_;
  size_t width_ = 0;
  LinearRegressor regressor_;
  LinearModel reference_;
  std::vector<double> flat_rows_;
  std::vector<double> source_scores_;
  size_t leverage_row_ = 0;
  RegressionData retained_;
};

void ExpectSpansBitEqual(std::span<const double> a, std::span<const double> b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(BitEqual(a[i], b[i])) << what << " [" << i << "]";
  }
}

// The in-place model against the replica of the eager interleaved-copy
// bootstrap, on more bootstrap draws than source rows (the sample repeats
// rows) and a board smaller than the sample (the reservoir sees draw
// order). Every round's scores, flags and rows, the board, the reference
// fit, the records and the retained rows must match bit for bit, including
// across a checkpoint/restore split (Restore re-runs the bootstrap).
TEST(ResidualScoreModelTest, ResidualModelMatchesInterleavedReplica) {
  const int kRounds = 8;
  const int kSplit = 3;
  for (size_t dims : {3u, 5u}) {
    RegressionData source =
        MakeSyntheticRegression(200, dims, 0.1, 59 + dims);
    for (PoisonShape shape :
         {PoisonShape::kFlipShift, PoisonShape::kLeverage}) {
      for (bool fitted : {false, true}) {
        SCOPED_TRACE("dims " + std::to_string(dims) + "/" +
                     PoisonShapeName(shape) + "/" +
                     (fitted ? "fitted_model" : "percentile"));
        GameConfig config = ResidualConfig(97);
        config.rounds = kRounds;
        config.bootstrap_size = 250;
        config.board_capacity = 128;

        InterleavedReplicaModel replica(&source, shape);
        ElasticCollector c_replica(0.5);
        OptimalRegressionAdversary a_replica;
        FittedModelReference r_replica;
        TrimmingSession expected(config, &replica, &c_replica, &a_replica,
                                 nullptr, fitted ? &r_replica : nullptr);
        ASSERT_TRUE(expected.Bootstrap().ok());

        ResidualScoreModel m_first(&source, shape);
        ElasticCollector c_first(0.5);
        OptimalRegressionAdversary a_first;
        FittedModelReference r_first;
        TrimmingSession first(config, &m_first, &c_first, &a_first, nullptr,
                              fitted ? &r_first : nullptr);
        ASSERT_TRUE(first.Bootstrap().ok());

        ResidualScoreModel m_resumed(&source, shape);
        ElasticCollector c_resumed(0.5);
        OptimalRegressionAdversary a_resumed;
        FittedModelReference r_resumed;
        TrimmingSession resumed(config, &m_resumed, &c_resumed, &a_resumed,
                                nullptr, fitted ? &r_resumed : nullptr);

        auto expect_bootstrap_matches = [&](const TrimmingSession& session,
                                            const ResidualScoreModel& model) {
          ExpectSpansBitEqual(expected.board().values(),
                              session.board().values(), "board");
          EXPECT_EQ(expected.board().total_recorded(),
                    session.board().total_recorded());
          ExpectSpansBitEqual(replica.reference_model().weights,
                              model.reference_model().weights, "weights");
          EXPECT_TRUE(BitEqual(replica.reference_model().bias,
                               model.reference_model().bias));
        };
        expect_bootstrap_matches(first, m_first);

        for (int round = 0; round < kRounds; ++round) {
          SCOPED_TRACE("round " + std::to_string(round));
          if (round == kSplit) {
            ASSERT_TRUE(resumed.Restore(first.Checkpoint()).ok());
            expect_bootstrap_matches(resumed, m_resumed);
          }
          TrimmingSession& session = round < kSplit ? first : resumed;
          const ResidualScoreModel& model =
              round < kSplit ? m_first : m_resumed;
          ASSERT_TRUE(expected.Step().ok());
          ASSERT_TRUE(session.Step().ok());
          ExpectSpansBitEqual(replica.scores(), model.scores(), "scores");
          ASSERT_EQ(replica.is_poison().size(), model.is_poison().size());
          EXPECT_TRUE(std::equal(replica.is_poison().begin(),
                                 replica.is_poison().end(),
                                 model.is_poison().begin()));
          ExpectSpansBitEqual(replica.observations(), model.observations(),
                              "observations");
        }
        ExpectSummaryBitIdentical(expected.Finish(), resumed.Finish());

        // Retained rows: the first session's rounds, then the resumed one's.
        std::vector<double> xs = m_first.retained_data().xs;
        std::vector<double> ys = m_first.retained_data().ys;
        const RegressionData& tail = m_resumed.retained_data();
        xs.insert(xs.end(), tail.xs.begin(), tail.xs.end());
        ys.insert(ys.end(), tail.ys.begin(), tail.ys.end());
        ExpectSpansBitEqual(replica.retained_data().xs, xs, "retained xs");
        ExpectSpansBitEqual(replica.retained_data().ys, ys, "retained ys");
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
// boundary, under both poison shapes and both trim references.
TEST(ResidualScoreModelTest, HibernationBitIdenticalAtEverySplit) {
  RegressionData source = MakeSyntheticRegression(300, 2, 0.1, 71);
  const int kRounds = 6;
  for (PoisonShape shape : {PoisonShape::kFlipShift, PoisonShape::kLeverage}) {
    for (TenantReferenceKind reference : {TenantReferenceKind::kPercentile,
                                          TenantReferenceKind::kFittedModel}) {
      SCOPED_TRACE(std::string(PoisonShapeName(shape)) + "/" +
                   (reference == TenantReferenceKind::kFittedModel
                        ? "fitted_model"
                        : "percentile"));
      TenantSpec spec;
      spec.model = TenantModelKind::kResidual;
      spec.regression = &source;
      spec.regression_poison = shape;
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
}

}  // namespace
}  // namespace itrim
