// ReferencePolicy seam: the explicit PercentileReference is the default
// (bit for bit), the round-mass policy is TrimTopFractionInto on the round's
// scores, the fitted-model policy validates its model, its trim keeps
// exactly the budgeted lowest-residual rows, and its bucket ordering and
// in-place fits reproduce the comparator-sort, gather-and-fit refit loop
// bit for bit.
#include "game/reference_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "exp/schemes.h"
#include "fleet/tenant.h"
#include "game/kernels.h"
#include "game/public_board.h"
#include "game/score_model.h"
#include "game/session.h"
#include "game/strategies.h"
#include "ml/residual_score_model.h"
#include "obs/metrics.h"

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
  RoundMassReference round_mass;
  EXPECT_EQ(round_mass.name(), "round_mass");
}

// The round-mass policy is the round's own TrimTopFractionInto: it ignores
// the board and keeps the same mask, counts and cutoff on every threshold,
// with its index scratch warm across calls.
TEST(ReferencePolicyTest, RoundMassMatchesTrimTopFraction) {
  std::vector<double> pool = UniformPool(500, 23);
  IdentityScoreModel model(&pool);
  Rng rng(31);
  PublicBoard board;
  ASSERT_TRUE(model.BeginRun().ok());
  ASSERT_TRUE(model.Bootstrap(100, &rng, &board).ok());
  board.Seal();
  model.BeginRound(120);
  model.AppendBenignBatch(120, &rng);

  RoundMassReference reference;
  TrimOutcome got;
  for (double q : {0.0, 0.5, 0.9, 0.999}) {
    SCOPED_TRACE(q);
    ASSERT_TRUE(reference.TrimRound(q, &model, board, &got).ok());
    TrimOutcome want;
    std::vector<size_t> idx;
    TrimTopFractionInto(model.scores(), q, &idx, &want);
    EXPECT_EQ(got.keep, want.keep);
    EXPECT_EQ(got.kept_count, want.kept_count);
    EXPECT_EQ(got.removed_count, want.removed_count);
    EXPECT_EQ(std::memcmp(&got.cutoff, &want.cutoff, sizeof(double)), 0);
    EXPECT_EQ(reference.last_refit_iterations(), 0);
  }
}

// A residual tenant on the fitted-model reference really refits inside its
// rounds (the fleet path records the refits), and the round-mass rule is
// a reference kind of its own, so the two can no longer be combined.
TEST(ReferencePolicyTest, FittedTenantRecordsRefits) {
  RegressionData source = MakeSyntheticRegression(400, 2, 0.05, 41);
  TenantSpec spec;
  spec.model = TenantModelKind::kResidual;
  spec.regression = &source;
  spec.reference = TenantReferenceKind::kFittedModel;
  spec.game = SmallConfig(9);
  spec.game.rounds = 6;
  Tenant tenant = MaterializeTenant(spec, spec.game.seed).ValueOrDie();
  obs::MetricsRegistry registry;
  SessionObs sinks;
  sinks.metrics = registry.AddSlot("tenant");
  tenant.session->set_observability(sinks);
  ASSERT_TRUE(tenant.session->RunToCompletion().ok());
  EXPECT_GT(sinks.metrics->Get(obs::Counter::kSessionReferenceRefits), 0u);
  EXPECT_GT(sinks.metrics->Get(obs::Counter::kSessionRefitIterations), 0u);
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

// ---------------------------------------------------------------------------
// Seed replica of FittedModelReference::TrimRound: the refit loop as first
// written, ordering rows with a comparator std::sort over indices and
// fitting gathered copies of the kept rows. The policy must reproduce it
// bit for bit.

void SeedGatherSelected(std::span<const double> obs, size_t width,
                        const size_t* selected, size_t count,
                        std::vector<double>* xs, std::vector<double>* ys) {
  const size_t dims = width - 1;
  xs->resize(count * dims);
  ys->resize(count);
  for (size_t k = 0; k < count; ++k) {
    const double* row = obs.data() + selected[k] * width;
    std::copy(row, row + dims, xs->data() + k * dims);
    (*ys)[k] = row[dims];
  }
}

// What the replica's sorts saw across one trim: whether some sort ranked
// finite, +inf and NaN residuals together, and whether a kept prefix ended
// on a non-finite residual. Probes only; they never steer the loop.
struct SeedSortProbe {
  bool mixed_finite_inf_nan = false;
  bool nonfinite_cutoff = false;
};

Status SeedFittedTrim(const FittedModelReference::Options& options,
                      double percentile, const ScoreModel& model,
                      TrimOutcome* out, int* refit_iters,
                      SeedSortProbe* probe) {
  *refit_iters = 0;
  const std::span<const double> obs = model.observations();
  const size_t width = model.ObsWidth();
  const size_t n = model.scores().size();
  if (width < 2) {
    return Status::FailedPrecondition(
        "FittedModelReference: model observations are not multi-column");
  }
  if (n == 0) {
    out->keep.clear();
    out->kept_count = 0;
    out->removed_count = 0;
    out->cutoff = std::numeric_limits<double>::infinity();
    return Status::OK();
  }
  if (obs.size() != n * width) {
    return Status::FailedPrecondition(
        "FittedModelReference: model did not expose this round's "
        "observations");
  }
  const size_t dims = width - 1;

  size_t keep_n = percentile > 0.0
                      ? static_cast<size_t>(std::floor(
                            percentile * static_cast<double>(n)))
                      : 0;
  keep_n = std::max(keep_n, std::min(n, dims + 1));
  if (keep_n >= n) {
    out->keep.assign(n, 1);
    out->kept_count = n;
    out->removed_count = 0;
    out->cutoff = std::numeric_limits<double>::infinity();
    return Status::OK();
  }

  LinearRegressor regressor;
  LinearModel fit;
  std::vector<double> resid;
  std::vector<double> prev_resid;
  std::vector<size_t> order;
  std::vector<double> fit_xs;
  std::vector<double> fit_ys;

  order.resize(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  SeedGatherSelected(obs, width, order.data(), n, &fit_xs, &fit_ys);
  ITRIM_RETURN_NOT_OK(regressor.FitClosedForm(fit_xs, fit_ys, dims, &fit));
  resid.resize(n);
  prev_resid.resize(n);
  kernels::AbsResidualsToModel(obs.data(), n, width, fit.weights.data(),
                               fit.bias, resid.data());

  const double inf = std::numeric_limits<double>::infinity();
  double cutoff = inf;
  for (int iter = 0; iter < options.max_refits; ++iter) {
    ++*refit_iters;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const double ka = std::isnan(resid[a]) ? inf : resid[a];
      const double kb = std::isnan(resid[b]) ? inf : resid[b];
      if (ka != kb) return ka < kb;
      return a < b;
    });
    cutoff = resid[order[keep_n - 1]];
    bool has_finite = false, has_inf = false, has_nan = false;
    for (double r : resid) {
      has_finite |= std::isfinite(r);
      has_inf |= std::isinf(r);
      has_nan |= std::isnan(r);
    }
    probe->mixed_finite_inf_nan |= has_finite && has_inf && has_nan;
    probe->nonfinite_cutoff |= !std::isfinite(cutoff);
    SeedGatherSelected(obs, width, order.data(), keep_n, &fit_xs, &fit_ys);
    ITRIM_RETURN_NOT_OK(regressor.FitClosedForm(fit_xs, fit_ys, dims, &fit));
    std::swap(prev_resid, resid);
    kernels::AbsResidualsToModel(obs.data(), n, width, fit.weights.data(),
                                 fit.bias, resid.data());
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      delta += std::fabs(prev_resid[i] * prev_resid[i] - resid[i] * resid[i]);
    }
    if (delta / static_cast<double>(n) < options.tol) break;
  }

  out->keep.assign(n, 0);
  for (size_t k = 0; k < keep_n; ++k) out->keep[order[k]] = 1;
  out->kept_count = keep_n;
  out->removed_count = n - keep_n;
  out->cutoff = cutoff;
  return Status::OK();
}

// The option sets every differential case runs: the default loop, a loop
// that never stops early (tol = 0 runs all max_refits), and one-shot Trim.
std::vector<FittedModelReference::Options> DifferentialOptions() {
  FittedModelReference::Options defaults;
  FittedModelReference::Options no_early_stop;
  no_early_stop.tol = 0.0;
  FittedModelReference::Options one_shot;
  one_shot.max_refits = 1;
  return {defaults, no_early_stop, one_shot};
}

// Trims the model's current round with `reference` (its scratch and `got`
// stay warm across calls, as in a session) and with the seed replica, and
// requires the same status, kept mask, counts, cutoff bits and refits.
void ExpectTrimMatchesSeed(FittedModelReference* reference, double percentile,
                           ScoreModel* model, const PublicBoard& board,
                           TrimOutcome* got, SeedSortProbe* probe) {
  SCOPED_TRACE("percentile " + std::to_string(percentile) + ", tol " +
               std::to_string(reference->options().tol) + ", max_refits " +
               std::to_string(reference->options().max_refits));
  TrimOutcome want;
  int want_iters = 0;
  const Status want_status = SeedFittedTrim(
      reference->options(), percentile, *model, &want, &want_iters, probe);
  const Status got_status = reference->TrimRound(percentile, model, board, got);
  ASSERT_EQ(got_status.code(), want_status.code()) << got_status.ToString();
  if (!want_status.ok()) return;
  EXPECT_EQ(got->keep, want.keep);
  EXPECT_EQ(got->kept_count, want.kept_count);
  EXPECT_EQ(got->removed_count, want.removed_count);
  EXPECT_EQ(std::memcmp(&got->cutoff, &want.cutoff, sizeof(double)), 0)
      << "cutoff " << got->cutoff << " vs seed " << want.cutoff;
  EXPECT_EQ(reference->last_refit_iterations(), want_iters);
}

// A round of hand-built [x..., y] rows, exposed the way the residual model
// exposes its round. FittedModelReference and SeedFittedTrim read only
// observations(), ObsWidth() and the size of scores(), so the scores are
// placeholders and the data-source hooks do nothing.
class HandBuiltRoundModel : public ScoreModel {
 public:
  explicit HandBuiltRoundModel(size_t width) : ScoreModel(width) {}

  void SetRound(const std::vector<double>& rows) {
    const size_t width = ObsWidth();
    BeginRound(rows.size() / width);
    for (size_t at = 0; at < rows.size(); at += width) {
      std::span<double> slot = NextRowSlot();
      std::copy(rows.begin() + at, rows.begin() + at + width, slot.begin());
      AppendScore(0.0, false);
    }
  }

  std::string name() const override { return "hand_built"; }
  uint64_t BoardSeedSalt() const override { return 0; }
  Status BeginRun() override { return Status::OK(); }
  Status Bootstrap(size_t, Rng*, PublicBoard*) override {
    return Status::OK();
  }
  void AppendBenignBatch(size_t, Rng*) override {}
  Status AppendPoison(double, Rng*, const PublicBoard&) override {
    return Status::FailedPrecondition("hand-built rounds take no poison");
  }
  bool ProvidesObservations() const override { return true; }
  void Commit(std::span<const char>) override {}

 protected:
  double ScoreObservation(std::span<const double>) const override {
    return 0.0;
  }
};

// One round of hand-built rows of `dims` features plus the response; the
// synthetic source supplies feature rows to build them from.
struct HandBuiltRound {
  RegressionData source;
  HandBuiltRoundModel model;
  PublicBoard board;  ///< never read: the fitted policy ignores the board
  size_t dims;

  explicit HandBuiltRound(size_t dims)
      : source(MakeSyntheticRegression(200, dims, 0.1, 31)),
        model(dims + 1),
        dims(dims) {}

  void Play(const std::vector<double>& rows) { model.SetRound(rows); }
};

// The paper's residual shape (round 500, bootstrap 500, attack 0.1, three
// features): every plotted scheme plays its rounds against the fitted
// reference, and each round is re-trimmed at the played threshold and at
// 0.5 .. 0.95 under every option set.
void CheckPaperShapedRounds() {
  const RegressionData source = MakeSyntheticRegression(4000, 3, 0.1, 2024);
  constexpr int kRounds = 8;
  size_t compared = 0;
  for (SchemeId scheme : PlottedSchemes()) {
    SCOPED_TRACE(SchemeName(scheme));
    TenantSpec spec;
    spec.scheme = scheme;
    spec.model = TenantModelKind::kResidual;
    spec.regression = &source;
    spec.reference = TenantReferenceKind::kFittedModel;
    spec.game.round_size = 500;
    spec.game.bootstrap_size = 500;
    spec.game.attack_ratio = 0.1;
    auto materialized = MaterializeTenant(spec, 101);
    ASSERT_TRUE(materialized.ok());
    Tenant tenant = std::move(materialized).ValueOrDie();
    ASSERT_TRUE(tenant.session->Bootstrap().ok());

    std::vector<FittedModelReference> references;
    for (const auto& options : DifferentialOptions()) {
      references.emplace_back(options);
    }
    std::vector<TrimOutcome> outcomes(references.size());
    SeedSortProbe probe;
    for (int round = 0; round < kRounds; ++round) {
      auto record = tenant.session->Step();
      ASSERT_TRUE(record.ok());
      const double played = record.ValueOrDie().collector_percentile;
      for (double q : {played, 0.5, 0.8, 0.9, 0.95}) {
        for (size_t r = 0; r < references.size(); ++r) {
          ASSERT_NO_FATAL_FAILURE(ExpectTrimMatchesSeed(
              &references[r], q, tenant.model.get(), tenant.session->board(),
              &outcomes[r], &probe));
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, PlottedSchemes().size() * kRounds * 5 * 3);
}

// Duplicate rows tie on their residual at every refit, so the kept prefix
// must break ties by index exactly as the comparator did. A tail of
// near-duplicates whose responses step down one ulp per row ranks against
// index order on residuals that differ only in their lowest key bytes.
// Every kept count is swept, so some prefix ends inside each group.
void CheckDuplicateRows() {
  HandBuiltRound round(2);
  const RegressionData& src = round.source;
  std::vector<double> rows;
  auto add_row = [&](size_t r, double y) {
    rows.insert(rows.end(), src.xs.begin() + r * 2, src.xs.begin() + r * 2 + 2);
    rows.push_back(y);
  };
  for (size_t i = 0; i < 60; ++i) {
    // Rows 0..19 each appear three times, interleaved across the round;
    // rows 0..3 are shifted off the line so the fit has outliers to drop.
    const size_t r = i % 20;
    add_row(r, src.ys[r] + (r < 4 ? 2.0 : 0.0));
  }
  double y = src.ys[5] + 1.0;
  for (int i = 0; i < 6; ++i) {
    add_row(5, y);
    y = std::nextafter(y, -std::numeric_limits<double>::infinity());
  }
  ASSERT_NO_FATAL_FAILURE(round.Play(rows));
  const size_t n = round.model.scores().size();
  ASSERT_EQ(n, 66u);
  SeedSortProbe probe;
  for (const auto& options : DifferentialOptions()) {
    FittedModelReference reference(options);
    TrimOutcome got;
    for (size_t keep_n = 3; keep_n < n; ++keep_n) {
      const double q =
          (static_cast<double>(keep_n) + 0.5) / static_cast<double>(n);
      ASSERT_NO_FATAL_FAILURE(ExpectTrimMatchesSeed(
          &reference, q, &round.model, round.board, &got, &probe));
    }
  }
}

// NaN and +inf residuals rank together after every finite one, ties by
// index. Row 0 carries a response of +DBL_MAX and the clean rows a large
// negative one, so once a refit excludes the NaN rows its bias is far
// enough below zero that |DBL_MAX - prediction| overflows: a finite row
// with an infinite residual inside the kept prefix. Rows past the first
// prefix interleave NaN responses with +/-inf ones. The fixture must reach
// a sort that mixes finite, +inf and NaN residuals and a kept prefix that
// ends on a non-finite one, or it would pass vacuously.
void CheckNonFiniteResiduals() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  HandBuiltRound round(1);
  std::vector<double> rows;
  Rng rng(43);
  auto add = [&](double x, double y) {
    rows.push_back(x);
    rows.push_back(y);
  };
  add(0.0, std::numeric_limits<double>::max());
  for (int i = 0; i < 40; ++i) {
    add(rng.Uniform(-1.0, 1.0), -4e306 + 1e305 * rng.Uniform(-1.0, 1.0));
  }
  for (double y : {nan, inf, nan, -inf, inf, nan, nan, inf}) {
    add(rng.Uniform(-1.0, 1.0), y);
  }
  ASSERT_NO_FATAL_FAILURE(round.Play(rows));
  const size_t n = round.model.scores().size();
  ASSERT_EQ(n, 49u);
  SeedSortProbe probe;
  for (const auto& options : DifferentialOptions()) {
    FittedModelReference reference(options);
    TrimOutcome got;
    for (size_t keep_n = 2; keep_n < n; ++keep_n) {
      const double q =
          (static_cast<double>(keep_n) + 0.5) / static_cast<double>(n);
      ASSERT_NO_FATAL_FAILURE(ExpectTrimMatchesSeed(
          &reference, q, &round.model, round.board, &got, &probe));
    }
  }
  EXPECT_TRUE(probe.mixed_finite_inf_nan);
  EXPECT_TRUE(probe.nonfinite_cutoff);
}

// The policy against the comparator-sort replica: the kept mask,
// counts, cutoff bits and refit count match on paper-shaped rounds, on
// duplicate rows and on NaN/+inf residuals, at the default options, at
// tol = 0 and at max_refits = 1.
TEST(ReferencePolicyTest, FittedTrimMatchesSeedSortReplica) {
  {
    SCOPED_TRACE("paper-shaped rounds");
    CheckPaperShapedRounds();
  }
  {
    SCOPED_TRACE("duplicate rows");
    CheckDuplicateRows();
  }
  {
    SCOPED_TRACE("NaN and +inf residuals");
    CheckNonFiniteResiduals();
  }
}

}  // namespace
}  // namespace itrim
