// ScoreModel of the regression-poisoning setting: residuals against a
// reference linear fit.
//
// Observations are flat [x_0..x_{d-1}, y] rows of ObsWidth() = d + 1
// doubles; the score is the absolute residual |y - yhat| against a
// reference model fit (closed form) on the clean bootstrap sample, and the
// public board records the bootstrap sample's residual magnitudes — so the
// percentile coordinate both parties speak is a residual quantile. Poison
// "at percentile a" materializes as a response flipped across the
// reference prediction by the board's a-quantile residual (the
// flip-and-shift attack shape); the leverage variant plants it on the
// highest-leverage feature row instead of a random one.
//
// The model always pools its round rows in the base's flat observation pool,
// so observations() exposes the whole round: that is what lets a
// FittedModelReference (game/reference_policy.h) refit on the round's
// survivors — the model-in-the-loop generalization of the interactive
// protocol. With the default PercentileReference the model behaves like
// the scalar settings, trimming at the board's residual quantile.
#ifndef ITRIM_ML_RESIDUAL_SCORE_MODEL_H_
#define ITRIM_ML_RESIDUAL_SCORE_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "game/public_board.h"
#include "game/score_model.h"
#include "game/trimmer.h"
#include "ml/linreg.h"

namespace itrim {

/// \brief How the residual model materializes a poison row.
enum class PoisonShape {
  /// Flip-and-shift: a random clean feature row, response flipped across
  /// the reference prediction by the positioned residual magnitude
  /// (sign ~ Bernoulli(1/2)).
  kFlipShift = 0,
  /// Leverage attack: every poison row reuses the highest-leverage clean
  /// feature row (max distance to the feature mean), response pushed
  /// upward — one consistent pull on the fit, no RNG per poison value.
  kLeverage = 1,
};

/// \brief Human-readable poison shape name ("flip_shift" / "leverage").
const char* PoisonShapeName(PoisonShape shape);

/// \brief Regression data setting of the TrimmingSession engine.
///
/// `source` is borrowed, immutable and typically shared by many tenants;
/// the model reads it in place and never copies it. Benign arrivals sample
/// its rows with replacement: each draw copies one [x..., y] row into the
/// round pool and is scored on arrival (one LaneDot over the features), so
/// a bootstrap or rehydration costs the fit and the sample's scores, and
/// the model keeps no per-source-row state. A first-draw score cache like
/// DistanceScoreModel's would save that LaneDot, but across many tenants
/// its lookups miss the cache and cost more than the score.
class ResidualScoreModel : public ScoreModel {
 public:
  explicit ResidualScoreModel(const RegressionData* source,
                              PoisonShape shape = PoisonShape::kFlipShift);

  std::string name() const override { return "residual"; }
  uint64_t BoardSeedSalt() const override { return 0x94D049BB133111EBULL; }
  Status BeginRun() override;
  Status Bootstrap(size_t bootstrap_size, Rng* rng,
                   PublicBoard* board) override;
  void AppendBenignBatch(size_t count, Rng* rng) override;
  /// Positions above 1 extrapolate beyond the observed residual range (the
  /// adversary may fabricate residuals larger than any clean one).
  double InjectionCap() const override { return 1.5; }
  Status AppendPoison(double position, Rng* rng,
                      const PublicBoard& board) override;
  bool ProvidesObservations() const override { return true; }
  void Commit(std::span<const char> keep) override;

  /// \brief Survivor rows accumulated since BeginRun() (poison rows carry
  /// their fabricated responses).
  const RegressionData& retained_data() const { return retained_; }
  /// \brief Poison flags parallel to retained_data() rows.
  const std::vector<char>& retained_is_poison() const {
    return retained_is_poison_;
  }
  /// \brief Reference fit fixed from the clean bootstrap sample (valid
  /// after Bootstrap()).
  const LinearModel& reference_model() const { return reference_; }

 protected:
  double ScoreObservation(std::span<const double> obs) const override;

 private:
  /// |y - yhat| of one observation against the reference fit: the scalar
  /// definition that the batched AbsResidualsToModel kernel matches bit for
  /// bit.
  double AbsResidual(const double* x, size_t dims, double y) const;

  const RegressionData* source_;
  PoisonShape shape_;
  LinearRegressor regressor_;
  LinearModel reference_;
  /// argmax feature distance to the source mean (lowest index on ties);
  /// computed by Bootstrap() only under PoisonShape::kLeverage.
  size_t leverage_row_ = 0;
  RegressionData retained_;
  std::vector<char> retained_is_poison_;
};

}  // namespace itrim

#endif  // ITRIM_ML_RESIDUAL_SCORE_MODEL_H_
