// Quality_Evaluation(): the publicly recognized data-quality standard
// (Section III-B) that both parties use to assess each round.
//
// A quality score lives in [0, 1]; 1 means "indistinguishable from clean
// data". The Titfortat strategy (Algorithm 1) triggers permanent retaliation
// when a round's quality drops below a threshold derived from the clean
// baseline QE(X0) and the redundancy Red.
#ifndef ITRIM_GAME_QUALITY_H_
#define ITRIM_GAME_QUALITY_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "game/public_board.h"

namespace itrim {

/// \brief Interface scoring a received round against the board reference.
class QualityEvaluation {
 public:
  virtual ~QualityEvaluation() = default;

  /// \brief Quality in [0, 1] of `round_values` given the reference `board`;
  /// higher is better.
  virtual double Evaluate(std::span<const double> round_values,
                          const PublicBoard& board) = 0;

  /// \brief Human-readable evaluator name.
  virtual std::string name() const = 0;
};

/// \brief Quality from excess upper-tail mass.
///
/// Clean data has (1 - tth) of its mass above the board's tth-quantile;
/// injected poison inflates that tail. QE = 1 - max(0, observed - expected),
/// a direct estimate of 1 - attack mass.
class TailMassQuality : public QualityEvaluation {
 public:
  explicit TailMassQuality(double tth) : tth_(tth) {}
  double Evaluate(std::span<const double> round_values,
                  const PublicBoard& board) override;
  std::string name() const override { return "tail_mass"; }

 private:
  double tth_;
};

/// \brief Quality from the *location* of the excess mass (Section VI-D).
///
/// Splits the upper tail into a defect band [band_lo, band_hi) and an
/// equilibrium tail [band_hi, inf). Estimated poison mass in each region is
/// the observed count minus the clean expectation; the score is
/// 1 - (defect share of total estimated poison). An adversary playing the
/// equilibrium position (above band_hi) scores ~1; one crowding the defect
/// band (just above the threshold, where trimming is costly) scores ~0.
class DefectShareQuality : public QualityEvaluation {
 public:
  /// How the band edges are interpreted.
  enum class CutoffMode {
    /// lo/hi are percentiles; cutoff values come from board quantiles and
    /// clean occupancy expectations are (hi - lo) and (1 - hi).
    kBoardQuantile,
    /// lo/hi are cutoff *values* in the score domain (e.g. percentile
    /// positions of a PositionMap game); clean occupancy expectations are
    /// measured empirically on the board.
    kAbsolute,
  };

  DefectShareQuality(double band_lo, double band_hi,
                     CutoffMode mode = CutoffMode::kBoardQuantile)
      : band_lo_(band_lo), band_hi_(band_hi), mode_(mode) {}
  double Evaluate(std::span<const double> round_values,
                  const PublicBoard& board) override;
  std::string name() const override { return "defect_share"; }

 private:
  double band_lo_;
  double band_hi_;
  CutoffMode mode_;
};

/// \brief DefectShareQuality with calibrated estimation noise.
///
/// Models the sampling error of tail-mass estimators: the variance of the
/// quality estimate grows as the poison concentrates deeper in the sparse
/// tail (few benign observations above the 99th percentile make the
/// equilibrium-mass estimate noisy). Used by the Table-III non-equilibrium
/// study, where this jitter is what occasionally trips the Titfortat trigger
/// even under equilibrium play.
class NoisyDefectShareQuality : public QualityEvaluation {
 public:
  /// `sigma0` is baseline estimation noise; `sigma_tail` scales with the
  /// estimated equilibrium-tail share of the poison.
  NoisyDefectShareQuality(
      double band_lo, double band_hi, double sigma0, double sigma_tail,
      uint64_t seed,
      DefectShareQuality::CutoffMode mode =
          DefectShareQuality::CutoffMode::kBoardQuantile);
  double Evaluate(std::span<const double> round_values,
                  const PublicBoard& board) override;
  std::string name() const override { return "noisy_defect_share"; }

 private:
  DefectShareQuality inner_;
  double sigma0_;
  double sigma_tail_;
  Rng rng_;
};

}  // namespace itrim

#endif  // ITRIM_GAME_QUALITY_H_
