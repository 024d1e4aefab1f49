// Privacy-preserving collection game under LDP (Section V case study,
// Fig 9 experiment).
//
// Each round, honest users draw a true value from the population, perturb it
// with an ε-LDP mechanism and submit the report; attackers submit poison
// reports from a manipulation attack. The collector defends either by
// interactive trimming (any CollectorStrategy over the report-percentile
// domain) or by the EMF baseline, and finally estimates the population mean
// from the surviving/weighted reports. Because reports are unbiased, the
// clean estimator is simply the report mean; the defense's job is to keep
// the poison out without trimming so much honest noise that the estimate
// degrades — the tension that produces the paper's inflection at small ε.
#ifndef ITRIM_LDP_LDP_GAME_H_
#define ITRIM_LDP_LDP_GAME_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "game/quality.h"
#include "game/session.h"
#include "game/strategies.h"
#include "ldp/attacks.h"
#include "ldp/emf.h"
#include "ldp/mechanism.h"

namespace itrim {

/// \brief Outcome of one LDP collection run.
struct LdpRunResult {
  double estimated_mean = 0.0;
  double true_mean = 0.0;
  double squared_error = 0.0;
  /// Round bookkeeping (trimming path only; empty for EMF).
  GameSummary game;
  /// Estimated attack fraction (EMF path only).
  double emf_beta = 0.0;
};

/// \brief The LDP collection game.
///
/// The trimming path routes through the shared TrimmingSession engine
/// (game/session.h) with an LDP-report ScoreModel: honest reports are the
/// scores, poison comes from the LdpAttack (no percentile guidance), the
/// recorded injection position is the collector-side tail estimate, and
/// trimming keeps the symmetric [1 - q, q] report-percentile band.
///
/// The game speaks the shared GameConfig: `round_size` honest users report
/// each round, joined by attack_ratio * round_size attackers. The band
/// trim is defined against the board reference: the session always plays
/// the percentile reference (fleet tenants of kind kLdp refuse kRoundMass).
class LdpCollectionGame {
 public:
  /// `population` supplies true values in [-1, 1] (sampled with
  /// replacement); all pointers are borrowed. The configuration is
  /// validated here; every Run* surfaces the validation Status.
  LdpCollectionGame(GameConfig config, const std::vector<double>* population,
                    const LdpMechanism* mechanism, LdpAttack* attack);

  /// \brief Runs with an interactive-trimming defense. `quality` may be
  /// null (no Titfortat trigger signal).
  Result<LdpRunResult> RunTrimming(CollectorStrategy* collector,
                                   QualityEvaluation* quality);

  /// \brief Runs with the EMF baseline (no trimming; EM-weighted mean).
  Result<LdpRunResult> RunEmf(const EmfConfig& emf_config);

  /// \brief Runs with no defense at all (the Ostrich estimate).
  Result<LdpRunResult> RunUndefended();

 private:
  /// Generates one round of reports; poison entries are flagged.
  void GenerateRound(Rng* rng, std::vector<double>* reports,
                     std::vector<char>* is_poison) const;
  double TrueMean() const;
  /// Report-domain bounds for histogramming (finite even for Laplace).
  void ReportBounds(double* lo, double* hi) const;

  GameConfig config_;
  Status config_status_;
  const std::vector<double>* population_;
  const LdpMechanism* mechanism_;
  LdpAttack* attack_;
};

}  // namespace itrim

#endif  // ITRIM_LDP_LDP_GAME_H_
