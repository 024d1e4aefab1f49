// ScoreModel of the LDP setting (Section V case study), shared by both ways
// of building an LDP session: MaterializeTenant for a tenant of kind kLdp,
// and LdpCollectionGame::RunTrimming, which wires a TrimmingSession by hand
// for collectors and quality evaluations that are not schemes (Fig 9's
// TailMassQuality).
//
// Honest perturbed reports are the scores, poison reports come from the
// manipulation attack (which ignores the engine's percentile guidance — the
// session runs without an AdversaryStrategy), and reference trimming keeps
// the symmetric [1 - q, q] percentile band of the clean report reference.
// Symmetric truncation keeps the mean estimator unbiased under the
// mechanisms' symmetric noise while the upper cut removes the attack's
// high-side mass; the lower cut's false positives are what inflate MSE at
// small epsilon (the Fig 9 inflection).
#ifndef ITRIM_LDP_REPORT_SCORE_MODEL_H_
#define ITRIM_LDP_REPORT_SCORE_MODEL_H_

#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "game/public_board.h"
#include "game/score_model.h"
#include "game/trimmer.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"

namespace itrim {

/// \brief LDP-report data setting of the TrimmingSession engine.
///
/// All pointers are borrowed. The mechanism is const and safely shared
/// across concurrent sessions; the attack's PoisonReport is non-const, so
/// give each concurrently stepped session its own attack instance (the
/// stock attacks in ldp/attacks.h hold no mutable state, but the interface
/// does not promise that).
class LdpReportScoreModel : public ScoreModel {
 public:
  LdpReportScoreModel(const std::vector<double>* population,
                      const LdpMechanism* mechanism, LdpAttack* attack,
                      double tth)
      : population_(population), mechanism_(mechanism), attack_(attack),
        tth_(tth) {}

  std::string name() const override { return "ldp_report"; }
  uint64_t BoardSeedSalt() const override { return 0x1234567ULL; }
  // Poison reports come from the LdpAttack, not from percentile guidance.
  bool RequiresAdversaryPositions() const override { return false; }

  Status BeginRun() override;
  Status Bootstrap(size_t bootstrap_size, Rng* rng,
                   PublicBoard* board) override;
  size_t PoisonCount(const GameConfig& config, double* quota) const override;
  void BeginRound(size_t expected) override;
  void AppendBenignBatch(size_t count, Rng* rng) override;
  Status AppendBenignBatch(std::span<const double> obs) override;
  Status AppendPoison(double position, Rng* rng,
                      const PublicBoard& board) override;
  /// One virtual call for the whole poison head: the attack needs no
  /// percentile guidance, so the engine hands the batch over wholesale
  /// (identical RNG order to the per-report hook).
  Status AppendPoisonBatch(std::span<const double> positions, Rng* rng,
                           const PublicBoard& board) override;
  std::span<const double> scores() const override { return reports_; }
  std::span<const char> is_poison() const override { return is_poison_; }
  Status ScoreInto(std::span<const double> obs,
                   std::span<double> out) const override;
  double InjectionSignal(const PublicBoard& board,
                         double adversary_mean) const override;
  Status TrimAtReference(double percentile, const PublicBoard& board,
                         TrimOutcome* out) override;
  void Commit(std::span<const char> keep) override;

  /// \brief Surviving reports accumulated since BeginRun().
  const std::vector<double>& retained() const { return retained_; }

 protected:
  double ScoreObservation(std::span<const double> obs) const override;

 private:
  const std::vector<double>* population_;
  const LdpMechanism* mechanism_;
  LdpAttack* attack_;
  double tth_;
  std::vector<double> reports_;
  std::vector<char> is_poison_;
  std::vector<double> retained_;
};

}  // namespace itrim

#endif  // ITRIM_LDP_REPORT_SCORE_MODEL_H_
