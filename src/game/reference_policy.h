// Trim-reference policies: how a collector threshold becomes a kept set.
//
// The round protocol fixes *when* trimming happens; a ReferencePolicy fixes
// *against what*. The paper's interactive game trims at a percentile of the
// public-board reference distribution (PercentileReference — the engine's
// historical behavior, bit for bit). The regression-poisoning literature
// instead trims against a *fitted model*: refit on the current survivors,
// keep the lowest-residual points, repeat (FittedModelReference). Pulling
// the reference out of ScoreModel::TrimAtReference / TrimmingSession::Step
// into this seam lets model-in-the-loop workloads (and the planned
// federated aggregation setting) plug in without touching the engine.
//
// Policies are borrowed by the session like strategies are; a policy with
// internal scratch (FittedModelReference, RoundMassReference) must not be
// shared by concurrent sessions. Only the keep-all branch (percentile >= 1)
// stays in the engine — a policy only ever sees a real trim.
#ifndef ITRIM_GAME_REFERENCE_POLICY_H_
#define ITRIM_GAME_REFERENCE_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "game/public_board.h"
#include "game/trimmer.h"
#include "ml/linreg.h"

namespace itrim {

class ScoreModel;

/// \brief Strategy object mapping a collector threshold to a kept set.
class ReferencePolicy {
 public:
  virtual ~ReferencePolicy() = default;

  virtual std::string name() const = 0;

  /// \brief Bootstrap-time compatibility check against the session's model
  /// (e.g. the fitted-model policy needs multi-column observations).
  virtual Status Validate(const ScoreModel& /*model*/) const {
    return Status::OK();
  }

  /// \brief Trims the model's current round at collector threshold
  /// `percentile` (< 1), overwriting `out` in place (warm TrimOutcome =>
  /// allocation-free round loop, same contract as TrimAtReference).
  virtual Status TrimRound(double percentile, ScoreModel* model,
                           const PublicBoard& board, TrimOutcome* out) = 0;

  /// \brief Model refit iterations the most recent TrimRound ran (0 for
  /// policies that never refit). Telemetry only — the observability layer
  /// records it per round; it never feeds back into the game.
  virtual int last_refit_iterations() const { return 0; }
};

/// \brief The paper's percentile reference: delegates to the model's
/// TrimAtReference (cutoff at the board's percentile / direct position
/// threshold). Stateless — one shared instance serves every session, and
/// the delegation is bit-identical to the pre-policy engine.
class PercentileReference : public ReferencePolicy {
 public:
  std::string name() const override { return "percentile"; }
  Status TrimRound(double percentile, ScoreModel* model,
                   const PublicBoard& board, TrimOutcome* out) override;
};

/// \brief Shared stateless PercentileReference instance; the session
/// default when no policy is supplied (existing call sites keep their
/// exact historical behavior).
PercentileReference* DefaultReferencePolicy();

/// \brief The ML pipelines' round-mass trim (the paper's MATLAB `prctile`
/// on the received data, Section VI-A): removes the top ceil((1 - q) * n)
/// scores of the round itself and never consults the board. Owns its index
/// scratch, so each session owns its own instance (allocation-free once
/// warm, like the session's other round-loop scratch).
class RoundMassReference : public ReferencePolicy {
 public:
  std::string name() const override { return "round_mass"; }
  Status TrimRound(double percentile, ScoreModel* model,
                   const PublicBoard& board, TrimOutcome* out) override;

 private:
  std::vector<size_t> idx_scratch_;
};

/// \brief Model-in-the-loop reference: the round's kept set comes from
/// iteratively refitting a linear model on the lowest-residual survivors
/// (the Trim defense, run within the round).
///
/// The collector threshold keeps its percentile meaning: a threshold q
/// keeps the floor(q * n) lowest-residual observations — the same kept
/// mass a percentile cutoff would target — so collectors, adversaries and
/// equilibrium machinery transfer unchanged. The initial fit uses *all*
/// round observations (not a random subset): the policy draws no RNG and
/// carries no cross-round state, which keeps checkpoint/restore exact and
/// the policy reusable across Bootstrap() cycles. Selection is by total
/// order (residual, then index; NaN last), so the kept set is independent
/// of sort algorithm, thread count and kernel variant.
///
/// Each refit orders its rows with OrderResidualRows (stats/order.h): one
/// key-range bucket scatter over the residuals' integer keys (NaN as +inf,
/// -0 as +0) and one insertion pass. That total order has a unique sorted
/// permutation, so this is exactly the permutation of a comparator sort on
/// (residual with NaN as +inf, index). Every fit reads its rows in place
/// from the model's observation block, in that order.
class FittedModelReference : public ReferencePolicy {
 public:
  struct Options {
    int max_refits = 20;  ///< refit loop budget (1 = one-shot Trim)
    double tol = 1e-4;    ///< early stop on mean |delta squared residual|

    /// InvalidArgument unless max_refits >= 1 and tol >= 0 (NaN refused).
    /// The one check of these options: the policy's Validate and
    /// TenantSpec::Validate both call it.
    Status Validate() const;
  };

  FittedModelReference() = default;
  explicit FittedModelReference(Options options) : options_(options) {}

  std::string name() const override { return "fitted_model"; }
  /// Requires a model that exposes its round observations with at least
  /// one feature column plus the response (ObsWidth() >= 2).
  Status Validate(const ScoreModel& model) const override;
  Status TrimRound(double percentile, ScoreModel* model,
                   const PublicBoard& board, TrimOutcome* out) override;
  int last_refit_iterations() const override { return last_refit_iters_; }

  const Options& options() const { return options_; }

 private:
  Options options_;
  int last_refit_iters_ = 0;
  // Refit-loop scratch, reused across rounds so the session's steady-state
  // Step() stays allocation-free (tests/game/zero_alloc_test.cc).
  LinearRegressor regressor_;
  LinearModel fit_;
  std::vector<double> resid_;
  std::vector<double> prev_resid_;
  std::vector<size_t> order_;
  std::vector<uint64_t> keys_;  ///< each row's order key
};

}  // namespace itrim

#endif  // ITRIM_GAME_REFERENCE_POLICY_H_
