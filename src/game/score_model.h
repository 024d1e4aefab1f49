// Score models: the data-setting-specific half of the collection game.
//
// The round protocol of Fig 3 (threshold choice, arrival, injection,
// trimming, observation) is identical across the paper's settings; what
// differs is how payloads are generated, how they are scored into the
// shared percentile coordinate, and how a reference-percentile threshold
// turns into a cutoff:
//
//  * IdentityScoreModel — 1-D values (the LDP / Taxi setting): the score is
//    the value itself, poison at percentile a materializes as the board's
//    a-quantile value, and a threshold T cuts at the board's T-quantile.
//  * DistanceScoreModel — d-dimensional rows scored through the PositionMap
//    percentile geometry (the k-means / SVM / SOM setting): poison rows are
//    fabricated at a target percentile position along a shared
//    per-round direction (colluding Sybil attackers), scores *are*
//    percentile positions, so a threshold applies directly.
//
// A ScoreModel plugs into TrimmingSession (game/session.h), which owns the
// round loop. Models also own the retained (sanitized) output of a run.
//
// Round surface: the round's arrival buffer lives in the ScoreModel base,
// not in each model. The base owns one score vector, one poison-flag
// vector, one flat observation pool of ObsWidth() doubles per row (handed
// out by NextRowSlot()) and one benign draw-index scratch (filled by
// DrawBenignIndices() over Rng::FillUniformInt); BeginRound() empties them
// all. The engine adds a round's benign arrivals in one virtual call
// (`AppendBenignBatch`) and its poison one payload at a time
// (`AppendPoison`, positioned by the adversary when there is one); a model
// writes each arrival's score into the base buffer and pools a row only
// when something reads it. The round's scores, poison flags and pooled
// rows come back as spans over that buffer. A model keeps only what
// differs between settings: how it draws, scores and poisons, and its
// retained store.
//
// Scoring has one definition per model: the protected `ScoreObservation`
// hook maps one flat observation to its percentile-comparable score, the
// same value the model's arrival path records for that row. `ScoreInto`
// is its public, non-virtual block form (paperbench's score probe and the
// tests use it): it checks the spans and loops `ScoreObservation`, so it
// times and reproduces exactly what the round loop computes.
#ifndef ITRIM_GAME_SCORE_MODEL_H_
#define ITRIM_GAME_SCORE_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "game/position_map.h"
#include "game/public_board.h"
#include "game/session.h"
#include "game/trimmer.h"

namespace itrim {

/// \brief Data-setting plugin of the TrimmingSession round loop, and owner
/// of the round's arrival buffer.
///
/// The engine drives one model through a fixed sequence per round:
/// BeginRound → AppendBenignBatch → PrepareInjection → AppendPoison per
/// poison payload → scores()/is_poison() → the session's ReferencePolicy
/// (unless keep-all; PercentileReference calls TrimAtReference) → Commit.
/// Implementations must consume the engine RNG only inside these hooks, in
/// this order — the batch adapters' bit-identity guarantee rests on the RNG
/// call sequence matching the seed implementation exactly.
///
/// BeginRound, scores(), is_poison(), observations() and ObsWidth() are
/// base members over one buffer (header block above): the scores and
/// poison flags of every arrival, and the flat rows a model chooses to
/// pool. Implementations fill it through the protected AppendScore,
/// NextRowSlot and DrawBenignIndices; the buffer only grows, so a warm
/// round reuses it without touching the heap.
class ScoreModel {
 public:
  virtual ~ScoreModel() = default;

  virtual std::string name() const = 0;

  /// \brief Salt XOR'd into GameConfig::seed for the board's reservoir
  /// stream (kept distinct per setting, as in the seed games).
  virtual uint64_t BoardSeedSalt() const = 0;

  /// \brief Validates the data source and clears the retained store for a
  /// fresh run.
  virtual Status BeginRun() = 0;

  /// \brief Seeds the percentile reference: records `bootstrap_size` clean
  /// scores on the (unsealed) board and fixes any model geometry, e.g.
  /// PositionMap. The board cannot be queried here; the session seals it
  /// afterwards.
  virtual Status Bootstrap(size_t bootstrap_size, Rng* rng,
                           PublicBoard* board) = 0;

  /// \brief Poison count for the upcoming round. The default accrues
  /// fractional quota across rounds so tiny attack ratios still inject the
  /// right total; models with a fixed per-round head count override.
  virtual size_t PoisonCount(const GameConfig& config, double* quota) const;

  /// \brief Empties the round buffer (`expected` is a reserve hint for the
  /// scores and poison flags).
  void BeginRound(size_t expected);

  /// \brief Appends `count` benign payloads drawn from the data source —
  /// one virtual call for the whole arrival batch.
  virtual void AppendBenignBatch(size_t count, Rng* rng) = 0;

  /// \brief Round-level injection setup (e.g. the colluding adversaries'
  /// shared direction). Called once per round, after the benign arrivals,
  /// regardless of the poison count.
  virtual void PrepareInjection(Rng* /*rng*/) {}

  /// \brief Highest injection percentile the model can materialize
  /// (adversary positions are clamped to [0, cap]).
  virtual double InjectionCap() const { return 1.0; }

  /// \brief True when AppendPoison needs a real percentile from an
  /// AdversaryStrategy. Models that materialize poison autonomously (the
  /// LDP report attack) override to false; the session refuses to
  /// bootstrap a poisoned game that pairs a position-requiring model with
  /// a null adversary.
  virtual bool RequiresAdversaryPositions() const { return true; }

  /// \brief Materializes one poison payload at board-percentile `position`
  /// (NaN when the session runs without an AdversaryStrategy — only
  /// reachable for models with RequiresAdversaryPositions() == false).
  ///
  /// The engine calls it once per poison payload, with or without an
  /// adversary: adversary strategies may draw RNG inside
  /// InjectionPercentile(), so position draws and the model's own poison
  /// draws interleave on one stream, and that order is part of the
  /// bit-identity contract with the seed games.
  virtual Status AppendPoison(double position, Rng* rng,
                              const PublicBoard& board) = 0;

  /// \brief Scores of the current round (benign then poison, arrival
  /// order), in the shared percentile-comparable coordinate. A view into
  /// the base-owned round buffer, valid until the next mutating call.
  std::span<const double> scores() const { return scores_; }

  /// \brief Poison flags parallel to scores(); same view lifetime.
  std::span<const char> is_poison() const { return is_poison_; }

  /// \brief Doubles per flat observation payload, fixed at construction
  /// from the borrowed source (1 for the scalar settings, the row width
  /// for the distance setting, features + response for the residual one).
  size_t ObsWidth() const { return obs_width_; }

  /// \brief True when observations() pools every arrival of the round.
  /// Model-in-the-loop reference policies (game/reference_policy.h)
  /// require it; models whose payloads are consumed on arrival keep the
  /// default.
  virtual bool ProvidesObservations() const { return false; }

  /// \brief The current round's pooled rows (ObsWidth() doubles each,
  /// arrival order): `scores().size() * ObsWidth()` doubles for models
  /// with ProvidesObservations() == true; other models pool only the rows
  /// they need themselves, if any. Same view lifetime as scores().
  std::span<const double> observations() const {
    return {obs_pool_.data(), rows_used_ * obs_width_};
  }

  /// \brief Scores a block: `obs` holds `out.size()` flat observations
  /// of ObsWidth() doubles each; writes ScoreObservation of each into
  /// `out`. InvalidArgument when the spans disagree, FailedPrecondition
  /// while the model has no observation width.
  Status ScoreInto(std::span<const double> obs, std::span<double> out) const;

  /// \brief Injection position entered into the round record and the
  /// observations. Defaults to the adversary's realized mean; models whose
  /// collector can only *estimate* the position override (LDP).
  virtual double InjectionSignal(const PublicBoard& /*board*/,
                                 double adversary_mean) const {
    return adversary_mean;
  }

  /// \brief Trims the current round's scores at reference percentile
  /// `percentile` (< 1; keep-all stays in the engine, and other trim rules
  /// are ReferencePolicy implementations that never call this), writing
  /// the outcome into caller-owned storage. `out`'s keep mask is
  /// overwritten in place so a warm TrimOutcome keeps the round loop
  /// allocation-free. The default cuts scores() above the board's
  /// `percentile`-quantile; models whose scores are percentiles already, or
  /// that trim a band, override.
  virtual Status TrimAtReference(double percentile, const PublicBoard& board,
                                 TrimOutcome* out);

  /// \brief Moves the round's survivors (per keep mask) into the retained
  /// store (no-op while retain_survivors() is off).
  virtual void Commit(std::span<const char> keep) = 0;

  /// \brief Controls the retained (sanitized) output store. The batch game
  /// adapters keep it on — their product IS the retained data — but a
  /// long-lived streaming session or a fleet of thousands of tenants only
  /// consumes the per-round records, and an ever-growing survivor store is
  /// both an unbounded memory cost and the last steady-state heap
  /// allocation in Step(); such callers switch it off. The toggle never
  /// affects the round protocol or the RNG stream: records are
  /// bit-identical either way.
  void set_retain_survivors(bool retain) { retain_survivors_ = retain; }
  bool retain_survivors() const { return retain_survivors_; }

 protected:
  /// `obs_width` is ObsWidth() for the model's lifetime.
  explicit ScoreModel(size_t obs_width) : obs_width_(obs_width) {}

  /// \brief Scores one flat observation payload of ObsWidth() doubles —
  /// the model's scoring *definition*, bit-identical to the score its
  /// arrival path records. External callers go through ScoreInto.
  virtual double ScoreObservation(std::span<const double> obs) const = 0;

  /// \brief Appends one arrival's score and poison flag to the round.
  void AppendScore(double score, bool poison) {
    scores_.push_back(score);
    is_poison_.push_back(poison ? 1 : 0);
  }

  /// \brief Next reusable row slot (ObsWidth() doubles) in the flat pool:
  /// the pool only grows, and rows_used_ counts the slots the current
  /// round occupies, so a warm round re-fills existing storage.
  std::span<double> NextRowSlot() {
    const size_t needed = (rows_used_ + 1) * obs_width_;
    if (obs_pool_.size() < needed) obs_pool_.resize(needed);
    return {obs_pool_.data() + rows_used_++ * obs_width_, obs_width_};
  }

  /// \brief Draws a round's `count` benign source indices below `n` in
  /// one Rng::FillUniformInt call (the same draws as `count` successive
  /// UniformInt(n) calls), into reused scratch.
  std::span<const uint64_t> DrawBenignIndices(uint64_t n, size_t count,
                                              Rng* rng);

  bool retain_survivors_ = true;

 private:
  size_t obs_width_;
  std::vector<double> scores_;
  std::vector<char> is_poison_;
  std::vector<double> obs_pool_;  ///< rows_used_ x obs_width_, row-major
  size_t rows_used_ = 0;
  std::vector<uint64_t> index_scratch_;
};

/// \brief Scalar (1-D) setting: scores are the values themselves.
class IdentityScoreModel : public ScoreModel {
 public:
  /// `benign_pool` is borrowed; sampled with replacement each round.
  explicit IdentityScoreModel(const std::vector<double>* benign_pool);

  std::string name() const override { return "identity"; }
  uint64_t BoardSeedSalt() const override { return 0x9E3779B97F4A7C15ULL; }
  Status BeginRun() override;
  Status Bootstrap(size_t bootstrap_size, Rng* rng,
                   PublicBoard* board) override;
  void AppendBenignBatch(size_t count, Rng* rng) override;
  Status AppendPoison(double position, Rng* rng,
                      const PublicBoard& board) override;
  void Commit(std::span<const char> keep) override;

  /// \brief Retained values accumulated since BeginRun().
  const std::vector<double>& retained() const { return retained_; }
  /// \brief Poison flags parallel to retained().
  const std::vector<char>& retained_is_poison() const {
    return retained_is_poison_;
  }

 protected:
  double ScoreObservation(std::span<const double> obs) const override;

 private:
  const std::vector<double>* benign_pool_;
  std::vector<double> retained_;
  std::vector<char> retained_is_poison_;
};

/// \brief Multi-dimensional setting: rows scored by PositionMap percentile
/// positions; poison fabricated along a shared per-round direction.
///
/// Round rows go to the base's flat pool only while retaining survivors:
/// Commit() is their one reader, so a streaming session that retains
/// nothing never copies a benign row.
class DistanceScoreModel : public ScoreModel {
 public:
  /// `source` is borrowed; provides benign rows (labels kept when present).
  explicit DistanceScoreModel(const Dataset* source);

  std::string name() const override { return "distance"; }
  uint64_t BoardSeedSalt() const override { return 0xC2B2AE3D27D4EB4FULL; }
  Status BeginRun() override;
  Status Bootstrap(size_t bootstrap_size, Rng* rng,
                   PublicBoard* board) override;
  void AppendBenignBatch(size_t count, Rng* rng) override;
  void PrepareInjection(Rng* rng) override;
  /// Positions above 1 extrapolate beyond the observed domain (the
  /// adversary may fabricate values outside it).
  double InjectionCap() const override { return 1.5; }
  Status AppendPoison(double position, Rng* rng,
                      const PublicBoard& board) override;
  Status TrimAtReference(double percentile, const PublicBoard& board,
                         TrimOutcome* out) override;
  void Commit(std::span<const char> keep) override;

  /// \brief Survivor rows + labels accumulated since BeginRun() (poison
  /// rows carry adversary-chosen labels).
  const Dataset& retained_data() const { return retained_; }
  /// \brief Poison flags parallel to retained_data().rows.
  const std::vector<char>& retained_is_poison() const {
    return retained_is_poison_;
  }
  /// \brief Reference centroid fixed from the clean bootstrap sample.
  const std::vector<double>& reference_centroid() const { return centroid_; }
  /// \brief The percentile geometry built from the bootstrap (valid after
  /// Bootstrap()).
  const PositionMap& position_map() const { return position_map_; }

 protected:
  double ScoreObservation(std::span<const double> obs) const override;

 private:
  const Dataset* source_;
  bool labeled_ = false;
  PositionMap position_map_;
  std::vector<double> centroid_;
  std::vector<double> direction_;
  /// PositionOfRow of each source row, filled on the row's first draw:
  /// Bootstrap() sizes it NaN-filled (NaN means not yet scored), and
  /// AppendBenignBatch scores a NaN entry in place. Benign arrivals are
  /// source rows sampled with replacement, so a warm row's score is a table
  /// lookup instead of a d-dimensional distance evaluation, and a cold
  /// round pays only for the rows it draws. The doubles are the exact
  /// same computation — bit-identical to scoring on arrival; a row whose
  /// true score is NaN just recomputes the same value.
  std::vector<double> source_scores_;
  std::vector<double> poison_row_scratch_;  ///< poison row when not retaining
  std::vector<int> labels_;  ///< the round's labels, parallel to scores()
  Dataset retained_;
  std::vector<char> retained_is_poison_;
};

}  // namespace itrim

#endif  // ITRIM_GAME_SCORE_MODEL_H_
