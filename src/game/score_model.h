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
// v2 API shape: the engine makes one virtual call per round, not one per
// observation. Payloads live in flat structure-of-arrays storage (a round
// is `n * ObsWidth()` contiguous doubles), accessors hand out spans over
// that storage, and scoring is a batched `ScoreInto` backed by the
// dispatched kernels (game/kernels.h).
//
// Batch-vs-scalar bitwise contract: `ScoreIntoScalar` is the one public
// scalar reference path — it always loops the model's per-observation
// scoring definition (the protected `ScoreObservation` hook), never
// kernels — and `ScoreInto` must produce bit-identical doubles to it for
// every observation block. Models earn that equality the same way the
// kernels do (game/kernels.h): shared canonical FP association between the
// scalar definition and the batch sweep, no contraction, exact operations
// elsewhere. Differential tests pit the two paths against each other
// across sizes and kernel variants; benches use the scalar path as the
// pre-batching baseline. There is deliberately no second public scalar
// entry point: callers who want one score call ScoreIntoScalar on a
// one-observation span.
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

/// \brief Data-setting plugin of the TrimmingSession round loop.
///
/// The engine drives one model through a fixed sequence per round:
/// BeginRound → AppendBenignBatch → PrepareInjection → poison appends →
/// scores()/is_poison() → TrimAtReference (unless keep-all / round-mass) →
/// Commit. Implementations must consume the engine RNG only inside these
/// hooks, in this order — the batch adapters' bit-identity guarantee rests
/// on the RNG call sequence matching the seed implementation exactly.
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

  /// \brief Starts an empty round buffer (`expected` is a reserve hint).
  virtual void BeginRound(size_t expected) = 0;

  /// \brief Appends `count` benign payloads drawn from the data source —
  /// one virtual call for the whole arrival batch.
  virtual void AppendBenignBatch(size_t count, Rng* rng) = 0;

  /// \brief Appends externally supplied benign payloads: `obs` holds
  /// `obs.size() / ObsWidth()` flat observations, scored through the
  /// batched kernel path. This is the ingest surface a serving deployment
  /// (or the planned federated workload) feeds real client data through;
  /// the draw-from-source overload above is the simulation shape.
  virtual Status AppendBenignBatch(std::span<const double> obs) = 0;

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
  /// Stays per-observation by design: adversary strategies may draw RNG
  /// inside InjectionPercentile(), so position draws and the model's own
  /// poison draws interleave on one stream; batching them would reorder
  /// the draws and break bit-identity with the seed games.
  virtual Status AppendPoison(double position, Rng* rng,
                              const PublicBoard& board) = 0;

  /// \brief Appends one poison payload per entry of `positions` in one
  /// virtual call. The engine uses this only when no AdversaryStrategy is
  /// interleaving RNG draws (positions are then all NaN); the default
  /// loops AppendPoison, so overriding is an optimization, never a
  /// semantic change.
  virtual Status AppendPoisonBatch(std::span<const double> positions,
                                   Rng* rng, const PublicBoard& board);

  /// \brief Scores of the current round (benign then poison, arrival
  /// order), in the shared percentile-comparable coordinate. A view into
  /// model-owned storage, valid until the next mutating call.
  virtual std::span<const double> scores() const = 0;

  /// \brief Poison flags parallel to scores(); same view lifetime.
  virtual std::span<const char> is_poison() const = 0;

  /// \brief Doubles per flat observation payload (1 for scalar settings,
  /// the row width for the distance setting).
  virtual size_t ObsWidth() const { return 1; }

  /// \brief True when observations() exposes the current round's flat
  /// payloads. Model-in-the-loop reference policies
  /// (game/reference_policy.h) require it; models whose payloads are
  /// consumed on arrival keep the default.
  virtual bool ProvidesObservations() const { return false; }

  /// \brief The current round's flat observation block (`scores().size() *
  /// ObsWidth()` doubles, arrival order) for models with
  /// ProvidesObservations() == true; empty otherwise. Same view lifetime
  /// as scores().
  virtual std::span<const double> observations() const { return {}; }

  /// \brief Batched scoring: `obs` holds `out.size()` flat observations of
  /// ObsWidth() doubles each; writes one score per observation. The
  /// default loops ScoreObservation; models with a vectorizable transform
  /// override with a kernel sweep (bit-identical by the kernels.h
  /// contract — see the header block above).
  virtual Status ScoreInto(std::span<const double> obs,
                           std::span<double> out) const;

  /// \brief The one public scalar reference path: always loops the
  /// per-observation scoring definition, never kernels. ScoreInto must
  /// match it bit for bit (header block above); differential tests pit the
  /// two against each other and benches use this as the pre-batching
  /// baseline.
  Status ScoreIntoScalar(std::span<const double> obs,
                         std::span<double> out) const;

  /// \brief Injection position entered into the round record and the
  /// observations. Defaults to the adversary's realized mean; models whose
  /// collector can only *estimate* the position override (LDP).
  virtual double InjectionSignal(const PublicBoard& /*board*/,
                                 double adversary_mean) const {
    return adversary_mean;
  }

  /// \brief Trims the current round's scores at reference percentile
  /// `percentile` (< 1; the keep-all and round-mass branches live in the
  /// engine), writing the outcome into caller-owned storage. `out`'s keep
  /// mask is overwritten in place so a warm TrimOutcome keeps the round
  /// loop allocation-free.
  virtual Status TrimAtReference(double percentile, const PublicBoard& board,
                                 TrimOutcome* out) = 0;

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
  /// \brief Scores one flat observation payload of ObsWidth() doubles —
  /// the model's scoring *definition*, which both public paths must match
  /// bit for bit. Protected: external callers go through ScoreIntoScalar
  /// (the documented scalar entry point); implementations override this.
  virtual double ScoreObservation(std::span<const double> obs) const = 0;

  /// \brief Shared argument check for ScoreInto/ScoreIntoScalar.
  Status CheckScoreSpans(std::span<const double> obs,
                         std::span<double> out) const;

  bool retain_survivors_ = true;
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
  void BeginRound(size_t expected) override;
  void AppendBenignBatch(size_t count, Rng* rng) override;
  Status AppendBenignBatch(std::span<const double> obs) override;
  Status AppendPoison(double position, Rng* rng,
                      const PublicBoard& board) override;
  std::span<const double> scores() const override { return values_; }
  std::span<const char> is_poison() const override { return is_poison_; }
  Status ScoreInto(std::span<const double> obs,
                   std::span<double> out) const override;
  Status TrimAtReference(double percentile, const PublicBoard& board,
                         TrimOutcome* out) override;
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
  std::vector<double> values_;
  std::vector<char> is_poison_;
  std::vector<uint64_t> index_scratch_;  ///< batched benign-draw indices
  std::vector<double> retained_;
  std::vector<char> retained_is_poison_;
};

/// \brief Multi-dimensional setting: rows scored by PositionMap percentile
/// positions; poison fabricated along a shared per-round direction.
///
/// Round rows live in one flat structure-of-arrays pool (`row_data_`,
/// row-major, ObsWidth() doubles per row) so the batched distance kernel
/// streams them without pointer chasing and a warm round reuses the pool
/// without touching the heap.
class DistanceScoreModel : public ScoreModel {
 public:
  /// `source` is borrowed; provides benign rows (labels kept when present).
  explicit DistanceScoreModel(const Dataset* source);

  std::string name() const override { return "distance"; }
  uint64_t BoardSeedSalt() const override { return 0xC2B2AE3D27D4EB4FULL; }
  Status BeginRun() override;
  Status Bootstrap(size_t bootstrap_size, Rng* rng,
                   PublicBoard* board) override;
  void BeginRound(size_t expected) override;
  void AppendBenignBatch(size_t count, Rng* rng) override;
  Status AppendBenignBatch(std::span<const double> obs) override;
  void PrepareInjection(Rng* rng) override;
  /// Positions above 1 extrapolate beyond the observed domain (the
  /// adversary may fabricate values outside it).
  double InjectionCap() const override { return 1.5; }
  Status AppendPoison(double position, Rng* rng,
                      const PublicBoard& board) override;
  std::span<const double> scores() const override { return scores_; }
  std::span<const char> is_poison() const override { return is_poison_; }
  size_t ObsWidth() const override;
  Status ScoreInto(std::span<const double> obs,
                   std::span<double> out) const override;
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
  /// Next reusable round-row slot in the flat pool: row_data_ only grows,
  /// and rows_used_ counts the slots the current round occupies, so a warm
  /// round re-fills existing storage instead of allocating. (Rows are only
  /// materialized when retaining; a streaming session that retains nothing
  /// never touches the pool for benign arrivals.)
  std::span<double> NextRowSlot();

  const Dataset* source_;
  bool labeled_ = false;
  size_t dims_ = 0;
  PositionMap position_map_;
  std::vector<double> centroid_;
  std::vector<double> direction_;
  /// PositionOfRow of every source row, fixed once Bootstrap() builds the
  /// geometry: benign arrivals are source rows sampled with replacement,
  /// so their scores are table lookups instead of d-dimensional distance
  /// evaluations every round (the doubles are the cached results of the
  /// exact same computation — bit-identical to scoring on arrival).
  std::vector<double> source_scores_;
  std::vector<double> poison_row_scratch_;  ///< poison row when not retaining
  std::vector<double> row_data_;  ///< flat SoA row pool, rows_used_ x dims_
  size_t rows_used_ = 0;
  std::vector<uint64_t> index_scratch_;  ///< batched benign-draw indices
  std::vector<int> labels_;
  std::vector<double> scores_;
  std::vector<char> is_poison_;
  Dataset retained_;
  std::vector<char> retained_is_poison_;
};

}  // namespace itrim

#endif  // ITRIM_GAME_SCORE_MODEL_H_
