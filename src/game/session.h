// The streaming collection-game engine (Fig 3), one round at a time.
//
// The paper's interactive trimming game is inherently online: rounds arrive
// one by one and both parties adapt to what they observed. TrimmingSession
// exposes exactly that shape — Bootstrap() fixes the clean percentile
// reference, each Step() plays one round (collector picks a threshold,
// benign data and percentile-positioned poison arrive, the round is
// trimmed, both parties observe) and returns its RoundRecord, and Finish()
// closes the book into a GameSummary.
//
// One engine serves every data setting through a ScoreModel
// (game/score_model.h): the 1-D LDP/Taxi setting, the d-dimensional
// k-means/SVM/SOM setting, and the perturbed-report LDP setting differ only
// in how payloads are generated, scored and reference-trimmed, never in the
// round protocol. Sessions are built one of two ways: by hand, for callers
// that bring their own strategies, or from a scheme through TenantSpec ->
// MaterializeTenant (fleet/tenant.h). Both reproduce the seed
// implementation's GameSummary bit for bit at fixed seed (asserted by
// tests/game/session_test.cc).
//
// Sessions are checkpointable: Checkpoint() captures the full interaction
// state (round counter, poison quota, RNG, per-round records) and Restore()
// resumes a fresh session of the same configuration from it, continuing the
// stream bit-identically. The board is not carried: it is sealed at
// bootstrap, and Restore() re-runs the bootstrap, which rebuilds it from the
// same draws. Strategy state is reconstructed by
// replaying the recorded observations, which is exact for every strategy
// whose state is a function of its observation history (all the paper's
// strategies). Two components keep state the checkpoint does not carry:
//
//  * NoisyDefectShareQuality's estimation-noise Rng advances on every
//    Evaluate() call and nothing replays those draws, so even a restore
//    into fresh objects diverges from the original stream.
//  * GenerousTitfortatCollector draws private randomness inside Observe().
//    A restore into fresh objects is exact, because the replay feeds
//    Observe() the same observations and its Rng makes the same draws.
//    But its Reset() does not rewind that Rng, so a Restore() into a
//    session that has already played, or a second RunToCompletion() on
//    the same session, diverges.
#ifndef ITRIM_GAME_SESSION_H_
#define ITRIM_GAME_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "game/public_board.h"
#include "game/quality.h"
#include "game/strategies.h"
#include "game/trimmer.h"

namespace itrim {

class ScoreModel;
class ReferencePolicy;

namespace obs {
class MetricSlot;
class TraceBuffer;
}  // namespace obs

/// \brief Borrowed observability sinks for a session (src/obs/). Both
/// pointers may be null (that facet is simply not recorded) and must outlive
/// the session while attached. Recording is strictly write-only telemetry —
/// it never reads back into the game, so every bit-identity and zero-alloc
/// invariant holds with sinks attached or not.
struct SessionObs {
  obs::MetricSlot* metrics = nullptr;
  obs::TraceBuffer* trace = nullptr;
  uint64_t tenant = 0;  ///< tenant id stamped on trace events
};

/// \brief Configuration shared by all collection-game variants.
struct GameConfig {
  int rounds = 20;              ///< number of collection rounds
  size_t round_size = 500;      ///< benign samples per round
  double attack_ratio = 0.1;    ///< poison count = attack_ratio * round_size
  double tth = 0.9;             ///< nominal threshold percentile
  size_t bootstrap_size = 500;  ///< clean board seed (round 0)
  size_t board_capacity = 20000;  ///< reservoir cap (0 = unbounded)
  uint64_t seed = 42;

  Status Validate() const;
};

/// \brief Per-round bookkeeping of one game run.
struct RoundRecord {
  int round = 0;
  double collector_percentile = kNoTrim;
  double injection_percentile = 0.0;  ///< mean over this round's poison
  double cutoff = 0.0;
  double quality = 1.0;
  size_t benign_received = 0;
  size_t poison_received = 0;
  size_t benign_kept = 0;
  size_t poison_kept = 0;
};

/// \brief Outcome of a full game run.
struct GameSummary {
  std::vector<RoundRecord> rounds;
  /// 0 when the collector's judgement never triggered.
  int termination_round = 0;

  /// \brief Poison kept / total kept; 0 when nothing was kept at all.
  double UntrimmedPoisonFraction() const;
  /// \brief Benign removed / benign received; 0 when no benign data
  /// arrived.
  double BenignLossFraction() const;
  /// \brief Poison kept / poison received; 0 when no poison arrived.
  double PoisonSurvivalRate() const;

  size_t TotalKept() const;
  size_t TotalPoisonKept() const;
  size_t TotalBenignKept() const;
  size_t TotalReceived() const;
  size_t TotalPoisonReceived() const;
  size_t TotalBenignReceived() const;
};

/// \brief Serializable mid-stream state of a TrimmingSession.
struct SessionCheckpoint {
  int next_round = 1;
  double poison_quota = 0.0;
  bool have_prev = false;
  RoundObservation prev;
  std::vector<RoundRecord> records;
  Rng::Snapshot rng;
};

/// \brief Incremental round-wise engine of the collection game.
///
/// All pointers are borrowed and must outlive the session. `adversary` may
/// be null (the model then materializes poison without percentile guidance,
/// e.g. the LDP report attack); `quality` may be null (rounds score 1.0);
/// `reference` may be null (the shared percentile reference — the paper's
/// board-quantile trim, bit-identical to the pre-policy engine). A
/// reference policy with internal scratch (FittedModelReference,
/// RoundMassReference) must be owned per session, like strategies are. The
/// configuration is validated at construction; Bootstrap() surfaces the
/// validation Status (and the policy's model-compatibility check) instead
/// of silently running on a bad config.
class TrimmingSession {
 public:
  TrimmingSession(GameConfig config, ScoreModel* model,
                  CollectorStrategy* collector, AdversaryStrategy* adversary,
                  QualityEvaluation* quality,
                  ReferencePolicy* reference = nullptr);

  /// \brief Resets strategies/model and seeds the board with the clean
  /// round-0 calibration sample that fixes the percentile reference, then
  /// seals the board.
  Status Bootstrap();

  /// \brief Plays the next round and returns its record. Requires a
  /// successful Bootstrap(); may be called past config().rounds (the
  /// session is an open-ended stream — the configured count only bounds
  /// RunToCompletion()).
  Result<RoundRecord> Step();

  /// \brief Summary of everything played so far (termination round from
  /// the collector's judgement). The session remains steppable.
  GameSummary Finish() const;

  /// \brief Bootstrap + config().rounds Steps + Finish, the batch shape.
  Result<GameSummary> RunToCompletion();

  /// \brief Captures the interaction state. Requires a successful
  /// Bootstrap(). The model's retained sink is not part of the checkpoint:
  /// a restored session accumulates survivors from the restore point on.
  SessionCheckpoint Checkpoint() const;

  /// \brief Resumes from a checkpoint of an identically configured
  /// session; subsequent Steps are bit-identical to the original stream.
  Status Restore(const SessionCheckpoint& checkpoint);

  /// \brief Attaches (or detaches, with default-constructed sinks)
  /// observability. Takes effect from the next Step(); checkpoint/restore
  /// does not carry sinks — owners re-attach after Restore() (the ingest
  /// layer does this on rehydration).
  void set_observability(const SessionObs& sinks) { obs_ = sinks; }
  const SessionObs& observability() const { return obs_; }

  const GameConfig& config() const { return config_; }
  const PublicBoard& board() const { return board_; }
  /// \brief Every round played so far, in round order.
  std::span<const RoundRecord> records() const { return records_; }
  /// \brief 1-based index of the next round Step() would play.
  int next_round() const { return next_round_; }
  bool bootstrapped() const { return bootstrapped_; }

 private:
  void RecordRoundObservability(const RoundRecord& record, size_t removed,
                                bool used_reference);

  GameConfig config_;
  Status config_status_;
  ScoreModel* model_;
  CollectorStrategy* collector_;
  AdversaryStrategy* adversary_;
  QualityEvaluation* quality_;
  ReferencePolicy* reference_;
  PublicBoard board_;
  Rng rng_;
  RoundObservation prev_;
  bool have_prev_ = false;
  double poison_quota_ = 0.0;
  int next_round_ = 1;
  bool bootstrapped_ = false;
  SessionObs obs_;
  std::vector<RoundRecord> records_;
  // Round-loop scratch, reused across Step() calls so the steady state
  // never touches the heap (tests/game/zero_alloc_test.cc holds the line).
  TrimOutcome trim_scratch_;
};

}  // namespace itrim

#endif  // ITRIM_GAME_SESSION_H_
