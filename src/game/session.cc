#include "game/session.h"

#include <cassert>
#include <cmath>
#include <limits>

#include "common/math_util.h"
#include "game/reference_policy.h"
#include "game/score_model.h"
#include "game/trimmer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace itrim {

Status GameConfig::Validate() const {
  if (rounds < 1) return Status::InvalidArgument("rounds must be >= 1");
  if (round_size == 0) return Status::InvalidArgument("round_size must be > 0");
  if (!(attack_ratio >= 0.0 && std::isfinite(attack_ratio))) {
    return Status::InvalidArgument("attack_ratio must be finite and >= 0");
  }
  if (!(tth > 0.0 && tth < 1.0)) {
    return Status::InvalidArgument("tth must be in (0,1)");
  }
  if (bootstrap_size == 0) {
    return Status::InvalidArgument("bootstrap_size must be > 0");
  }
  return Status::OK();
}

double GameSummary::UntrimmedPoisonFraction() const {
  size_t kept = TotalKept();
  if (kept == 0) return 0.0;
  return static_cast<double>(TotalPoisonKept()) / static_cast<double>(kept);
}

double GameSummary::BenignLossFraction() const {
  size_t received = TotalBenignReceived();
  if (received == 0) return 0.0;
  return static_cast<double>(received - TotalBenignKept()) /
         static_cast<double>(received);
}

double GameSummary::PoisonSurvivalRate() const {
  size_t received = TotalPoisonReceived();
  if (received == 0) return 0.0;
  return static_cast<double>(TotalPoisonKept()) /
         static_cast<double>(received);
}

size_t GameSummary::TotalKept() const {
  return TotalPoisonKept() + TotalBenignKept();
}

size_t GameSummary::TotalPoisonKept() const {
  size_t n = 0;
  for (const auto& r : rounds) n += r.poison_kept;
  return n;
}

size_t GameSummary::TotalBenignKept() const {
  size_t n = 0;
  for (const auto& r : rounds) n += r.benign_kept;
  return n;
}

size_t GameSummary::TotalReceived() const {
  return TotalPoisonReceived() + TotalBenignReceived();
}

size_t GameSummary::TotalPoisonReceived() const {
  size_t n = 0;
  for (const auto& r : rounds) n += r.poison_received;
  return n;
}

size_t GameSummary::TotalBenignReceived() const {
  size_t n = 0;
  for (const auto& r : rounds) n += r.benign_received;
  return n;
}

namespace {

// Builds the context both strategies see at the start of round i.
RoundContext MakeContext(int round, const GameConfig& config,
                         const PublicBoard* board,
                         const RoundObservation* prev) {
  RoundContext ctx;
  ctx.round = round;
  ctx.tth = config.tth;
  ctx.board = board;
  if (prev != nullptr) {
    ctx.prev_collector_percentile = prev->collector_percentile;
    ctx.prev_injection_percentile = prev->injection_percentile;
    ctx.prev_quality = prev->quality;
  }
  return ctx;
}

// Reconstructs the observation both parties were shown after `record`
// completed (used to replay strategy state on Restore()).
RoundObservation ObservationFromRecord(const RoundRecord& record) {
  return RoundObservation{record.round,
                          record.collector_percentile,
                          record.injection_percentile,
                          record.quality,
                          record.benign_received + record.poison_received,
                          record.benign_kept + record.poison_kept,
                          record.poison_received,
                          record.poison_kept};
}

// Asserts before the member-init list dereferences the model.
uint64_t BoardSeedFor(const GameConfig& config, ScoreModel* model) {
  assert(model != nullptr);
  return config.seed ^ model->BoardSeedSalt();
}

}  // namespace

TrimmingSession::TrimmingSession(GameConfig config, ScoreModel* model,
                                 CollectorStrategy* collector,
                                 AdversaryStrategy* adversary,
                                 QualityEvaluation* quality,
                                 ReferencePolicy* reference)
    : config_(config), config_status_(config.Validate()), model_(model),
      collector_(collector), adversary_(adversary), quality_(quality),
      reference_(reference != nullptr ? reference : DefaultReferencePolicy()),
      board_(config.board_capacity, BoardSeedFor(config, model)),
      rng_(config.seed) {
  assert(collector != nullptr);
}

Status TrimmingSession::Bootstrap() {
  // A failed (re-)bootstrap must leave the session un-steppable, not
  // half-reset over the previous run's state.
  bootstrapped_ = false;
  ITRIM_RETURN_NOT_OK(config_status_);
  if (adversary_ == nullptr && config_.attack_ratio > 0.0 &&
      model_->RequiresAdversaryPositions()) {
    return Status::InvalidArgument(
        "score model needs an AdversaryStrategy to position its poison; "
        "pass one or set attack_ratio = 0");
  }
  ITRIM_RETURN_NOT_OK(reference_->Validate(*model_));
  ITRIM_RETURN_NOT_OK(model_->BeginRun());
  rng_ = Rng(config_.seed);
  collector_->Reset();
  if (adversary_ != nullptr) adversary_->Reset();
  board_.Clear();
  board_.Reserve(config_.bootstrap_size);
  // Round 0: a clean calibration sample seeds the public board and fixes
  // the percentile reference both parties speak in. Trimming against a
  // reference that absorbed its own truncated output would spiral the
  // cutoff downward; anchoring it on the clean round-0 sample (the same
  // sample Algorithm 1's QE(X0) baseline comes from) keeps the percentile
  // domain stable, while all adaptivity lives in the strategies. The board
  // is sealed here and never recorded into again.
  ITRIM_RETURN_NOT_OK(model_->Bootstrap(config_.bootstrap_size, &rng_,
                                        &board_));
  board_.Seal();
  prev_ = RoundObservation{};
  have_prev_ = false;
  poison_quota_ = 0.0;
  next_round_ = 1;
  records_.clear();
  // Pre-size the per-round book so steady-state Steps within the
  // configured horizon never reallocate it (open-ended streams beyond
  // config().rounds fall back to amortized growth).
  records_.reserve(static_cast<size_t>(config_.rounds));
  bootstrapped_ = true;
  return Status::OK();
}

Result<RoundRecord> TrimmingSession::Step() {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("session is not bootstrapped");
  }
  const int round = next_round_;
  if (obs_.trace != nullptr) {
    obs_.trace->Record(obs::TraceKind::kRoundStart, obs_.tenant,
                       static_cast<double>(round));
  }
  const size_t poison_count = model_->PoisonCount(config_, &poison_quota_);

  RoundContext ctx =
      MakeContext(round, config_, &board_, have_prev_ ? &prev_ : nullptr);
  double trim_percentile = collector_->TrimPercentile(ctx);

  // Arrivals: benign data, then poison at percentile positions.
  model_->BeginRound(config_.round_size + poison_count);
  model_->AppendBenignBatch(config_.round_size, &rng_);
  model_->PrepareInjection(&rng_);
  double injection_sum = 0.0;
  if (adversary_ == nullptr) {
    // No adversary interleaves RNG draws with the model's poison draws, so
    // the whole head goes over in one virtual call (positions are NaN —
    // only models that materialize poison autonomously reach this path).
    if (poison_count > 0) {
      poison_pos_scratch_.assign(poison_count, std::nan(""));
      ITRIM_RETURN_NOT_OK(
          model_->AppendPoisonBatch(poison_pos_scratch_, &rng_, board_));
    }
  } else {
    // Position-guided poison stays per-observation: the adversary may draw
    // RNG inside InjectionPercentile(), and those draws interleave with
    // the model's own poison draws on one stream (bit-identity contract).
    for (size_t i = 0; i < poison_count; ++i) {
      double a = adversary_->InjectionPercentile(ctx, &rng_);
      a = Clamp(a, 0.0, model_->InjectionCap());
      injection_sum += a;
      ITRIM_RETURN_NOT_OK(model_->AppendPoison(a, &rng_, board_));
    }
  }
  double injection_mean =
      (adversary_ != nullptr && poison_count > 0)
          ? injection_sum / static_cast<double>(poison_count)
          : std::nan("");
  injection_mean = model_->InjectionSignal(board_, injection_mean);

  const std::span<const double> scores = model_->scores();
  const std::span<const char> is_poison = model_->is_poison();

  // Quality is assessed on the received (pre-trim) round.
  double quality_score =
      quality_ != nullptr ? quality_->Evaluate(scores, board_) : 1.0;

  // Trim, into the session-owned scratch outcome (no per-round heap).
  TrimOutcome& outcome = trim_scratch_;
  bool used_reference = false;
  if (trim_percentile >= 1.0) {
    outcome.keep.assign(scores.size(), 1);
    outcome.kept_count = scores.size();
    outcome.removed_count = 0;
    outcome.cutoff = std::numeric_limits<double>::infinity();
  } else {
    ITRIM_RETURN_NOT_OK(
        reference_->TrimRound(trim_percentile, model_, board_, &outcome));
    used_reference = true;
  }

  RoundRecord record;
  record.round = round;
  record.collector_percentile = trim_percentile;
  record.injection_percentile = injection_mean;
  record.cutoff = outcome.cutoff;
  record.quality = quality_score;
  for (size_t i = 0; i < scores.size(); ++i) {
    bool poison = is_poison[i] != 0;
    if (poison) {
      ++record.poison_received;
    } else {
      ++record.benign_received;
    }
    if (outcome.keep[i]) {
      if (poison) {
        ++record.poison_kept;
      } else {
        ++record.benign_kept;
      }
    }
  }
  model_->Commit(outcome.keep);
  records_.push_back(record);
  if (obs_.metrics != nullptr || obs_.trace != nullptr) {
    RecordRoundObservability(record, outcome.removed_count, used_reference);
  }

  prev_ = ObservationFromRecord(record);
  have_prev_ = true;
  collector_->Observe(prev_);
  if (adversary_ != nullptr) adversary_->Observe(prev_);
  ++next_round_;
  return record;
}

void TrimmingSession::RecordRoundObservability(const RoundRecord& record,
                                               size_t removed,
                                               bool used_reference) {
  if (obs_.metrics != nullptr) {
    obs::MetricSlot& m = *obs_.metrics;
    m.Inc(obs::Counter::kSessionRoundsPlayed);
    m.Inc(obs::Counter::kSessionBenignReceived, record.benign_received);
    m.Inc(obs::Counter::kSessionPoisonReceived, record.poison_received);
    m.Inc(obs::Counter::kSessionBenignKept, record.benign_kept);
    m.Inc(obs::Counter::kSessionPoisonKept, record.poison_kept);
    m.Inc(obs::Counter::kSessionObservationsTrimmed, removed);
  }
  const int refit_iters =
      used_reference ? reference_->last_refit_iterations() : 0;
  if (refit_iters > 0) {
    if (obs_.metrics != nullptr) {
      obs_.metrics->Inc(obs::Counter::kSessionReferenceRefits);
      obs_.metrics->Inc(obs::Counter::kSessionRefitIterations,
                        static_cast<uint64_t>(refit_iters));
    }
    if (obs_.trace != nullptr) {
      obs_.trace->Record(obs::TraceKind::kReferenceRefit, obs_.tenant,
                         static_cast<double>(refit_iters));
    }
  }
  if (obs_.trace != nullptr) {
    // Both events mark the same round boundary: one clock read serves the
    // pair (see TraceBuffer::RecordAt).
    const int64_t now_ns = obs::MonotonicNowNs();
    obs_.trace->RecordAt(now_ns, obs::TraceKind::kTrimDecision, obs_.tenant,
                         static_cast<double>(removed));
    obs_.trace->RecordAt(now_ns, obs::TraceKind::kRoundEnd, obs_.tenant,
                         record.quality);
  }
}

GameSummary TrimmingSession::Finish() const {
  GameSummary summary;
  summary.rounds = records_;
  summary.termination_round = collector_->termination_round();
  return summary;
}

Result<GameSummary> TrimmingSession::RunToCompletion() {
  ITRIM_RETURN_NOT_OK(Bootstrap());
  for (int round = 1; round <= config_.rounds; ++round) {
    ITRIM_RETURN_NOT_OK(Step().status());
  }
  return Finish();
}

SessionCheckpoint TrimmingSession::Checkpoint() const {
  assert(bootstrapped_ && "Checkpoint() before Bootstrap()");
  SessionCheckpoint cp;
  cp.next_round = next_round_;
  cp.poison_quota = poison_quota_;
  cp.have_prev = have_prev_;
  cp.prev = prev_;
  cp.records = records_;
  cp.rng = rng_.Save();
  return cp;
}

Status TrimmingSession::Restore(const SessionCheckpoint& checkpoint) {
  // Re-run the bootstrap to rebuild model geometry (PositionMap etc.) and
  // the sealed board from the same round-0 draws — the bootstrap is the
  // first RNG consumer, so a fresh Rng(config.seed) replays it exactly.
  // Then jump the stream state forward to the checkpoint.
  ITRIM_RETURN_NOT_OK(Bootstrap());
  rng_.Restore(checkpoint.rng);
  records_ = checkpoint.records;
  // Strategy state is a function of the observation history for all the
  // paper's strategies; replaying the records reconstructs it exactly.
  for (const RoundRecord& record : checkpoint.records) {
    RoundObservation obs = ObservationFromRecord(record);
    collector_->Observe(obs);
    if (adversary_ != nullptr) adversary_->Observe(obs);
  }
  prev_ = checkpoint.prev;
  have_prev_ = checkpoint.have_prev;
  poison_quota_ = checkpoint.poison_quota;
  next_round_ = checkpoint.next_round;
  return Status::OK();
}

}  // namespace itrim
