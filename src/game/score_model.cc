#include "game/score_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

namespace itrim {

size_t ScoreModel::PoisonCount(const GameConfig& config, double* quota) const {
  // Fractional poison accrues across rounds so that tiny attack ratios
  // (fewer than one poison value per round) still inject the right total.
  *quota += config.attack_ratio * static_cast<double>(config.round_size);
  const size_t count = static_cast<size_t>(*quota);
  *quota -= static_cast<double>(count);
  return count;
}

void ScoreModel::BeginRound(size_t expected) {
  rows_used_ = 0;
  scores_.clear();
  is_poison_.clear();
  scores_.reserve(expected);
  is_poison_.reserve(expected);
}

std::span<const uint64_t> ScoreModel::DrawBenignIndices(uint64_t n,
                                                        size_t count,
                                                        Rng* rng) {
  index_scratch_.resize(count);
  rng->FillUniformInt(n, index_scratch_.data(), count);
  return index_scratch_;
}

Status ScoreModel::TrimAtReference(double percentile,
                                   const PublicBoard& board,
                                   TrimOutcome* out) {
  ITRIM_ASSIGN_OR_RETURN(double cutoff, board.Quantile(percentile));
  TrimAboveValueInto(scores(), cutoff, out);
  return Status::OK();
}

Status ScoreModel::ScoreInto(std::span<const double> obs,
                             std::span<double> out) const {
  const size_t width = ObsWidth();
  if (width == 0) {
    return Status::FailedPrecondition("model has no observation width yet");
  }
  if (obs.size() != out.size() * width) {
    return Status::InvalidArgument(
        "obs span holds " + std::to_string(obs.size()) + " doubles; " +
        std::to_string(out.size()) + " scores of width " +
        std::to_string(width) + " need " +
        std::to_string(out.size() * width));
  }
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = ScoreObservation(obs.subspan(i * width, width));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IdentityScoreModel
// ---------------------------------------------------------------------------

IdentityScoreModel::IdentityScoreModel(const std::vector<double>* benign_pool)
    : ScoreModel(1), benign_pool_(benign_pool) {}

Status IdentityScoreModel::BeginRun() {
  if (benign_pool_ == nullptr || benign_pool_->empty()) {
    return Status::FailedPrecondition("benign pool is empty");
  }
  retained_.clear();
  retained_is_poison_.clear();
  return Status::OK();
}

Status IdentityScoreModel::Bootstrap(size_t bootstrap_size, Rng* rng,
                                     PublicBoard* board) {
  for (size_t i = 0; i < bootstrap_size; ++i) {
    board->RecordOne((*benign_pool_)[rng->UniformInt(benign_pool_->size())]);
  }
  return Status::OK();
}

void IdentityScoreModel::AppendBenignBatch(size_t count, Rng* rng) {
  for (uint64_t idx : DrawBenignIndices(benign_pool_->size(), count, rng)) {
    AppendScore((*benign_pool_)[idx], false);
  }
}

Status IdentityScoreModel::AppendPoison(double position, Rng* /*rng*/,
                                        const PublicBoard& board) {
  // Poison "at percentile a" is the board's a-quantile value: the attack
  // plants mass exactly where the reference distribution puts that rank.
  ITRIM_ASSIGN_OR_RETURN(double value, board.Quantile(position));
  AppendScore(value, true);
  return Status::OK();
}

double IdentityScoreModel::ScoreObservation(std::span<const double> obs) const {
  // Scalar setting: the value IS the score.
  return obs[0];
}

void IdentityScoreModel::Commit(std::span<const char> keep) {
  if (!retain_survivors_) return;
  const std::span<const double> values = scores();
  const std::span<const char> poison = is_poison();
  for (size_t i = 0; i < values.size(); ++i) {
    if (keep[i]) {
      retained_.push_back(values[i]);
      retained_is_poison_.push_back(poison[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// DistanceScoreModel
// ---------------------------------------------------------------------------

DistanceScoreModel::DistanceScoreModel(const Dataset* source)
    : ScoreModel(source != nullptr ? source->dims() : 0), source_(source) {}

Status DistanceScoreModel::BeginRun() {
  if (source_ == nullptr || source_->rows.empty()) {
    return Status::FailedPrecondition("source dataset is empty");
  }
  // Rows are read in place at dims() doubles each (bootstrap sample,
  // first-draw scoring, round copies): a ragged source is rejected here.
  ITRIM_RETURN_NOT_OK(source_->Validate());
  if (source_->dims() != ObsWidth()) {
    return Status::FailedPrecondition(
        "source row width changed since the model was built");
  }
  labeled_ = source_->labeled();
  poison_row_scratch_.resize(ObsWidth());
  retained_ = Dataset{};
  retained_.name = source_->name + "/retained";
  retained_.num_clusters = source_->num_clusters;
  retained_is_poison_.clear();
  return Status::OK();
}

Status DistanceScoreModel::Bootstrap(size_t bootstrap_size, Rng* rng,
                                     PublicBoard* board) {
  // The clean calibration sample fixes the percentile geometry
  // (per-feature quantile-vector map) and seeds the board with benign
  // position scores. The sample borrows source rows; nothing is copied.
  const size_t n_source = source_->rows.size();
  std::vector<const double*> sample(bootstrap_size);
  for (const double*& row : sample) {
    row = source_->rows[rng->UniformInt(n_source)].data();
  }
  const size_t dims = ObsWidth();
  ITRIM_ASSIGN_OR_RETURN(position_map_, PositionMap::Build(sample, dims));
  centroid_ = position_map_.centroid();
  for (const double* row : sample) {
    board->RecordOne(
        position_map_.PositionOfRow(std::span<const double>(row, dims)));
  }
  source_scores_.assign(n_source, std::numeric_limits<double>::quiet_NaN());
  return Status::OK();
}

void DistanceScoreModel::AppendBenignBatch(size_t count, Rng* rng) {
  // The benign batch is the round's first arrival (BeginRound() came
  // right before), so it opens the round's labels.
  labels_.clear();
  for (uint64_t draw : DrawBenignIndices(source_->rows.size(), count, rng)) {
    const size_t idx = static_cast<size_t>(draw);
    if (retain_survivors_) {
      // Rows are only ever consumed by Commit(); a streaming session that
      // retains nothing never materializes them.
      const std::vector<double>& src = source_->rows[idx];
      std::span<double> slot = NextRowSlot();
      std::copy(src.begin(), src.end(), slot.begin());
    }
    if (labeled_) labels_.push_back(source_->labels[idx]);
    double& score = source_scores_[idx];
    if (std::isnan(score)) {
      score = position_map_.PositionOfRow(source_->rows[idx]);
    }
    AppendScore(score, false);
  }
}

void DistanceScoreModel::PrepareInjection(Rng* rng) {
  // Colluding Sybil attackers share one direction per round: the
  // data-meaningful quantile direction ("all features high"), jittered so
  // rounds do not stack on one exact ray.
  rng->UnitVectorInto(source_->dims(), &direction_);
  const auto& qdir = position_map_.quantile_direction();
  double norm_sq = 0.0;
  for (size_t j = 0; j < direction_.size(); ++j) {
    direction_[j] = qdir[j] + 0.5 * direction_[j];
    norm_sq += direction_[j] * direction_[j];
  }
  double inv = 1.0 / std::sqrt(norm_sq);
  for (double& v : direction_) v *= inv;
}

Status DistanceScoreModel::AppendPoison(double position, Rng* rng,
                                        const PublicBoard& /*board*/) {
  // Poison rows are freshly fabricated, so their scores are computed on
  // arrival either way; only the destination differs (a retained-round
  // slot vs a reused scratch row).
  std::span<double> row =
      retain_survivors_ ? NextRowSlot() : std::span<double>(poison_row_scratch_);
  position_map_.MakePointInto(position, direction_, row);
  if (labeled_) {
    // Opportunistic label claims: drawn at random per value, which plants
    // *contradictory* constraints at the injection point — for a max-margin
    // learner that forces slack and distorts the weights far more than a
    // consistently-labeled cluster would.
    labels_.push_back(static_cast<int>(
        rng->UniformInt(std::max<size_t>(1, source_->num_clusters))));
  }
  AppendScore(position_map_.PositionOfRow(row), true);
  return Status::OK();
}

double DistanceScoreModel::ScoreObservation(std::span<const double> obs) const {
  return position_map_.PositionOfRow(obs);
}

Status DistanceScoreModel::TrimAtReference(double percentile,
                                           const PublicBoard& /*board*/,
                                           TrimOutcome* out) {
  // Positions *are* percentiles: the threshold applies directly.
  TrimAboveValueInto(scores(), percentile, out);
  return Status::OK();
}

void DistanceScoreModel::Commit(std::span<const char> keep) {
  if (!retain_survivors_) return;
  // While retaining, every arrival pooled its row.
  const std::span<const double> rows = observations();
  const std::span<const char> poison = is_poison();
  const size_t dims = ObsWidth();
  for (size_t i = 0; i * dims < rows.size(); ++i) {
    if (keep[i]) {
      const double* row = rows.data() + i * dims;
      retained_.rows.emplace_back(row, row + dims);
      if (labeled_) retained_.labels.push_back(labels_[i]);
      retained_is_poison_.push_back(poison[i]);
    }
  }
}

}  // namespace itrim
