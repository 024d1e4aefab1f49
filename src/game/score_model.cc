#include "game/score_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "game/kernels.h"

namespace itrim {

size_t ScoreModel::PoisonCount(const GameConfig& config, double* quota) const {
  // Fractional poison accrues across rounds so that tiny attack ratios
  // (fewer than one poison value per round) still inject the right total.
  *quota += config.attack_ratio * static_cast<double>(config.round_size);
  const size_t count = static_cast<size_t>(*quota);
  *quota -= static_cast<double>(count);
  return count;
}

Status ScoreModel::AppendPoisonBatch(std::span<const double> positions,
                                     Rng* rng, const PublicBoard& board) {
  // Default: the per-observation hook in a loop — identical RNG order, so
  // overriding this is only ever a dispatch-count optimization.
  for (double position : positions) {
    ITRIM_RETURN_NOT_OK(AppendPoison(position, rng, board));
  }
  return Status::OK();
}

Status ScoreModel::CheckScoreSpans(std::span<const double> obs,
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
  return Status::OK();
}

Status ScoreModel::ScoreInto(std::span<const double> obs,
                             std::span<double> out) const {
  return ScoreIntoScalar(obs, out);
}

Status ScoreModel::ScoreIntoScalar(std::span<const double> obs,
                                   std::span<double> out) const {
  ITRIM_RETURN_NOT_OK(CheckScoreSpans(obs, out));
  const size_t width = ObsWidth();
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = ScoreObservation(obs.subspan(i * width, width));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IdentityScoreModel
// ---------------------------------------------------------------------------

IdentityScoreModel::IdentityScoreModel(const std::vector<double>* benign_pool)
    : benign_pool_(benign_pool) {}

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

void IdentityScoreModel::BeginRound(size_t expected) {
  values_.clear();
  is_poison_.clear();
  values_.reserve(expected);
  is_poison_.reserve(expected);
}

void IdentityScoreModel::AppendBenignBatch(size_t count, Rng* rng) {
  index_scratch_.resize(count);
  rng->FillUniformInt(benign_pool_->size(), index_scratch_.data(), count);
  for (size_t i = 0; i < count; ++i) {
    values_.push_back((*benign_pool_)[index_scratch_[i]]);
    is_poison_.push_back(0);
  }
}

Status IdentityScoreModel::AppendBenignBatch(std::span<const double> obs) {
  values_.insert(values_.end(), obs.begin(), obs.end());
  is_poison_.insert(is_poison_.end(), obs.size(), 0);
  return Status::OK();
}

Status IdentityScoreModel::AppendPoison(double position, Rng* /*rng*/,
                                        const PublicBoard& board) {
  // Poison "at percentile a" is the board's a-quantile value: the attack
  // plants mass exactly where the reference distribution puts that rank.
  ITRIM_ASSIGN_OR_RETURN(double value, board.Quantile(position));
  values_.push_back(value);
  is_poison_.push_back(1);
  return Status::OK();
}

double IdentityScoreModel::ScoreObservation(std::span<const double> obs) const {
  // Scalar setting: the value IS the score.
  return obs[0];
}

Status IdentityScoreModel::ScoreInto(std::span<const double> obs,
                                     std::span<double> out) const {
  ITRIM_RETURN_NOT_OK(CheckScoreSpans(obs, out));
  std::copy(obs.begin(), obs.end(), out.begin());
  return Status::OK();
}

Status IdentityScoreModel::TrimAtReference(double percentile,
                                           const PublicBoard& board,
                                           TrimOutcome* out) {
  ITRIM_ASSIGN_OR_RETURN(double cutoff, board.Quantile(percentile));
  TrimAboveValueInto(values_, cutoff, out);
  return Status::OK();
}

void IdentityScoreModel::Commit(std::span<const char> keep) {
  if (!retain_survivors_) return;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (keep[i]) {
      retained_.push_back(values_[i]);
      retained_is_poison_.push_back(is_poison_[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// DistanceScoreModel
// ---------------------------------------------------------------------------

DistanceScoreModel::DistanceScoreModel(const Dataset* source)
    : source_(source) {}

Status DistanceScoreModel::BeginRun() {
  if (source_ == nullptr || source_->rows.empty()) {
    return Status::FailedPrecondition("source dataset is empty");
  }
  // Rows are read in place at dims() doubles each (bootstrap sample,
  // first-draw scoring, round copies): a ragged source is rejected here.
  ITRIM_RETURN_NOT_OK(source_->Validate());
  labeled_ = source_->labeled();
  dims_ = source_->dims();
  poison_row_scratch_.resize(dims_);
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
  ITRIM_ASSIGN_OR_RETURN(position_map_, PositionMap::Build(sample, dims_));
  centroid_ = position_map_.centroid();
  // Per-row scoring matches the batched kernel sweep bit for bit (the
  // kernel shares the canonical distance with PositionOfRow).
  for (const double* row : sample) {
    board->RecordOne(
        position_map_.PositionOfRow(std::span<const double>(row, dims_)));
  }
  source_scores_.assign(n_source, std::numeric_limits<double>::quiet_NaN());
  return Status::OK();
}

void DistanceScoreModel::BeginRound(size_t expected) {
  rows_used_ = 0;
  labels_.clear();
  scores_.clear();
  is_poison_.clear();
  scores_.reserve(expected);
  is_poison_.reserve(expected);
}

std::span<double> DistanceScoreModel::NextRowSlot() {
  const size_t needed = (rows_used_ + 1) * dims_;
  if (row_data_.size() < needed) row_data_.resize(needed);
  return std::span<double>(row_data_.data() + rows_used_++ * dims_, dims_);
}

void DistanceScoreModel::AppendBenignBatch(size_t count, Rng* rng) {
  index_scratch_.resize(count);
  rng->FillUniformInt(source_->rows.size(), index_scratch_.data(), count);
  for (size_t i = 0; i < count; ++i) {
    const size_t idx = static_cast<size_t>(index_scratch_[i]);
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
    scores_.push_back(score);
    is_poison_.push_back(0);
  }
}

Status DistanceScoreModel::AppendBenignBatch(std::span<const double> obs) {
  if (dims_ == 0) {
    return Status::FailedPrecondition("model is not bootstrapped");
  }
  if (labeled_) {
    return Status::FailedPrecondition(
        "labeled sources cannot ingest external rows (no labels attached)");
  }
  if (obs.size() % dims_ != 0) {
    return Status::InvalidArgument("obs span is not a whole number of rows");
  }
  const size_t n = obs.size() / dims_;
  if (retain_survivors_) {
    for (size_t i = 0; i < n; ++i) {
      std::span<double> slot = NextRowSlot();
      std::copy(obs.begin() + static_cast<ptrdiff_t>(i * dims_),
                obs.begin() + static_cast<ptrdiff_t>((i + 1) * dims_),
                slot.begin());
    }
  }
  const size_t old = scores_.size();
  scores_.resize(old + n);
  position_map_.PositionsOfRows(obs, n,
                                std::span<double>(scores_).subspan(old));
  is_poison_.insert(is_poison_.end(), n, 0);
  return Status::OK();
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
  scores_.push_back(position_map_.PositionOfRow(row));
  is_poison_.push_back(1);
  return Status::OK();
}

size_t DistanceScoreModel::ObsWidth() const {
  if (dims_ > 0) return dims_;
  return source_ != nullptr ? source_->dims() : 0;
}

double DistanceScoreModel::ScoreObservation(std::span<const double> obs) const {
  return position_map_.PositionOfRow(obs);
}

Status DistanceScoreModel::ScoreInto(std::span<const double> obs,
                                     std::span<double> out) const {
  ITRIM_RETURN_NOT_OK(CheckScoreSpans(obs, out));
  position_map_.PositionsOfRows(obs, out.size(), out);
  return Status::OK();
}

Status DistanceScoreModel::TrimAtReference(double percentile,
                                           const PublicBoard& /*board*/,
                                           TrimOutcome* out) {
  // Positions *are* percentiles: the threshold applies directly.
  TrimAboveValueInto(scores_, percentile, out);
  return Status::OK();
}

void DistanceScoreModel::Commit(std::span<const char> keep) {
  if (!retain_survivors_) return;
  for (size_t i = 0; i < rows_used_; ++i) {
    if (keep[i]) {
      const double* row = row_data_.data() + i * dims_;
      retained_.rows.emplace_back(row, row + dims_);
      if (labeled_) retained_.labels.push_back(labels_[i]);
      retained_is_poison_.push_back(is_poison_[i]);
    }
  }
}

}  // namespace itrim
