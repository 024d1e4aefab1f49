#include "ml/residual_score_model.h"

#include <algorithm>
#include <cmath>

#include "game/kernels.h"

namespace itrim {

const char* PoisonShapeName(PoisonShape shape) {
  return shape == PoisonShape::kLeverage ? "leverage" : "flip_shift";
}

ResidualScoreModel::ResidualScoreModel(const RegressionData* source,
                                       PoisonShape shape)
    : ScoreModel(source != nullptr && source->dims > 0 ? source->dims + 1 : 0),
      source_(source),
      shape_(shape) {}

Status ResidualScoreModel::BeginRun() {
  if (source_ == nullptr || source_->size() == 0) {
    return Status::FailedPrecondition("source regression data is empty");
  }
  if (source_->dims == 0) {
    return Status::FailedPrecondition("source regression data has no dims");
  }
  if (source_->xs.size() != source_->size() * source_->dims) {
    return Status::FailedPrecondition(
        "source regression data shape mismatch");
  }
  if (source_->dims + 1 != ObsWidth()) {
    return Status::FailedPrecondition(
        "source dims changed since the model was built");
  }
  retained_ = RegressionData{};
  retained_.name = source_->name + "/retained";
  retained_.dims = source_->dims;
  retained_is_poison_.clear();
  return Status::OK();
}

Status ResidualScoreModel::Bootstrap(size_t bootstrap_size, Rng* rng,
                                     PublicBoard* board) {
  const size_t n_source = source_->size();
  const size_t dims = source_->dims;

  // The clean calibration sample fixes the reference fit and seeds the
  // board with its residual magnitudes — the percentile coordinate of this
  // setting is a clean-residual quantile. The source is read in place; the
  // fit gathers its own copy of the sample.
  std::vector<size_t> sample(bootstrap_size);
  std::vector<double> fit_xs(bootstrap_size * dims);
  std::vector<double> fit_ys(bootstrap_size);
  for (size_t i = 0; i < bootstrap_size; ++i) {
    const size_t idx = static_cast<size_t>(rng->UniformInt(n_source));
    sample[i] = idx;
    const double* x = source_->xs.data() + idx * dims;
    std::copy(x, x + dims, fit_xs.data() + i * dims);
    fit_ys[i] = source_->ys[idx];
  }
  ITRIM_RETURN_NOT_OK(
      regressor_.FitClosedForm(fit_xs, fit_ys, dims, &reference_));

  // The sample's residuals go to the board in draw order.
  for (size_t idx : sample) {
    board->RecordOne(AbsResidual(source_->xs.data() + idx * dims, dims,
                                 source_->ys[idx]));
  }

  // Highest-leverage source row (max feature distance to the mean, lowest
  // index on ties): only the leverage poison shape reads it.
  leverage_row_ = 0;
  if (shape_ != PoisonShape::kLeverage) return Status::OK();
  std::vector<double> mean(dims, 0.0);
  for (size_t i = 0; i < n_source; ++i) {
    const double* x = source_->xs.data() + i * dims;
    for (size_t j = 0; j < dims; ++j) mean[j] += x[j];
  }
  for (double& m : mean) m /= static_cast<double>(n_source);
  double best = -1.0;
  for (size_t i = 0; i < n_source; ++i) {
    const double dist = kernels::SquaredDistance(
        source_->xs.data() + i * dims, mean.data(), dims);
    if (dist > best) {
      best = dist;
      leverage_row_ = i;
    }
  }
  return Status::OK();
}

double ResidualScoreModel::AbsResidual(const double* x, size_t dims,
                                       double y) const {
  // |y - (w . x + bias)| with the dot product in the canonical LaneDot
  // association: the same doubles as the batched AbsResidualsToModel.
  const double prediction =
      kernels::LaneDot(reference_.weights.data(), x, dims) + reference_.bias;
  return std::fabs(y - prediction);
}

void ResidualScoreModel::AppendBenignBatch(size_t count, Rng* rng) {
  const size_t dims = source_->dims;
  for (uint64_t draw : DrawBenignIndices(source_->size(), count, rng)) {
    const size_t idx = static_cast<size_t>(draw);
    // Rows are always materialized: observations() must expose the round
    // for model-in-the-loop trim references regardless of retention.
    const double* x = source_->xs.data() + idx * dims;
    const double y = source_->ys[idx];
    std::span<double> slot = NextRowSlot();
    std::copy(x, x + dims, slot.begin());
    slot[dims] = y;
    AppendScore(AbsResidual(x, dims, y), false);
  }
}

Status ResidualScoreModel::AppendPoison(double position, Rng* rng,
                                        const PublicBoard& board) {
  // Poison "at percentile a" carries the board's a-quantile residual
  // magnitude; positions above 1 extrapolate linearly beyond the largest
  // clean residual.
  double magnitude;
  if (position <= 1.0) {
    ITRIM_ASSIGN_OR_RETURN(magnitude, board.Quantile(position));
  } else {
    ITRIM_ASSIGN_OR_RETURN(magnitude, board.Quantile(1.0));
    magnitude *= position;
  }
  size_t idx;
  double sign;
  if (shape_ == PoisonShape::kFlipShift) {
    idx = static_cast<size_t>(rng->UniformInt(source_->size()));
    sign = rng->Bernoulli(0.5) ? 1.0 : -1.0;
  } else {
    idx = leverage_row_;
    sign = 1.0;
  }
  const size_t dims = source_->dims;
  const double* x = source_->xs.data() + idx * dims;
  std::span<double> slot = NextRowSlot();
  std::copy(x, x + dims, slot.begin());
  slot[dims] = reference_.Predict({x, dims}) + sign * magnitude;
  // Score through the scalar definition — the same LaneDot evaluation as
  // the benign rows and the batched kernel.
  AppendScore(ScoreObservation(slot), true);
  return Status::OK();
}

double ResidualScoreModel::ScoreObservation(
    std::span<const double> obs) const {
  const size_t dims = obs.size() - 1;
  return AbsResidual(obs.data(), dims, obs[dims]);
}

void ResidualScoreModel::Commit(std::span<const char> keep) {
  if (!retain_survivors_) return;
  const std::span<const double> rows = observations();
  const std::span<const char> poison = is_poison();
  const size_t width = ObsWidth();
  const size_t dims = width - 1;
  for (size_t i = 0; i < poison.size(); ++i) {
    if (!keep[i]) continue;
    const double* row = rows.data() + i * width;
    retained_.xs.insert(retained_.xs.end(), row, row + dims);
    retained_.ys.push_back(row[dims]);
    retained_is_poison_.push_back(poison[i]);
  }
}

}  // namespace itrim
