#include "game/reference_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "game/kernels.h"
#include "game/score_model.h"
#include "stats/order.h"

namespace itrim {

Status PercentileReference::TrimRound(double percentile, ScoreModel* model,
                                      const PublicBoard& board,
                                      TrimOutcome* out) {
  return model->TrimAtReference(percentile, board, out);
}

PercentileReference* DefaultReferencePolicy() {
  static PercentileReference shared;
  return &shared;
}

Status RoundMassReference::TrimRound(double percentile, ScoreModel* model,
                                     const PublicBoard& /*board*/,
                                     TrimOutcome* out) {
  TrimTopFractionInto(model->scores(), percentile, &idx_scratch_, out);
  return Status::OK();
}

Status FittedModelReference::Options::Validate() const {
  if (max_refits < 1) {
    return Status::InvalidArgument(
        "FittedModelReference: max_refits must be >= 1");
  }
  if (!(tol >= 0.0)) {
    return Status::InvalidArgument("FittedModelReference: tol must be >= 0");
  }
  return Status::OK();
}

Status FittedModelReference::Validate(const ScoreModel& model) const {
  if (!model.ProvidesObservations()) {
    return Status::InvalidArgument(
        "FittedModelReference needs a score model that exposes its round "
        "observations (model '" +
        model.name() + "' does not)");
  }
  if (model.ObsWidth() < 2) {
    return Status::InvalidArgument(
        "FittedModelReference needs observations of at least one feature "
        "plus the response (ObsWidth() >= 2)");
  }
  return options_.Validate();
}

Status FittedModelReference::TrimRound(double percentile, ScoreModel* model,
                                       const PublicBoard& /*board*/,
                                       TrimOutcome* out) {
  last_refit_iters_ = 0;
  const std::span<const double> obs = model->observations();
  const size_t width = model->ObsWidth();
  const size_t n = model->scores().size();
  if (width < 2) {
    return Status::FailedPrecondition(
        "FittedModelReference: model observations are not multi-column");
  }
  if (n == 0) {
    out->keep.clear();
    out->kept_count = 0;
    out->removed_count = 0;
    out->cutoff = std::numeric_limits<double>::infinity();
    return Status::OK();
  }
  if (obs.size() != n * width) {
    return Status::FailedPrecondition(
        "FittedModelReference: model did not expose this round's "
        "observations");
  }
  const size_t dims = width - 1;

  // The percentile keeps its meaning as kept mass: keep the floor(q * n)
  // lowest-residual rows, bounded below by the fit's feasibility minimum.
  size_t keep_n = percentile > 0.0
                      ? static_cast<size_t>(std::floor(
                            percentile * static_cast<double>(n)))
                      : 0;
  keep_n = std::max(keep_n, std::min(n, dims + 1));
  if (keep_n >= n) {
    out->keep.assign(n, 1);
    out->kept_count = n;
    out->removed_count = 0;
    out->cutoff = std::numeric_limits<double>::infinity();
    return Status::OK();
  }

  // Initial fit on the whole round — deterministic (no RNG, no cross-round
  // state), so a restored session replays the identical kept sets. The
  // fits read their rows in place, in order_'s order.
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) order_[i] = i;
  ITRIM_RETURN_NOT_OK(regressor_.FitRowsInPlace(obs, width, order_, &fit_));
  resid_.resize(n);
  prev_resid_.resize(n);
  keys_.resize(n);
  kernels::AbsResidualsToModel(obs.data(), n, width, fit_.weights.data(),
                               fit_.bias, resid_.data());

  double cutoff = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < options_.max_refits; ++iter) {
    ++last_refit_iters_;
    OrderResidualRows(resid_, keys_, order_);
    cutoff = resid_[order_[keep_n - 1]];
    ITRIM_RETURN_NOT_OK(regressor_.FitRowsInPlace(
        obs, width, {order_.data(), keep_n}, &fit_));
    std::swap(prev_resid_, resid_);
    kernels::AbsResidualsToModel(obs.data(), n, width, fit_.weights.data(),
                                 fit_.bias, resid_.data());
    // Early stop on the mean absolute change in squared residuals (the
    // Trim defense's delta-MSE criterion; |r| is exact-square-comparable).
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      delta += std::fabs(prev_resid_[i] * prev_resid_[i] -
                         resid_[i] * resid_[i]);
    }
    if (delta / static_cast<double>(n) < options_.tol) break;
  }

  // The kept set is the selection the final refit trained on.
  out->keep.assign(n, 0);
  for (size_t k = 0; k < keep_n; ++k) out->keep[order_[k]] = 1;
  out->kept_count = keep_n;
  out->removed_count = n - keep_n;
  out->cutoff = cutoff;
  return Status::OK();
}

}  // namespace itrim
