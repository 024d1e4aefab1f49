#include "game/reference_policy.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "game/kernels.h"
#include "game/score_model.h"

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

namespace {

/// De-interleaves the rows named by `selected[0..count)` out of the flat
/// [x..., y] observation block into fit buffers (resized, capacity kept).
void GatherSelected(std::span<const double> obs, size_t width,
                    const size_t* selected, size_t count,
                    std::vector<double>* xs, std::vector<double>* ys) {
  const size_t dims = width - 1;
  xs->resize(count * dims);
  ys->resize(count);
  for (size_t k = 0; k < count; ++k) {
    const double* row = obs.data() + selected[k] * width;
    std::copy(row, row + dims, xs->data() + k * dims);
    (*ys)[k] = row[dims];
  }
}

/// Radix key of an absolute residual: non-negative doubles order like their
/// bit patterns, NaN ranks with +inf, and -0 folds onto +0.
uint64_t ResidualKey(double residual) {
  if (std::isnan(residual)) {
    return std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity());
  }
  if (residual == 0.0) return 0;
  return std::bit_cast<uint64_t>(residual);
}

}  // namespace

void FittedModelReference::OrderByResidual() {
  const size_t n = resid_.size();
  keys_.resize(n);
  keys_tmp_.resize(n);
  order_tmp_.resize(n);
  // One byte histogram per key byte, all filled by the encoding pass.
  size_t counts[8][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = ResidualKey(resid_[i]);
    keys_[i] = key;
    order_[i] = i;
    for (int b = 0; b < 8; ++b) ++counts[b][(key >> (8 * b)) & 0xFF];
  }
  // LSD passes from index order; each pass is stable, so equal keys keep
  // ascending index order — the old comparator's tie-break.
  for (int b = 0; b < 8; ++b) {
    const int shift = 8 * b;
    size_t* count = counts[b];
    if (count[(keys_[0] >> shift) & 0xFF] == n) continue;  // byte is uniform
    size_t offset = 0;
    for (int v = 0; v < 256; ++v) {
      const size_t here = count[v];
      count[v] = offset;
      offset += here;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = keys_[i];
      const size_t slot = count[(key >> shift) & 0xFF]++;
      keys_tmp_[slot] = key;
      order_tmp_[slot] = order_[i];
    }
    keys_.swap(keys_tmp_);
    order_.swap(order_tmp_);
  }
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
  // state), so a restored session replays the identical kept sets.
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) order_[i] = i;
  GatherSelected(obs, width, order_.data(), n, &fit_xs_, &fit_ys_);
  ITRIM_RETURN_NOT_OK(
      regressor_.FitClosedForm(fit_xs_, fit_ys_, dims, &fit_));
  resid_.resize(n);
  prev_resid_.resize(n);
  kernels::AbsResidualsToModel(obs.data(), n, width, fit_.weights.data(),
                               fit_.bias, resid_.data());

  double cutoff = std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < options_.max_refits; ++iter) {
    ++last_refit_iters_;
    OrderByResidual();
    cutoff = resid_[order_[keep_n - 1]];
    GatherSelected(obs, width, order_.data(), keep_n, &fit_xs_, &fit_ys_);
    ITRIM_RETURN_NOT_OK(
        regressor_.FitClosedForm(fit_xs_, fit_ys_, dims, &fit_));
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
