#include "ml/linreg.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

#include "game/kernels.h"
#include "obs/metrics.h"

namespace itrim {

namespace {

constexpr double kPivotEpsilon = 1e-12;

/// Mean squared residual of the model over all rows, written per-row into
/// `r2` (resized). Predictions go through LaneDot, so the residual stream
/// is bit-identical to the batched kernel path for the same model.
double SquaredResiduals(const RegressionData& data, const LinearModel& model,
                        std::vector<double>* r2) {
  const size_t n = data.size();
  r2->resize(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double pred = kernels::LaneDot(model.weights.data(),
                                         data.xs.data() + i * data.dims,
                                         data.dims) +
                        model.bias;
    const double r = data.ys[i] - pred;
    (*r2)[i] = r * r;
    sum += r * r;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

/// Total order over squared residuals: NaN sorts last, ties break by index,
/// so the selected subset is independent of the sort algorithm.
void OrderByResidual(const std::vector<double>& r2,
                     std::vector<size_t>* order) {
  order->resize(r2.size());
  for (size_t i = 0; i < order->size(); ++i) (*order)[i] = i;
  const double inf = std::numeric_limits<double>::infinity();
  std::sort(order->begin(), order->end(), [&](size_t a, size_t b) {
    const double ka = std::isnan(r2[a]) ? inf : r2[a];
    const double kb = std::isnan(r2[b]) ? inf : r2[b];
    if (ka != kb) return ka < kb;
    return a < b;
  });
}

/// Copies the rows named by `indices` into flat fit buffers.
void GatherRows(const RegressionData& data, const std::vector<size_t>& indices,
                std::vector<double>* xs, std::vector<double>* ys) {
  xs->resize(indices.size() * data.dims);
  ys->resize(indices.size());
  for (size_t k = 0; k < indices.size(); ++k) {
    const double* row = data.xs.data() + indices[k] * data.dims;
    std::copy(row, row + data.dims, xs->data() + k * data.dims);
    (*ys)[k] = data.ys[indices[k]];
  }
}

Status CheckRegressionData(const RegressionData& data) {
  if (data.dims == 0) {
    return Status::InvalidArgument("regression data needs dims >= 1");
  }
  if (data.xs.size() != data.ys.size() * data.dims) {
    return Status::InvalidArgument(
        "regression data shape mismatch: xs must hold size() * dims doubles");
  }
  if (data.size() == 0) {
    return Status::InvalidArgument("regression data is empty");
  }
  return Status::OK();
}

// The normal equations over the augmented design [x, 1], summed in one
// sequential pass over the rows (no kernels, no reassociation: the fit is
// the same bits on every thread count and kernel variant). Each cell of the
// upper triangle and of the right-hand side receives its row-order sequence
// of adds, so how the cells are held does not change a bit. The augmented
// 1.0 column is peeled out of the cell loop: a product with 1.0 is exact,
// so adding x_i, y or 1.0 itself gives every cell the bits of x_i * 1.0.
// `row_at(r)` returns {features, response} of row r, or a null feature
// pointer when row r does not exist, which ends the pass with false.

/// Any width: every cell is a load/add/store into `normal` per row.
template <typename RowAt>
bool AccumulateAnyWidth(size_t n, size_t dims, RowAt row_at, double* normal,
                        double* rhs) {
  const size_t aug = dims + 1;
  std::fill(normal, normal + aug * aug, 0.0);
  std::fill(rhs, rhs + aug, 0.0);
  for (size_t r = 0; r < n; ++r) {
    const auto [x, y] = row_at(r);
    if (x == nullptr) return false;
    for (size_t i = 0; i < dims; ++i) {
      const double xi = x[i];
      double* cells = normal + i * aug;
      for (size_t j = i; j < dims; ++j) cells[j] += xi * x[j];
      cells[dims] += xi;
      rhs[i] += xi * y;
    }
    normal[dims * aug + dims] += 1.0;
    rhs[dims] += y;
  }
  return true;
}

/// A compile-time width: the loops unroll and every cell is a local scalar
/// for the whole pass, stored to `normal` (upper triangle) once at the end.
/// The inner loop runs the full width with a `j >= i` test rather than
/// starting at i: with both trip counts constant the loops unroll before
/// the cells are split into scalars, where a loop from i left them in
/// memory (at 3 features, slower than the generic loop).
template <size_t kDims, typename RowAt>
bool AccumulateFixedWidth(size_t n, RowAt row_at, double* normal,
                          double* rhs) {
  constexpr size_t kAug = kDims + 1;
  double cells[kDims][kAug] = {};  // row i uses columns i..kDims
  double sums[kAug] = {};
  double count = 0.0;
  for (size_t r = 0; r < n; ++r) {
    const auto [x, y] = row_at(r);
    if (x == nullptr) return false;
    for (size_t i = 0; i < kDims; ++i) {
      for (size_t j = 0; j < kDims; ++j) {
        if (j >= i) cells[i][j] += x[i] * x[j];
      }
      cells[i][kDims] += x[i];
      sums[i] += x[i] * y;
    }
    count += 1.0;
    sums[kDims] += y;
  }
  for (size_t i = 0; i < kDims; ++i) {
    for (size_t j = i; j < kAug; ++j) normal[i * kAug + j] = cells[i][j];
  }
  normal[kDims * kAug + kDims] = count;
  std::copy(sums, sums + kAug, rhs);
  return true;
}

}  // namespace

double LinearModel::Predict(std::span<const double> x) const {
  return kernels::LaneDot(weights.data(), x.data(), weights.size()) + bias;
}

template <typename RowAt>
bool LinearRegressor::AccumulateNormalEquations(size_t n, size_t dims,
                                                RowAt row_at) {
  const size_t aug = dims + 1;
  normal_.resize(aug * aug);
  rhs_.resize(aug);
  double* normal = normal_.data();
  double* rhs = rhs_.data();
  switch (dims) {
    case 1:
      return AccumulateFixedWidth<1>(n, row_at, normal, rhs);
    case 2:
      return AccumulateFixedWidth<2>(n, row_at, normal, rhs);
    case 3:
      return AccumulateFixedWidth<3>(n, row_at, normal, rhs);
    case 4:
      return AccumulateFixedWidth<4>(n, row_at, normal, rhs);
    default:
      return AccumulateAnyWidth(n, dims, row_at, normal, rhs);
  }
}

Status LinearRegressor::SolveNormalEquations(size_t dims, LinearModel* out) {
  const size_t aug = dims + 1;
  // Mirror the upper triangle (the accumulation filled i <= j).
  for (size_t i = 0; i < aug; ++i) {
    for (size_t j = 0; j < i; ++j) normal_[i * aug + j] = normal_[j * aug + i];
  }

  // Gaussian elimination with partial pivoting, sequential and in place.
  for (size_t col = 0; col < aug; ++col) {
    size_t pivot = col;
    double best = std::fabs(normal_[col * aug + col]);
    for (size_t row = col + 1; row < aug; ++row) {
      const double mag = std::fabs(normal_[row * aug + col]);
      if (mag > best) {
        best = mag;
        pivot = row;
      }
    }
    if (!(best > kPivotEpsilon)) {
      return Status::FailedPrecondition(
          "FitClosedForm: singular normal equations (need more than dims "
          "independent rows)");
    }
    if (pivot != col) {
      for (size_t j = 0; j < aug; ++j) {
        std::swap(normal_[col * aug + j], normal_[pivot * aug + j]);
      }
      std::swap(rhs_[col], rhs_[pivot]);
    }
    const double inv = 1.0 / normal_[col * aug + col];
    for (size_t row = col + 1; row < aug; ++row) {
      const double factor = normal_[row * aug + col] * inv;
      if (factor == 0.0) continue;
      for (size_t j = col; j < aug; ++j) {
        normal_[row * aug + j] -= factor * normal_[col * aug + j];
      }
      rhs_[row] -= factor * rhs_[col];
    }
  }
  out->weights.resize(dims);
  double* solution = rhs_.data();
  for (size_t col = aug; col-- > 0;) {
    double acc = solution[col];
    for (size_t j = col + 1; j < aug; ++j) {
      acc -= normal_[col * aug + j] * solution[j];
    }
    solution[col] = acc / normal_[col * aug + col];
  }
  std::copy(solution, solution + dims, out->weights.begin());
  out->bias = solution[dims];
  return Status::OK();
}

Status LinearRegressor::FitClosedForm(std::span<const double> xs,
                                      std::span<const double> ys, size_t dims,
                                      LinearModel* out) {
  if (dims == 0) return Status::InvalidArgument("FitClosedForm: dims == 0");
  const size_t n = ys.size();
  if (n == 0) return Status::InvalidArgument("FitClosedForm: no rows");
  if (xs.size() != n * dims) {
    return Status::InvalidArgument(
        "FitClosedForm: xs must hold ys.size() * dims doubles");
  }
  // Every row exists, so the pass runs to the end.
  AccumulateNormalEquations(n, dims, [&](size_t r) {
    return std::pair<const double*, double>(xs.data() + r * dims, ys[r]);
  });
  return SolveNormalEquations(dims, out);
}

Status LinearRegressor::FitRowsInPlace(std::span<const double> obs,
                                       size_t width,
                                       std::span<const size_t> rows,
                                       LinearModel* out) {
  if (width < 2) {
    return Status::InvalidArgument("FitRowsInPlace: width must be >= 2");
  }
  if (rows.empty()) return Status::InvalidArgument("FitRowsInPlace: no rows");
  const size_t obs_rows = obs.size() / width;
  const size_t dims = width - 1;
  // Each index is checked as the pass reads it.
  if (obs.size() != obs_rows * width ||
      !AccumulateNormalEquations(rows.size(), dims, [&](size_t r) {
        if (rows[r] >= obs_rows) {
          return std::pair<const double*, double>(nullptr, 0.0);
        }
        const double* row = obs.data() + rows[r] * width;
        return std::pair<const double*, double>(row, row[dims]);
      })) {
    return Status::InvalidArgument(
        "FitRowsInPlace: rows must name whole rows of obs");
  }
  return SolveNormalEquations(dims, out);
}

RegressionData MakeSyntheticRegression(size_t n, size_t dims, double noise,
                                       uint64_t seed, LinearModel* truth) {
  Rng rng(seed);
  LinearModel model;
  model.weights.resize(dims);
  for (size_t j = 0; j < dims; ++j) model.weights[j] = rng.Uniform(-2.0, 2.0);
  model.bias = rng.Uniform(-1.0, 1.0);

  RegressionData data;
  data.name = "synthetic";
  data.dims = dims;
  data.xs.resize(n * dims);
  data.ys.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double* row = data.xs.data() + i * dims;
    for (size_t j = 0; j < dims; ++j) row[j] = rng.Uniform(-1.0, 1.0);
    double y = model.Predict({row, dims});
    if (noise > 0.0) y += noise * rng.Normal();
    data.ys[i] = y;
  }
  if (truth != nullptr) *truth = std::move(model);
  return data;
}

size_t FlipShiftPoison(RegressionData* data, const LinearModel& reference,
                       double eps, double shift, Rng* rng) {
  const size_t clean = data->size();
  if (clean == 0 || !(eps > 0.0)) return 0;
  const size_t poison =
      static_cast<size_t>(std::floor(eps * static_cast<double>(clean)));
  const size_t dims = data->dims;
  data->xs.reserve((clean + poison) * dims);
  data->ys.reserve(clean + poison);
  for (size_t p = 0; p < poison; ++p) {
    const size_t idx = static_cast<size_t>(rng->UniformInt(clean));
    const double sign = rng->Bernoulli(0.5) ? 1.0 : -1.0;
    const double* row = data->xs.data() + idx * dims;
    const double yhat = reference.Predict({row, dims});
    const double resid = std::fabs(data->ys[idx] - yhat);
    // Append the copy only after reading through `row` (the reserve above
    // guarantees no reallocation, but keep the ordering defensive anyway).
    const double poisoned_y = yhat + sign * (resid + shift);
    data->xs.insert(data->xs.end(), row, row + dims);
    data->ys.push_back(poisoned_y);
  }
  return poison;
}

Result<TrimResult> TrimDefense(const RegressionData& data,
                               const TrimOptions& options, Rng* rng) {
  ITRIM_RETURN_NOT_OK(CheckRegressionData(data));
  if (!(options.eps_hat >= 0.0) || options.eps_hat >= 1.0) {
    return Status::InvalidArgument("TrimDefense: eps_hat must be in [0, 1)");
  }
  if (!(options.tol >= 0.0)) {
    return Status::InvalidArgument("TrimDefense: tol must be >= 0");
  }
  if (options.max_iters < 1) {
    return Status::InvalidArgument("TrimDefense: max_iters must be >= 1");
  }
  if (rng == nullptr) return Status::InvalidArgument("TrimDefense: rng");

  const size_t n = data.size();
  const size_t keep_n = static_cast<size_t>(
      std::floor(static_cast<double>(n) / (1.0 + options.eps_hat)));
  if (keep_n == 0) {
    return Status::InvalidArgument("TrimDefense: keep budget is zero");
  }

  TrimResult result;
  LinearRegressor regressor;
  std::vector<double> fit_xs;
  std::vector<double> fit_ys;
  std::vector<double> r2;

  // Initial fit on a random keep_n-subset (the eps_hat = 0 case samples a
  // permutation of everything — drawn anyway so the RNG stream shape does
  // not depend on the contamination estimate).
  result.kept = rng->SampleWithoutReplacement(n, keep_n);
  std::sort(result.kept.begin(), result.kept.end());
  GatherRows(data, result.kept, &fit_xs, &fit_ys);
  ITRIM_RETURN_NOT_OK(
      regressor.FitClosedForm(fit_xs, fit_ys, data.dims, &result.model));
  result.full_mse = SquaredResiduals(data, result.model, &r2);

  if (options.eps_hat == 0.0) {
    // Pure no-op: every row survives, no refit loop (keep_n == n).
    result.kept_mse = result.full_mse;
    result.iterations = 0;
    return result;
  }

  std::vector<size_t> order;
  for (int iter = 0; iter < options.max_iters; ++iter) {
    OrderByResidual(r2, &order);
    result.kept.assign(order.begin(),
                       order.begin() + static_cast<std::ptrdiff_t>(keep_n));
    std::sort(result.kept.begin(), result.kept.end());
    GatherRows(data, result.kept, &fit_xs, &fit_ys);
    ITRIM_RETURN_NOT_OK(
        regressor.FitClosedForm(fit_xs, fit_ys, data.dims, &result.model));

    std::vector<double> new_r2;
    const double new_full = SquaredResiduals(data, result.model, &new_r2);
    double delta = 0.0;
    for (size_t i = 0; i < n; ++i) delta += std::fabs(r2[i] - new_r2[i]);
    delta /= static_cast<double>(n);
    r2 = std::move(new_r2);
    result.full_mse = new_full;
    result.iterations = iter + 1;
    if (delta < options.tol) break;
  }

  double kept_sum = 0.0;
  for (size_t idx : result.kept) kept_sum += r2[idx];
  result.kept_mse = kept_sum / static_cast<double>(result.kept.size());
  return result;
}

Result<ITrimResult> ITrimDefense(const RegressionData& data,
                                 const ITrimOptions& options, Rng* rng,
                                 obs::MetricSlot* metrics) {
  ITRIM_RETURN_NOT_OK(CheckRegressionData(data));
  if (!(options.eps_step > 0.0) || !(options.eps_max >= options.eps_step) ||
      options.eps_max >= 1.0) {
    return Status::InvalidArgument(
        "ITrimDefense: need 0 < eps_step <= eps_max < 1");
  }
  if (!(options.knee_ratio >= 1.0)) {
    return Status::InvalidArgument("ITrimDefense: knee_ratio must be >= 1");
  }

  ITrimResult result;
  const int steps =
      static_cast<int>(std::floor(options.eps_max / options.eps_step + 1e-9));
  std::vector<TrimResult> runs;
  runs.reserve(static_cast<size_t>(steps) + 1);
  for (int i = 0; i <= steps; ++i) {
    const double eps = static_cast<double>(i) * options.eps_step;
    TrimOptions trim_options;
    trim_options.eps_hat = eps;
    trim_options.tol = options.tol;
    trim_options.max_iters = options.max_iters;
    ITRIM_ASSIGN_OR_RETURN(TrimResult run,
                           TrimDefense(data, trim_options, rng));
    result.grid.push_back(eps);
    result.kept_mse.push_back(run.kept_mse);
    runs.push_back(std::move(run));
  }

  // The knick: the largest consecutive kept-MSE drop. Below the true
  // contamination the keep budget must include poison rows (pigeonhole), so
  // kept MSE sits at poison scale; at the first grid point whose budget
  // fits inside the clean subset it falls to noise scale.
  const double inf = std::numeric_limits<double>::infinity();
  double best_ratio = 0.0;
  size_t best_index = 0;
  for (size_t i = 1; i < result.kept_mse.size(); ++i) {
    const double prev = result.kept_mse[i - 1];
    const double cur = result.kept_mse[i];
    const double ratio = cur > 0.0 ? prev / cur : (prev > 0.0 ? inf : 1.0);
    if (ratio > best_ratio) {
      best_ratio = ratio;
      best_index = i;
    }
  }
  if (best_ratio < options.knee_ratio) best_index = 0;  // no knick: clean
  result.eps_hat = result.grid[best_index];
  result.trim = std::move(runs[best_index]);
  if (metrics != nullptr) {
    metrics->Set(obs::Gauge::kMlEpsHat, result.eps_hat);
  }
  return result;
}

}  // namespace itrim
