// Linear regression and the Trim / iTrim poisoning defenses.
//
// Substrate for the regression-poisoning workload: a deterministic linear
// model (closed-form normal equations, no RNG), the flip-and-shift
// training-set attack, and the iterative trimming defenses of the
// regression-poisoning literature:
//
//  * TrimDefense  — fit, keep the lowest-residual n = floor(N / (1 + eps))
//    points, refit, repeat until the mean residual change falls below `tol`
//    (one-shot Trim is the max_iters = 1 special case; eps = 0 is a
//    documented pure no-op).
//  * ITrimDefense — sweeps a grid of candidate contamination levels and
//    estimates the true one from the "knick" in kept-subset MSE: the first
//    grid point whose keep budget fits inside the clean subset drops the
//    kept MSE from poison scale to noise scale.
//
// All prediction dot products run through kernels::LaneDot (the canonical
// 4-lane association), so model evaluation here is bit-identical to the
// batched residual kernel and to ResidualScoreModel::ScoreObservation.
#ifndef ITRIM_ML_LINREG_H_
#define ITRIM_ML_LINREG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace itrim {

namespace obs {
class MetricSlot;
}  // namespace obs

/// \brief A fitted linear model y = w . x + b.
struct LinearModel {
  std::vector<double> weights;
  double bias = 0.0;

  /// \brief Prediction via the canonical 4-lane dot product
  /// (kernels::LaneDot), bit-identical to the batched residual kernel.
  double Predict(std::span<const double> x) const;
};

/// \brief Linear-regression fitter with reusable scratch.
///
/// The fit is deterministic: it accumulates the normal equations
/// sequentially and solves by Gaussian elimination with partial pivoting
/// (no RNG at all). The accumulation is compiled for each width of 1 to 4
/// features, holding every cell in a local scalar for the whole pass; wider
/// fits take one generic loop over a scratch matrix. Both give each cell the
/// same row-order sequence of adds, so the width a fit takes does not change
/// its bits. The scratch buffers only grow, so a warm regressor refits
/// without touching the heap — the property the model-in-the-loop trim
/// reference leans on to keep the session round loop allocation-free.
class LinearRegressor {
 public:
  /// \brief Exact least-squares fit of `n = ys.size()` flat observations
  /// (`xs` holds n * dims doubles, row-major) via the normal equations.
  /// Errors with FailedPrecondition when the system is singular (e.g.
  /// fewer points than dims + 1) and InvalidArgument on shape mismatch.
  Status FitClosedForm(std::span<const double> xs, std::span<const double> ys,
                       size_t dims, LinearModel* out);

  /// \brief The same fit over rows of a flat [x_0..x_{dims-1}, y]
  /// observation block (`width` = dims + 1 doubles per row), read in place
  /// in the order `rows` names them (an index may repeat). Bit-identical to
  /// gathering those rows into xs/ys and calling FitClosedForm, singular
  /// Status included. InvalidArgument unless width >= 2, `rows` is
  /// non-empty and every index names a whole row of `obs`.
  Status FitRowsInPlace(std::span<const double> obs, size_t width,
                        std::span<const size_t> rows, LinearModel* out);

 private:
  /// Sums the normal equations of `n` rows into the upper triangle of
  /// `normal_` and into `rhs_` in one sequential pass, row r being
  /// `row_at(r)` = {pointer to its dims features, its response}. One
  /// `switch` picks the pass compiled for dims 1 to 4 (cells held in
  /// registers) or the generic loop for wider rows. Returns false, at the
  /// first such row, when `row_at` gives a null feature pointer (a row that
  /// does not exist); the scratch is then partial.
  template <typename RowAt>
  bool AccumulateNormalEquations(size_t n, size_t dims, RowAt row_at);

  /// Solves the accumulated equations into `out`: mirrors the triangle,
  /// eliminates with partial pivoting and back-substitutes. FailedPrecondition
  /// (with `out` untouched) when a pivot is not above 1e-12.
  Status SolveNormalEquations(size_t dims, LinearModel* out);

  // Augmented-design scratch for the closed form: (dims+1)^2 normal matrix
  // plus right-hand side.
  std::vector<double> normal_;  ///< (dims+1) x (dims+1), row-major
  std::vector<double> rhs_;     ///< dims+1
};

/// \brief A flat regression training set: n rows of `dims` features plus a
/// response, stored as parallel flat arrays.
struct RegressionData {
  std::string name = "regression";
  size_t dims = 0;
  std::vector<double> xs;  ///< size() * dims doubles, row-major
  std::vector<double> ys;  ///< size() doubles

  size_t size() const { return ys.size(); }
};

/// \brief Deterministic synthetic regression task: features uniform in
/// [-1, 1], response w . x + b + noise * N(0, 1) for a random true model
/// drawn from `seed` (written to `truth` when non-null).
RegressionData MakeSyntheticRegression(size_t n, size_t dims, double noise,
                                       uint64_t seed,
                                       LinearModel* truth = nullptr);

/// \brief The flip-and-shift regression-poisoning attack: appends
/// floor(eps * C) poison rows to the C clean rows of `data`. Each poison
/// row reuses a random clean feature row and flips its response across the
/// reference prediction, pushed `shift` beyond the original residual
/// magnitude: y' = yhat + sign * (|y - yhat| + shift), sign ~ Bernoulli(1/2).
/// Appending (rather than replacing) keeps the clean count intact, so the
/// true contamination eps sits exactly on iTrim's sweep grid. Returns the
/// number of rows appended (the poison rows are the tail of `data`).
size_t FlipShiftPoison(RegressionData* data, const LinearModel& reference,
                       double eps, double shift, Rng* rng);

/// \brief Trim defense knobs.
struct TrimOptions {
  double eps_hat = 0.0;  ///< assumed contamination, in [0, 1)
  double tol = 1e-4;     ///< early stop when mean |delta r^2| falls below
  int max_iters = 20;    ///< refit budget (1 = one-shot Trim)
};

/// \brief Trim defense outcome.
struct TrimResult {
  std::vector<size_t> kept;  ///< surviving row indices, ascending
  LinearModel model;         ///< final fit (on the kept subset)
  double full_mse = 0.0;     ///< mean squared residual over all rows
  double kept_mse = 0.0;     ///< mean squared residual over kept rows
  int iterations = 0;        ///< refit loop iterations actually run
};

/// \brief The iterative Trim defense: initial fit on a random subset of
/// n = floor(N / (1 + eps_hat)) rows, then repeatedly keep the n
/// lowest-squared-residual rows (ties by index) and refit until the mean
/// absolute change in per-row squared residuals falls below `tol` or
/// `max_iters` is exhausted. eps_hat = 0 is a pure no-op: every row is
/// kept and the refit loop never runs (the result carries the single
/// initial fit over all rows). `rng` is drawn only for the initial subset
/// sample — including the degenerate eps_hat = 0 sample of all N rows, so
/// the RNG stream shape does not depend on the contamination estimate.
Result<TrimResult> TrimDefense(const RegressionData& data,
                               const TrimOptions& options, Rng* rng);

/// \brief iTrim sweep knobs.
struct ITrimOptions {
  double eps_max = 0.24;   ///< top of the candidate grid
  double eps_step = 0.02;  ///< grid spacing
  /// Minimum consecutive kept-MSE drop ratio that counts as the knick;
  /// below it the sweep concludes the data is clean (eps_hat = 0).
  double knee_ratio = 2.0;
  double tol = 1e-4;  ///< forwarded to each Trim run
  int max_iters = 20;
};

/// \brief iTrim sweep outcome.
struct ITrimResult {
  double eps_hat = 0.0;          ///< estimated contamination (grid point)
  std::vector<double> grid;      ///< candidate eps values swept
  std::vector<double> kept_mse;  ///< kept-subset MSE per grid point
  TrimResult trim;               ///< the Trim run at eps_hat
};

/// \brief iTrim: runs TrimDefense at every grid eps, finds the knick (the
/// largest consecutive drop in kept-subset MSE, which lands at the first
/// grid point whose keep budget excludes all poison), and returns the Trim
/// result at the estimated contamination. When `metrics` is non-null the
/// estimate is published as the ml_eps_hat gauge (src/obs/); telemetry
/// only — the sweep itself is unaffected.
Result<ITrimResult> ITrimDefense(const RegressionData& data,
                                 const ITrimOptions& options, Rng* rng,
                                 obs::MetricSlot* metrics = nullptr);

}  // namespace itrim

#endif  // ITRIM_ML_LINREG_H_
