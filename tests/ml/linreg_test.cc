// Linear-regression substrate: closed-form exactness, the in-place fit's
// bit identity with the gathered closed form, both fits' bit identity with a
// frozen replica of the generic accumulate-and-solve loop, the flip-and-shift
// attack shape, and the golden 1-D refit-loop oracle of the Trim defense.
#include "ml/linreg.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace itrim {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(LinearRegressorTest, ClosedFormRecoversNoiselessModel) {
  for (size_t dims : {1u, 2u, 3u, 5u}) {
    LinearModel truth;
    RegressionData data =
        MakeSyntheticRegression(200, dims, /*noise=*/0.0, 77 + dims, &truth);
    LinearRegressor regressor;
    LinearModel fit;
    ASSERT_TRUE(regressor.FitClosedForm(data.xs, data.ys, dims, &fit).ok());
    ASSERT_EQ(fit.weights.size(), dims);
    for (size_t j = 0; j < dims; ++j) {
      EXPECT_NEAR(fit.weights[j], truth.weights[j], 1e-9) << "dims=" << dims;
    }
    EXPECT_NEAR(fit.bias, truth.bias, 1e-9) << "dims=" << dims;
  }
}

TEST(LinearRegressorTest, ClosedFormMatchesHandComputed1D) {
  // y = 2x + 1 exactly: the normal equations must return (2, 1).
  const std::vector<double> xs = {0.0, 1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys = {1.0, 3.0, 5.0, 7.0, 9.0};
  LinearRegressor regressor;
  LinearModel fit;
  ASSERT_TRUE(regressor.FitClosedForm(xs, ys, 1, &fit).ok());
  EXPECT_NEAR(fit.weights[0], 2.0, 1e-12);
  EXPECT_NEAR(fit.bias, 1.0, 1e-12);
  EXPECT_NEAR(fit.Predict(std::span<const double>(&xs[3], 1)), 7.0, 1e-10);
}

TEST(LinearRegressorTest, ClosedFormRejectsBadShapesAndSingularSystems) {
  LinearRegressor regressor;
  LinearModel fit;
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {1.0, 2.0};
  EXPECT_EQ(regressor.FitClosedForm(xs, ys, 2, &fit).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(regressor.FitClosedForm({}, {}, 1, &fit).code(),
            StatusCode::kInvalidArgument);
  // One point cannot pin down slope and intercept.
  const std::vector<double> one_x = {1.0};
  const std::vector<double> one_y = {2.0};
  EXPECT_EQ(regressor.FitClosedForm(one_x, one_y, 1, &fit).code(),
            StatusCode::kFailedPrecondition);
  // Constant feature column: collinear with the bias column.
  const std::vector<double> const_x = {3.0, 3.0, 3.0, 3.0};
  const std::vector<double> any_y = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(regressor.FitClosedForm(const_x, any_y, 1, &fit).code(),
            StatusCode::kFailedPrecondition);
}

// Gathers the rows named by `rows` out of a flat [x..., y] block into
// separate fit buffers: the copy FitRowsInPlace replaces.
void GatherRows(const std::vector<double>& obs, size_t width,
                const std::vector<size_t>& rows, std::vector<double>* xs,
                std::vector<double>* ys) {
  const size_t dims = width - 1;
  xs->clear();
  ys->clear();
  for (size_t r : rows) {
    const double* row = obs.data() + r * width;
    xs->insert(xs->end(), row, row + dims);
    ys->push_back(row[dims]);
  }
}

// FitRowsInPlace against gather + FitClosedForm: the same status (code and
// message), weights and bias bits, over random selections with repeats
// (rows drawn with replacement), selections too small to fit and a
// selection of one repeated row, which leave the system singular. One warm
// regressor per side, as in the refit loop.
TEST(LinearRegressorTest, InPlaceFitMatchesGatheredClosedFormBitForBit) {
  for (size_t dims : {1u, 3u, 8u}) {
    SCOPED_TRACE("dims=" + std::to_string(dims));
    const size_t width = dims + 1;
    const size_t n = 120;
    const RegressionData data = MakeSyntheticRegression(n, dims, 0.3, dims);
    std::vector<double> obs;
    for (size_t r = 0; r < n; ++r) {
      obs.insert(obs.end(), data.xs.begin() + r * dims,
                 data.xs.begin() + (r + 1) * dims);
      obs.push_back(data.ys[r]);
    }
    LinearRegressor in_place;
    LinearRegressor gathered;
    Rng rng(900 + dims);
    std::vector<double> xs;
    std::vector<double> ys;
    size_t singular = 0;
    for (int trial = 0; trial < 60; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      std::vector<size_t> rows;
      if (trial % 10 == 9) {
        rows.assign(dims + 2, static_cast<size_t>(rng.UniformInt(n)));
      } else {
        const size_t count =
            trial % 10 == 8 ? dims
                            : 1 + static_cast<size_t>(rng.UniformInt(2 * n));
        for (size_t k = 0; k < count; ++k) {
          rows.push_back(static_cast<size_t>(rng.UniformInt(n)));
        }
      }
      GatherRows(obs, width, rows, &xs, &ys);
      LinearModel want;
      LinearModel got;
      const Status want_status = gathered.FitClosedForm(xs, ys, dims, &want);
      const Status got_status = in_place.FitRowsInPlace(obs, width, rows, &got);
      ASSERT_EQ(got_status.code(), want_status.code());
      EXPECT_EQ(got_status.ToString(), want_status.ToString());
      if (!want_status.ok()) {
        EXPECT_EQ(want_status.code(), StatusCode::kFailedPrecondition);
        ++singular;
        continue;
      }
      ASSERT_EQ(got.weights.size(), dims);
      for (size_t j = 0; j < dims; ++j) {
        EXPECT_TRUE(SameBits(got.weights[j], want.weights[j]))
            << "weight " << j;
      }
      EXPECT_TRUE(SameBits(got.bias, want.bias));
    }
    EXPECT_GE(singular, 12u);  // every too-small and one-row selection
  }
}

// Line-by-line replica of the generic accumulate-and-solve loop that every
// width ran before the fixed 1-4 feature accumulations: one sequential
// load/add/store pass per cell, then elimination with partial pivoting.
// Frozen here so the fit's bits stay pinned whatever the library's loop
// becomes. Both entries keep their shape checks and messages.
class LegacyRegressor {
 public:
  Status FitClosedForm(const std::vector<double>& xs,
                       const std::vector<double>& ys, size_t dims,
                       LinearModel* out) {
    if (dims == 0) return Status::InvalidArgument("FitClosedForm: dims == 0");
    const size_t n = ys.size();
    if (n == 0) return Status::InvalidArgument("FitClosedForm: no rows");
    if (xs.size() != n * dims) {
      return Status::InvalidArgument(
          "FitClosedForm: xs must hold ys.size() * dims doubles");
    }
    return Solve(
        n, dims,
        [&](size_t r) {
          return std::pair<const double*, double>(xs.data() + r * dims, ys[r]);
        },
        out);
  }

  Status FitRowsInPlace(const std::vector<double>& obs, size_t width,
                        const std::vector<size_t>& rows, LinearModel* out) {
    if (width < 2) {
      return Status::InvalidArgument("FitRowsInPlace: width must be >= 2");
    }
    if (rows.empty()) {
      return Status::InvalidArgument("FitRowsInPlace: no rows");
    }
    const size_t obs_rows = obs.size() / width;
    if (obs.size() != obs_rows * width ||
        *std::max_element(rows.begin(), rows.end()) >= obs_rows) {
      return Status::InvalidArgument(
          "FitRowsInPlace: rows must name whole rows of obs");
    }
    const size_t dims = width - 1;
    return Solve(
        rows.size(), dims,
        [&](size_t r) {
          const double* row = obs.data() + rows[r] * width;
          return std::pair<const double*, double>(row, row[dims]);
        },
        out);
  }

 private:
  template <typename RowAt>
  Status Solve(size_t n, size_t dims, RowAt row_at, LinearModel* out) {
    const size_t aug = dims + 1;
    normal_.assign(aug * aug, 0.0);
    rhs_.assign(aug, 0.0);
    double* normal = normal_.data();
    double* rhs = rhs_.data();
    for (size_t r = 0; r < n; ++r) {
      const auto [x, y] = row_at(r);
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
    for (size_t i = 0; i < aug; ++i) {
      for (size_t j = 0; j < i; ++j) normal_[i * aug + j] = normal_[j * aug + i];
    }
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
      if (!(best > 1e-12)) {
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

  std::vector<double> normal_;
  std::vector<double> rhs_;
};

// The value shapes the replica comparison draws observation blocks from.
enum class Values {
  kNoisy,        // uniform features, a noisy linear response
  kSignedZeros,  // a third of all values +0, a third -0
  kHugeTiny,     // magnitudes near 1e+150 and 1e-150 beside ordinary ones
  kNanRow,       // one row with a NaN feature
  kInfRow,       // one row with an infinite feature
  kCollinear,    // the last feature a multiple of the first: singular
};

// A flat [x_0..x_{dims-1}, y] block of `n` rows of the given shape. The
// NaN or inf row, if any, is row `special`.
std::vector<double> MakeBlock(Values values, size_t dims, size_t n,
                              size_t special, Rng* rng) {
  const size_t width = dims + 1;
  std::vector<double> obs(n * width);
  for (size_t r = 0; r < n; ++r) {
    double* row = obs.data() + r * width;
    double y = 0.25;
    for (size_t j = 0; j < dims; ++j) {
      double v = rng->Uniform(-1.0, 1.0);
      if (values == Values::kSignedZeros) {
        const uint64_t pick = rng->UniformInt(3);
        if (pick == 0) v = 0.0;
        if (pick == 1) v = -0.0;
      } else if (values == Values::kHugeTiny) {
        const uint64_t pick = rng->UniformInt(3);
        if (pick == 0) v *= 1e150;
        if (pick == 1) v *= 1e-150;
      }
      row[j] = v;
      y += (0.5 + static_cast<double>(j)) * v;
    }
    if (values == Values::kCollinear) row[dims - 1] = 3.0 * row[0];
    y += 0.1 * rng->Normal();
    if (values == Values::kSignedZeros && rng->UniformInt(3) == 0) y = -0.0;
    row[dims] = y;
  }
  if (values == Values::kNanRow) {
    obs[special * width + (dims - 1)] = std::numeric_limits<double>::quiet_NaN();
  }
  if (values == Values::kInfRow) {
    obs[special * width] = std::numeric_limits<double>::infinity();
  }
  return obs;
}

// Both closed-form entries against the frozen replica: the same Status code
// and message, and the same weight and bias bits (a sentinel `out` on every
// error must come back untouched on both sides). Dims 1-4 are the fixed
// accumulations, 5 and 6 the generic loop; one warm regressor per side
// serves every width in turn, as a fleet's regressors do.
TEST(LinearRegressorTest, FitsMatchFrozenGenericLoopBitForBit) {
  const Values kShapes[] = {Values::kNoisy,  Values::kSignedZeros,
                            Values::kHugeTiny, Values::kNanRow,
                            Values::kInfRow, Values::kCollinear};
  LinearRegressor regressor;
  LegacyRegressor legacy;
  Rng rng(2029);
  size_t compared = 0;
  size_t solved[std::size(kShapes)] = {};  // per shape, of 96 fits each
  for (size_t dims = 1; dims <= 6; ++dims) {
    const size_t width = dims + 1;
    for (size_t n : {dims + 1, size_t{17}, size_t{495}, size_t{550}}) {
      for (Values values : kShapes) {
        const size_t special = static_cast<size_t>(rng.UniformInt(n));
        const std::vector<double> obs =
            MakeBlock(values, dims, n, special, &rng);
        for (bool repeats : {false, true}) {
          SCOPED_TRACE("dims=" + std::to_string(dims) + " n=" +
                       std::to_string(n) + " shape=" +
                       std::to_string(static_cast<int>(values)) +
                       (repeats ? " with repeats" : " shuffled"));
          // A shuffled permutation of every row, or n draws with
          // replacement that still name the special row once.
          std::vector<size_t> rows(n);
          for (size_t r = 0; r < n; ++r) {
            rows[r] = repeats ? static_cast<size_t>(rng.UniformInt(n)) : r;
          }
          if (repeats) {
            rows[static_cast<size_t>(rng.UniformInt(n))] = special;
          } else {
            for (size_t r = n; r-- > 1;) {
              std::swap(rows[r], rows[static_cast<size_t>(rng.UniformInt(r + 1))]);
            }
          }
          std::vector<double> xs;
          std::vector<double> ys;
          GatherRows(obs, width, rows, &xs, &ys);
          for (bool in_place : {true, false}) {
            LinearModel got{std::vector<double>(dims, 42.0), -7.0};
            LinearModel want = got;
            const Status got_status =
                in_place ? regressor.FitRowsInPlace(obs, width, rows, &got)
                         : regressor.FitClosedForm(xs, ys, dims, &got);
            const Status want_status =
                in_place ? legacy.FitRowsInPlace(obs, width, rows, &want)
                         : legacy.FitClosedForm(xs, ys, dims, &want);
            ASSERT_EQ(got_status.code(), want_status.code());
            EXPECT_EQ(got_status.ToString(), want_status.ToString());
            ASSERT_EQ(got.weights.size(), want.weights.size());
            for (size_t j = 0; j < dims; ++j) {
              EXPECT_TRUE(SameBits(got.weights[j], want.weights[j]))
                  << (in_place ? "in place" : "closed form") << " weight "
                  << j << ": " << got.weights[j] << " vs " << want.weights[j];
            }
            EXPECT_TRUE(SameBits(got.bias, want.bias))
                << (in_place ? "in place" : "closed form") << " bias "
                << got.bias << " vs " << want.bias;
            ++compared;
            if (want_status.ok()) ++solved[static_cast<size_t>(values)];
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 6u * 4u * 6u * 2u * 2u);
  // Most ordinary sets solve, so their weight bits are compared. The NaN
  // and inf rows poison a pivot, and most collinear sets from 2 features up
  // are refused (3 * x_0 rounds, so a few pass the pivot floor): those
  // compare the singular Status and the untouched sentinel.
  for (Values values :
       {Values::kNoisy, Values::kSignedZeros, Values::kHugeTiny}) {
    EXPECT_GE(solved[static_cast<size_t>(values)], 72u);
  }
  EXPECT_EQ(solved[static_cast<size_t>(Values::kNanRow)], 0u);
  EXPECT_EQ(solved[static_cast<size_t>(Values::kInfRow)], 0u);
  EXPECT_LE(solved[static_cast<size_t>(Values::kCollinear)], 32u);
}

TEST(LinearRegressorTest, InPlaceFitRejectsBadShapes) {
  LinearRegressor regressor;
  LinearModel fit;
  const std::vector<double> obs = {0.0, 1.0, 1.0, 3.0, 2.0, 5.0};
  const std::vector<size_t> rows = {0, 1, 2};
  ASSERT_TRUE(regressor.FitRowsInPlace(obs, 2, rows, &fit).ok());
  EXPECT_EQ(regressor.FitRowsInPlace(obs, 1, rows, &fit).code(),
            StatusCode::kInvalidArgument);  // no response column
  EXPECT_EQ(regressor.FitRowsInPlace(obs, 2, {}, &fit).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(regressor.FitRowsInPlace(obs, 4, rows, &fit).code(),
            StatusCode::kInvalidArgument);  // not whole rows
  const std::vector<size_t> past_end = {0, 1, 3};
  EXPECT_EQ(regressor.FitRowsInPlace(obs, 2, past_end, &fit).code(),
            StatusCode::kInvalidArgument);
  // An index past the end at the first, a middle or the last position
  // stops the pass with InvalidArgument before `out` is written, at a
  // fixed width (2 features) and at the generic one (5).
  Rng rng(12);
  for (size_t features : {2u, 5u}) {
    const size_t width = features + 1;
    const std::vector<double> block =
        MakeBlock(Values::kNoisy, features, 12, 0, &rng);
    for (size_t position : {0u, 6u, 11u}) {
      SCOPED_TRACE("features=" + std::to_string(features) +
                   " position=" + std::to_string(position));
      std::vector<size_t> rows(12);
      for (size_t r = 0; r < rows.size(); ++r) rows[r] = r;
      rows[position] = 12;
      LinearModel sentinel{std::vector<double>(features, 42.0), -7.0};
      const Status status =
          regressor.FitRowsInPlace(block, width, rows, &sentinel);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(status.message(),
                "FitRowsInPlace: rows must name whole rows of obs");
      ASSERT_EQ(sentinel.weights.size(), features);
      for (double w : sentinel.weights) EXPECT_TRUE(SameBits(w, 42.0));
      EXPECT_TRUE(SameBits(sentinel.bias, -7.0));
    }
  }
}

TEST(FlipShiftPoisonTest, AppendsTailRowsFlippedAcrossReference) {
  LinearModel truth;
  RegressionData data =
      MakeSyntheticRegression(250, 3, /*noise=*/0.1, 31, &truth);
  LinearRegressor regressor;
  LinearModel reference;
  ASSERT_TRUE(
      regressor.FitClosedForm(data.xs, data.ys, data.dims, &reference).ok());
  const size_t clean = data.size();
  const double eps = 0.12;
  const double shift = 3.0;
  Rng rng(55);
  const size_t poison = FlipShiftPoison(&data, reference, eps, shift, &rng);
  EXPECT_EQ(poison, static_cast<size_t>(
                        std::floor(eps * static_cast<double>(clean))));
  ASSERT_EQ(data.size(), clean + poison);
  for (size_t p = clean; p < data.size(); ++p) {
    const double* x = data.xs.data() + p * data.dims;
    const double resid =
        std::fabs(data.ys[p] - reference.Predict({x, data.dims}));
    // Each poison residual is the donor's residual plus the shift, so it
    // can never be closer to the reference than `shift`.
    EXPECT_GE(resid, shift - 1e-9) << "p=" << p;
  }
  // eps <= 0 appends nothing.
  RegressionData copy = data;
  EXPECT_EQ(FlipShiftPoison(&copy, reference, 0.0, shift, &rng), 0u);
  EXPECT_EQ(copy.size(), data.size());
}

// The golden refit-loop oracle: five points exactly on y = 2x + 1 plus one
// gross outlier. With eps_hat = 0.2 the keep budget is exactly the five
// clean points, so regardless of the random initial subset the loop must
// converge to the clean line, keep exactly the clean indices, and report a
// (numerically) zero kept MSE.
TEST(TrimDefenseTest, GoldenRefitLoopMatchesHandComputed1DOracle) {
  RegressionData data;
  data.dims = 1;
  data.xs = {0.0, 1.0, 2.0, 3.0, 4.0, 2.0};
  data.ys = {1.0, 3.0, 5.0, 7.0, 9.0, 100.0};
  TrimOptions options;
  options.eps_hat = 0.2;  // keep_n = floor(6 / 1.2) = 5
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    auto result = TrimDefense(data, options, &rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const TrimResult& trim = result.ValueOrDie();
    ASSERT_EQ(trim.kept.size(), 5u) << "seed=" << seed;
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(trim.kept[i], i) << "seed=" << seed;
    }
    EXPECT_NEAR(trim.model.weights[0], 2.0, 1e-9) << "seed=" << seed;
    EXPECT_NEAR(trim.model.bias, 1.0, 1e-9) << "seed=" << seed;
    EXPECT_LT(trim.kept_mse, 1e-12) << "seed=" << seed;
    // Full MSE is dominated by the outlier: (100 - 5)^2 / 6 by hand.
    EXPECT_NEAR(trim.full_mse, 95.0 * 95.0 / 6.0, 1e-6) << "seed=" << seed;
    EXPECT_GE(trim.iterations, 1) << "seed=" << seed;
  }
}

TEST(TrimDefenseTest, RejectsBadOptions) {
  RegressionData data = MakeSyntheticRegression(50, 1, 0.1, 9);
  Rng rng(1);
  TrimOptions options;
  options.eps_hat = 1.0;
  EXPECT_EQ(TrimDefense(data, options, &rng).status().code(),
            StatusCode::kInvalidArgument);
  options.eps_hat = -0.1;
  EXPECT_EQ(TrimDefense(data, options, &rng).status().code(),
            StatusCode::kInvalidArgument);
  options.eps_hat = 0.1;
  options.max_iters = 0;
  EXPECT_EQ(TrimDefense(data, options, &rng).status().code(),
            StatusCode::kInvalidArgument);
  options.max_iters = 20;
  EXPECT_EQ(TrimDefense(data, options, nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace itrim
