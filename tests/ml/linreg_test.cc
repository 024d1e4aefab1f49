// Linear-regression substrate: closed-form exactness, the in-place fit's
// bit identity with the gathered closed form, SGD determinism,
// the flip-and-shift attack shape, and the golden 1-D refit-loop oracle of
// the Trim defense.
#include "ml/linreg.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
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
