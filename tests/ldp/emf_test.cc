#include "ldp/emf.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ldp/attacks.h"
#include "ldp/mechanism.h"

namespace itrim {
namespace {

std::vector<double> HonestReports(const LdpMechanism& mech, double x_mean,
                                  size_t n, Rng* rng) {
  std::vector<double> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(mech.Perturb(rng->Uniform(x_mean - 0.3, x_mean + 0.3),
                               rng));
  }
  return out;
}

// Byzantine output manipulation: every poison report sits at the report
// domain's maximum, an atom no honest input distribution produces.
class MaxReportAttack : public LdpAttack {
 public:
  double PoisonReport(const LdpMechanism& mechanism, Rng*) override {
    return mechanism.report_hi();
  }
};

ReportModel BuildModel(const PiecewiseMechanism& mech) {
  return ReportModel::Build(mech, mech.report_lo(), mech.report_hi())
      .ValueOrDie();
}

TEST(ReportModelTest, ValidatesInput) {
  PiecewiseMechanism mech(2.0);
  EXPECT_FALSE(ReportModel::Build(mech, 1.0, -1.0).ok());
  EXPECT_FALSE(ReportModel::Build(mech, -INFINITY, 1.0).ok());
  EXPECT_FALSE(ReportModel::Build(mech, -1.0, 1.0, 1).ok());
  EXPECT_FALSE(ReportModel::Build(mech, -1.0, 1.0, 20, 40, 0).ok());
}

TEST(ReportModelTest, ColumnsAreDistributions) {
  PiecewiseMechanism mech(2.0);
  ReportModel model = BuildModel(mech);
  for (size_t x = 0; x < model.input_bins; ++x) {
    double total = 0.0;
    for (size_t r = 0; r < model.report_bins; ++r) {
      double p = model.conditional[r * model.input_bins + x];
      EXPECT_GT(p, 0.0);  // smoothing keeps everything positive
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ReportModelTest, MassConcentratesNearInput) {
  // Piecewise reports cluster around the true value: the conditional column
  // for input ~0.8 must put more mass on high report bins than low ones.
  PiecewiseMechanism mech(3.0);
  ReportModel model = BuildModel(mech);
  size_t x_hi = model.input_bins - 2;
  double high_mass = 0.0, low_mass = 0.0;
  for (size_t r = 0; r < model.report_bins; ++r) {
    double p = model.conditional[r * model.input_bins + x_hi];
    if (r >= model.report_bins / 2) {
      high_mass += p;
    } else {
      low_mass += p;
    }
  }
  EXPECT_GT(high_mass, 2.0 * low_mass);
}

TEST(ReportModelTest, InputBinCenters) {
  PiecewiseMechanism mech(2.0);
  ReportModel model = BuildModel(mech);
  EXPECT_NEAR(model.InputBinCenter(0), -1.0 + 1.0 / model.input_bins, 1e-12);
  EXPECT_NEAR(model.InputBinCenter(model.input_bins - 1),
              1.0 - 1.0 / model.input_bins, 1e-12);
}

TEST(EmfTest, ValidatesInput) {
  PiecewiseMechanism mech(2.0);
  ReportModel model = BuildModel(mech);
  EXPECT_FALSE(FitEmFilter(model, {}, EmfConfig{}).ok());
  ReportModel broken = model;
  broken.conditional.pop_back();
  EXPECT_FALSE(FitEmFilter(broken, {1.0}, EmfConfig{}).ok());
}

TEST(EmfTest, CleanDataEstimatesLowBeta) {
  PiecewiseMechanism mech(2.0);
  ReportModel model = BuildModel(mech);
  Rng rng(1);
  auto reports = HonestReports(mech, 0.0, 8000, &rng);
  auto fit = FitEmFilter(model, reports, EmfConfig{}).ValueOrDie();
  // Honest reports lie on the manifold {M theta}; only sampling noise can
  // be attributed to the attack component.
  EXPECT_LT(fit.beta, 0.06);
}

TEST(EmfTest, CleanInputHistogramRecoversMean) {
  PiecewiseMechanism mech(2.0);
  ReportModel model = BuildModel(mech);
  Rng rng(2);
  auto reports = HonestReports(mech, 0.4, 8000, &rng);
  auto fit = FitEmFilter(model, reports, EmfConfig{}).ValueOrDie();
  double input_mean = 0.0;
  for (size_t x = 0; x < fit.input_frequencies.size(); ++x) {
    input_mean += fit.input_frequencies[x] * model.InputBinCenter(x);
  }
  EXPECT_NEAR(input_mean, 0.4, 0.1);
}

TEST(EmfTest, DetectsSeparableGeneralAttack) {
  // Output manipulation piles reports at the domain maximum — no honest
  // input distribution can produce that atom, so EMF attributes it to the
  // attack and down-weights it.
  PiecewiseMechanism mech(2.0);
  ReportModel model = BuildModel(mech);
  Rng rng(3);
  auto reports = HonestReports(mech, 0.0, 4000, &rng);
  for (int i = 0; i < 1000; ++i) reports.push_back(mech.report_hi());
  auto fit = FitEmFilter(model, reports, EmfConfig{}).ValueOrDie();
  EXPECT_GT(fit.beta, 0.10);
  double poison_weight = 0.0, honest_weight = 0.0;
  for (size_t i = 0; i < 4000; ++i) honest_weight += fit.weights[i];
  for (size_t i = 4000; i < 5000; ++i) poison_weight += fit.weights[i];
  EXPECT_LT(poison_weight / 1000.0, 0.45);
  EXPECT_GT(honest_weight / 4000.0, 0.75);
}

TEST(EmfTest, FilteredMeanBeatsUnfilteredOnGeneralAttack) {
  PiecewiseMechanism mech(2.0);
  ReportModel model = BuildModel(mech);
  Rng rng(4);
  auto reports = HonestReports(mech, 0.0, 4000, &rng);
  for (int i = 0; i < 800; ++i) reports.push_back(mech.report_hi());
  auto fit = FitEmFilter(model, reports, EmfConfig{}).ValueOrDie();
  double unfiltered = 0.0;
  for (double r : reports) unfiltered += r;
  unfiltered /= static_cast<double>(reports.size());
  double filtered = fit.WeightedMean(reports);
  EXPECT_LT(std::fabs(filtered), std::fabs(unfiltered));
}

TEST(EmfTest, InputManipulationEvadesTheFilter) {
  // The evasive attack perturbs a counterfeit input *through the protocol*,
  // so its reports lie exactly on the honest manifold: EMF absorbs them
  // into theta and keeps their weights high — the failure mode the paper's
  // game-theoretic trimming addresses.
  PiecewiseMechanism mech(2.0);
  ReportModel model = BuildModel(mech);
  MaxReportAttack general;
  InputManipulationAttack evasive(1.0);
  Rng rng(5);

  auto run = [&](LdpAttack& attack) {
    Rng local(6);
    auto reports = HonestReports(mech, 0.0, 4000, &local);
    for (int i = 0; i < 800; ++i) {
      reports.push_back(attack.PoisonReport(mech, &local));
    }
    auto fit = FitEmFilter(model, reports, EmfConfig{}).ValueOrDie();
    double poison_weight = 0.0;
    for (size_t i = 4000; i < 4800; ++i) poison_weight += fit.weights[i];
    return poison_weight / 800.0;  // mean honesty weight of the poison
  };
  double general_weight = run(general);
  double evasive_weight = run(evasive);
  EXPECT_GT(evasive_weight, general_weight + 0.2);
  EXPECT_GT(evasive_weight, 0.7);  // evasive poison passes nearly untouched
}

TEST(EmfTest, WeightsHaveUnitRange) {
  PiecewiseMechanism mech(1.0);
  ReportModel model = BuildModel(mech);
  Rng rng(7);
  auto reports = HonestReports(mech, 0.2, 3000, &rng);
  auto fit = FitEmFilter(model, reports, EmfConfig{}).ValueOrDie();
  for (double w : fit.weights) {
    EXPECT_GE(w, 0.0);
    EXPECT_LE(w, 1.0);
  }
  EXPECT_EQ(fit.weights.size(), reports.size());
}

TEST(EmfResultTest, WeightedMeanEdgeCases) {
  EmfResult r;
  EXPECT_DOUBLE_EQ(r.WeightedMean({1.0}), 0.0);  // size mismatch
  r.weights = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(r.WeightedMean({2.0, 6.0}), 5.0);
}

TEST(EmfTest, HistogramsAreNormalized) {
  PiecewiseMechanism mech(1.5);
  ReportModel model = BuildModel(mech);
  Rng rng(8);
  auto reports = HonestReports(mech, 0.0, 2000, &rng);
  for (int i = 0; i < 500; ++i) reports.push_back(mech.report_hi());
  auto fit = FitEmFilter(model, reports, EmfConfig{}).ValueOrDie();
  double attack_total = 0.0, input_total = 0.0;
  for (double f : fit.attack_frequencies) attack_total += f;
  for (double f : fit.input_frequencies) input_total += f;
  EXPECT_NEAR(attack_total, 1.0, 1e-9);
  EXPECT_NEAR(input_total, 1.0, 1e-9);
}

}  // namespace
}  // namespace itrim
