#include "ldp/emf.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.h"
#include "common/rng.h"

namespace itrim {

double ReportModel::InputBinCenter(size_t x) const {
  double width = 2.0 / static_cast<double>(input_bins);
  return -1.0 + (static_cast<double>(x) + 0.5) * width;
}

size_t ReportModel::ReportBinOf(double report) const {
  if (report <= report_lo) return 0;
  if (report >= report_hi) return report_bins - 1;
  double width = (report_hi - report_lo) / static_cast<double>(report_bins);
  size_t idx = static_cast<size_t>((report - report_lo) / width);
  return std::min(idx, report_bins - 1);
}

Result<ReportModel> ReportModel::Build(const LdpMechanism& mechanism,
                                       double report_lo, double report_hi,
                                       size_t input_bins, size_t report_bins,
                                       size_t samples_per_bin,
                                       uint64_t seed) {
  if (!(report_lo < report_hi)) {
    return Status::InvalidArgument("require report_lo < report_hi");
  }
  if (!std::isfinite(report_lo) || !std::isfinite(report_hi)) {
    return Status::InvalidArgument("report bounds must be finite");
  }
  if (input_bins < 2 || report_bins < 2) {
    return Status::InvalidArgument("need >= 2 bins on both axes");
  }
  if (samples_per_bin == 0) {
    return Status::InvalidArgument("samples_per_bin must be > 0");
  }
  ReportModel model;
  model.report_lo = report_lo;
  model.report_hi = report_hi;
  model.report_bins = report_bins;
  model.input_bins = input_bins;
  model.conditional.assign(report_bins * input_bins, 0.0);
  Rng rng(seed);
  for (size_t x = 0; x < input_bins; ++x) {
    double center = model.InputBinCenter(x);
    for (size_t s = 0; s < samples_per_bin; ++s) {
      double report = mechanism.Perturb(center, &rng);
      model.conditional[model.ReportBinOf(report) * input_bins + x] += 1.0;
    }
    // Normalize the column with light smoothing so no report bin has
    // exactly zero honest density (a single stray honest report must not
    // get posterior honesty zero).
    double smooth = 0.5;
    double total = static_cast<double>(samples_per_bin) +
                   smooth * static_cast<double>(report_bins);
    for (size_t r = 0; r < report_bins; ++r) {
      auto& cell = model.conditional[r * input_bins + x];
      cell = (cell + smooth) / total;
    }
  }
  return model;
}

double EmfResult::WeightedMean(const std::vector<double>& values) const {
  if (values.size() != weights.size() || values.empty()) return 0.0;
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    num += weights[i] * values[i];
    den += weights[i];
  }
  return den > 0.0 ? num / den : 0.0;
}

Result<EmfResult> FitEmFilter(const ReportModel& model,
                              const std::vector<double>& reports,
                              const EmfConfig& config) {
  if (reports.empty()) {
    return Status::InvalidArgument("no reports to filter");
  }
  if (model.conditional.size() != model.report_bins * model.input_bins) {
    return Status::InvalidArgument("malformed report model");
  }
  const size_t rb = model.report_bins;
  const size_t ib = model.input_bins;
  const double n = static_cast<double>(reports.size());

  // Report histogram.
  std::vector<double> counts(rb, 0.0);
  std::vector<size_t> report_bin(reports.size());
  for (size_t i = 0; i < reports.size(); ++i) {
    report_bin[i] = model.ReportBinOf(reports[i]);
    counts[report_bin[i]] += 1.0;
  }

  EmfResult result;
  result.attack_frequencies.assign(rb, 0.0);
  result.input_frequencies.assign(ib, 1.0 / static_cast<double>(ib));

  // Phase 1 — maximum-likelihood deconvolution of the input histogram from
  // ALL reports (Richardson-Lucy multiplicative EM). The fit is restricted
  // to the honest manifold {M theta}, so it can only explain report mass
  // that *some* input distribution could have produced. A joint fit with a
  // free attack component is not identifiable (the attack can mimic
  // M theta exactly), hence the two-phase structure.
  std::vector<double> honest(rb, 0.0);  // h = M theta
  std::vector<double> theta_next(ib, 0.0);
  std::vector<double> freqs(rb, 0.0);
  for (size_t r = 0; r < rb; ++r) freqs[r] = counts[r] / n;
  double prev_ll = -std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    ++result.iterations;
    double ll = 0.0;
    for (size_t r = 0; r < rb; ++r) {
      double acc = 0.0;
      for (size_t x = 0; x < ib; ++x) {
        acc += model.conditional[r * ib + x] * result.input_frequencies[x];
      }
      honest[r] = acc;
      if (counts[r] > 0.0 && acc > 0.0) ll += counts[r] * std::log(acc);
    }
    double theta_total = 0.0;
    for (size_t x = 0; x < ib; ++x) {
      double acc = 0.0;
      for (size_t r = 0; r < rb; ++r) {
        if (honest[r] <= 0.0) continue;
        acc += freqs[r] * model.conditional[r * ib + x] / honest[r];
      }
      theta_next[x] = result.input_frequencies[x] * acc;
      theta_total += theta_next[x];
    }
    if (theta_total > 0.0) {
      for (size_t x = 0; x < ib; ++x) {
        result.input_frequencies[x] = theta_next[x] / theta_total;
      }
    }
    if (iter > 0 && ll - prev_ll < config.tolerance) break;
    prev_ll = ll;
  }
  // Refresh h with the converged theta.
  for (size_t r = 0; r < rb; ++r) {
    double acc = 0.0;
    for (size_t x = 0; x < ib; ++x) {
      acc += model.conditional[r * ib + x] * result.input_frequencies[x];
    }
    honest[r] = acc;
  }

  // Phase 2 — off-manifold residual attribution: report mass the best
  // honest explanation cannot account for is attack mass.
  double residual_total = 0.0;
  for (size_t r = 0; r < rb; ++r) {
    double residual = std::max(0.0, freqs[r] - honest[r]);
    result.attack_frequencies[r] = residual;
    residual_total += residual;
  }
  result.beta = Clamp(residual_total, config.beta_floor, config.beta_ceil);
  if (residual_total > 0.0) {
    for (double& a : result.attack_frequencies) a /= residual_total;
  } else {
    result.attack_frequencies.assign(rb, 1.0 / static_cast<double>(rb));
  }

  // Posterior honesty per report bin under the fitted mixture.
  result.weights.resize(reports.size());
  std::vector<double> gamma(rb, 0.0);
  for (size_t r = 0; r < rb; ++r) {
    double attack = result.beta * result.attack_frequencies[r];
    double mix = attack + (1.0 - result.beta) * honest[r];
    gamma[r] = mix > 0.0 ? attack / mix : 0.0;
  }
  for (size_t i = 0; i < reports.size(); ++i) {
    result.weights[i] = 1.0 - gamma[report_bin[i]];
  }
  return result;
}

}  // namespace itrim
