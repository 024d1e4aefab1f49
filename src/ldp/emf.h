// Expectation-Maximization Filter (EMF) — re-implementation of the baseline
// defense of Du et al., "Differential Aggregation against General Colluding
// Attackers" (ICDE 2023), used as the comparison scheme in Fig 9.
//
// Model: observed reports are a two-component mixture
//     f_obs = (1 - β) · M θ + β · f_attack
// where M is the mechanism's conditional report distribution (known — the
// protocol is public), θ is the unknown *input* histogram of honest users,
// and f_attack is an unknown histogram over the report domain. EM jointly
// estimates θ (a deconvolution step), f_attack and β: honest mass is
// constrained to the manifold {M θ}, so only off-manifold report mass can be
// attributed to the attack.
//
// Built-in limitation (the axis the paper exploits): input-manipulation
// attackers perturb a counterfeit input *through the protocol*, so their
// reports lie exactly on the manifold — the filter attributes them to a
// shifted θ and cannot remove them. Blatant output manipulation (mass piled
// where no honest input could put it) is detected and down-weighted.
#ifndef ITRIM_LDP_EMF_H_
#define ITRIM_LDP_EMF_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "ldp/mechanism.h"

namespace itrim {

/// \brief Discretized conditional report distribution of an LDP mechanism:
/// conditional[r * input_bins + x] = P(report bin r | input bin x).
struct ReportModel {
  double report_lo = 0.0;
  double report_hi = 0.0;
  size_t report_bins = 0;
  size_t input_bins = 0;
  std::vector<double> conditional;

  /// \brief Estimates the model by Monte Carlo: `samples_per_bin`
  /// perturbations of each input-bin center, histogrammed over
  /// [report_lo, report_hi]. Pass finite bounds (clip unbounded domains).
  static Result<ReportModel> Build(const LdpMechanism& mechanism,
                                   double report_lo, double report_hi,
                                   size_t input_bins = 20,
                                   size_t report_bins = 40,
                                   size_t samples_per_bin = 4000,
                                   uint64_t seed = 99);

  /// \brief Center of input bin `x` over the domain [-1, 1].
  double InputBinCenter(size_t x) const;

  /// \brief Report bin index of a report value (clamped).
  size_t ReportBinOf(double report) const;
};

/// \brief EM filter configuration.
struct EmfConfig {
  int max_iterations = 300;  ///< deconvolution EM iterations
  double tolerance = 1e-9;   ///< stop on log-likelihood improvement below
  double beta_floor = 1e-4;  ///< keeps the posterior well-defined
  double beta_ceil = 0.9;
};

/// \brief Fitted mixture and per-report honesty weights.
struct EmfResult {
  double beta = 0.0;  ///< estimated attack fraction
  /// Posterior P(honest | report_i) per input report.
  std::vector<double> weights;
  /// Estimated attack histogram over the report bins (sums to 1).
  std::vector<double> attack_frequencies;
  /// Estimated honest *input* histogram over [-1, 1] (sums to 1).
  std::vector<double> input_frequencies;
  int iterations = 0;

  /// \brief Honesty-weighted mean of `values` (usually the reports, which
  /// are unbiased estimates of the inputs).
  double WeightedMean(const std::vector<double>& values) const;
};

/// \brief Fits the EM filter to `reports` under `model`.
Result<EmfResult> FitEmFilter(const ReportModel& model,
                              const std::vector<double>& reports,
                              const EmfConfig& config);

}  // namespace itrim

#endif  // ITRIM_LDP_EMF_H_
