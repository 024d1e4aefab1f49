#include "game/quality.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "game/kernels.h"

namespace itrim {

namespace {

// Fraction of `values` strictly above `cutoff`.
double FractionAbove(std::span<const double> values, double cutoff) {
  if (values.empty()) return 0.0;
  size_t count = kernels::CountGreater(values.data(), values.size(), cutoff);
  return static_cast<double>(count) / static_cast<double>(values.size());
}

// Fraction of `values` at or above `cutoff` (atoms at the cutoff included:
// poison injected exactly at a band edge must count toward that band).
double FractionAtOrAbove(std::span<const double> values, double cutoff) {
  if (values.empty()) return 0.0;
  size_t count = kernels::CountAtLeast(values.data(), values.size(), cutoff);
  return static_cast<double>(count) / static_cast<double>(values.size());
}

}  // namespace

double TailMassQuality::Evaluate(std::span<const double> round_values,
                                 const PublicBoard& board) {
  auto q = board.Quantile(tth_);
  if (!q.ok()) return 1.0;  // no reference yet: assume clean
  double observed = FractionAbove(round_values, *q);
  double expected = 1.0 - tth_;
  return Clamp(1.0 - std::max(0.0, observed - expected), 0.0, 1.0);
}

double DefectShareQuality::Evaluate(std::span<const double> round_values,
                                    const PublicBoard& board) {
  if (round_values.empty() || board.size() == 0) return 1.0;
  double lo_cut, hi_cut, expected_band, expected_tail;
  if (mode_ == CutoffMode::kBoardQuantile) {
    auto lo = board.Quantile(band_lo_);
    auto hi = board.Quantile(band_hi_);
    if (!lo.ok() || !hi.ok()) return 1.0;
    lo_cut = *lo;
    hi_cut = *hi;
    expected_band = band_hi_ - band_lo_;
    expected_tail = 1.0 - band_hi_;
  } else {
    lo_cut = band_lo_;
    hi_cut = band_hi_;
    // Empirical clean occupancies from the calibration board (binary
    // searches over its sorted values).
    double board_above_lo = board.FractionAtOrAbove(lo_cut);
    double board_above_hi = board.FractionAtOrAbove(hi_cut);
    expected_band = board_above_lo - board_above_hi;
    expected_tail = board_above_hi;
  }
  double n = static_cast<double>(round_values.size());
  // Observed counts: equilibrium tail [hi, inf), defect band [lo, hi).
  double tail = FractionAtOrAbove(round_values, hi_cut) * n;
  double band = FractionAtOrAbove(round_values, lo_cut) * n - tail;
  // Solve for the benign count jointly with the two poison masses: with
  // poison confined to band+tail, the observations satisfy
  //   band = e_band * n_benign + defect,  tail = e_tail * n_benign + equi,
  //   n = n_benign + defect + equi,
  // which pins n_benign = (n - band - tail) / (1 - e_band - e_tail).
  // (Scaling expectations by the raw round size would over-subtract benign
  // mass and bias the defect share toward equilibrium.)
  double denom = 1.0 - expected_band - expected_tail;
  if (denom <= 0.0) return 1.0;
  double n_benign = Clamp((n - band - tail) / denom, 0.0, n);
  double est_defect = std::max(0.0, band - expected_band * n_benign);
  double est_equilibrium = std::max(0.0, tail - expected_tail * n_benign);
  double total = est_defect + est_equilibrium;
  // Below the occupancy sampling-noise floor (~3 binomial standard
  // deviations) there is no evidence of an attack and the defect share
  // would be pure noise: report full quality.
  double noise_floor =
      std::max(0.02 * n,
               3.0 * std::sqrt(n * (expected_band + expected_tail)));
  if (total <= noise_floor) return 1.0;
  return Clamp(1.0 - est_defect / total, 0.0, 1.0);
}

NoisyDefectShareQuality::NoisyDefectShareQuality(
    double band_lo, double band_hi, double sigma0, double sigma_tail,
    uint64_t seed, DefectShareQuality::CutoffMode mode)
    : inner_(band_lo, band_hi, mode), sigma0_(sigma0),
      sigma_tail_(sigma_tail), rng_(seed) {}

double NoisyDefectShareQuality::Evaluate(
    std::span<const double> round_values, const PublicBoard& board) {
  double q = inner_.Evaluate(round_values, board);
  // Estimation noise grows with the equilibrium-tail share (q itself): mass
  // deep in the sparse tail is pinned down by very few benign observations.
  double sigma = sigma0_ + sigma_tail_ * q;
  return Clamp(q + rng_.Normal(0.0, sigma), 0.0, 1.0);
}

}  // namespace itrim
