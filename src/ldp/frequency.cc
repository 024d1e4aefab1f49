#include "ldp/frequency.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace itrim {

OueOracle::OueOracle(size_t domain, double epsilon)
    : domain_(domain), q_(1.0 / (std::exp(epsilon) + 1.0)) {}

Result<OueOracle> OueOracle::Make(size_t domain, double epsilon) {
  if (domain < 2) return Status::InvalidArgument("domain must be >= 2");
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  return OueOracle(domain, epsilon);
}

std::vector<uint8_t> OueOracle::Perturb(size_t item, Rng* rng) const {
  assert(item < domain_);
  std::vector<uint8_t> report(domain_, 0);
  for (size_t j = 0; j < domain_; ++j) {
    double keep = j == item ? 0.5 : q_;
    report[j] = rng->Bernoulli(keep) ? 1 : 0;
  }
  return report;
}

std::vector<double> OueOracle::Estimate(const std::vector<size_t>& bit_counts,
                                        size_t n) const {
  assert(bit_counts.size() == domain_);
  std::vector<double> out(domain_, 0.0);
  if (n == 0) return out;
  double dn = static_cast<double>(n);
  for (size_t v = 0; v < domain_; ++v) {
    double observed = static_cast<double>(bit_counts[v]) / dn;
    out[v] = (observed - q_) / (0.5 - q_);
  }
  return out;
}

void ReportAggregator::Add(const std::vector<uint8_t>& report) {
  assert(report.size() == bit_counts_.size());
  for (size_t j = 0; j < report.size(); ++j) {
    if (report[j]) ++bit_counts_[j];
  }
  ++count_;
}

std::vector<uint8_t> MaximalGainAttack::PoisonReport(const OueOracle& oracle,
                                                     Rng*) {
  // Unary encoding: claim every target at once.
  std::vector<uint8_t> report(oracle.domain(), 0);
  for (size_t t : targets_) {
    if (t < report.size()) report[t] = 1;
  }
  return report;
}

std::vector<uint8_t> FrequencyInputManipulation::PoisonReport(
    const OueOracle& oracle, Rng* rng) {
  if (targets_.empty()) return std::vector<uint8_t>(oracle.domain(), 0);
  size_t fake = targets_[rng->UniformInt(targets_.size())];
  return oracle.Perturb(std::min(fake, oracle.domain() - 1), rng);
}

double FrequencyGain(const std::vector<double>& estimated,
                     const std::vector<double>& truth,
                     const std::vector<size_t>& targets) {
  double gain = 0.0;
  for (size_t t : targets) {
    if (t < estimated.size() && t < truth.size()) {
      gain += estimated[t] - truth[t];
    }
  }
  return gain;
}

std::vector<char> TrimOueReports(
    const std::vector<std::vector<uint8_t>>& reports, const OueOracle& oracle,
    double sigma_bound) {
  const double d = static_cast<double>(oracle.domain());
  // Honest set-bit count: 1 hot bit kept w.p. 1/2 plus (d-1) cold bits on
  // w.p. q each.
  double mean = 0.5 + (d - 1.0) * oracle.q();
  double var = 0.25 + (d - 1.0) * oracle.q() * (1.0 - oracle.q());
  double cutoff = mean + sigma_bound * std::sqrt(var);
  std::vector<char> keep(reports.size(), 1);
  for (size_t i = 0; i < reports.size(); ++i) {
    size_t bits = 0;
    for (uint8_t b : reports[i]) bits += b;
    if (static_cast<double>(bits) > cutoff) keep[i] = 0;
  }
  return keep;
}

}  // namespace itrim
