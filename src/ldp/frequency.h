// A frequency oracle under LDP and poisoning attacks against it.
//
// The EMF baseline's original setting (Du et al. ICDE'23) and the strongest
// known LDP poisoning results (Cao, Jia & Gong USENIX'21) concern
// *frequency estimation* over a categorical domain. This module provides
// that substrate so the library covers the full context the paper builds
// on:
//
//  * OUE — optimized unary encoding (per-bit randomized response with
//    p = 1/2, q = 1/(e^eps + 1)), with the standard unbiased aggregate
//    correction.
//  * MaximalGainAttack — Byzantine users submit the report that maximizes
//    the estimated frequency of a target item set (the MGA of Cao et al.):
//    the all-targets bit vector.
//  * Input manipulation — attackers feed a counterfeit item through the
//    honest protocol (the evasive variant, as in the mean-estimation game).
#ifndef ITRIM_LDP_FREQUENCY_H_
#define ITRIM_LDP_FREQUENCY_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace itrim {

/// \brief Optimized unary encoding over the item domain {0, ..., domain-1}:
/// one-hot encode, keep the hot bit w.p. 1/2, flip each cold bit on w.p.
/// 1/(e^eps + 1). Reports are bit vectors of length `domain()`.
class OueOracle {
 public:
  /// Requires domain >= 2 and epsilon > 0.
  static Result<OueOracle> Make(size_t domain, double epsilon);

  size_t domain() const { return domain_; }

  /// \brief Perturbs one item into a report.
  std::vector<uint8_t> Perturb(size_t item, Rng* rng) const;

  /// \brief Unbiased frequency estimates from summed reports.
  ///
  /// `bit_counts[j]` is the number of reports with bit j set and `n` the
  /// number of reports. Estimates are de-biased but not clipped, so
  /// poisoning shows up as inflated (possibly > 1 or < 0) frequencies.
  std::vector<double> Estimate(const std::vector<size_t>& bit_counts,
                               size_t n) const;

  double q() const { return q_; }

 private:
  OueOracle(size_t domain, double epsilon);

  size_t domain_;
  double q_;
};

/// \brief Sums reports into per-bit counts.
class ReportAggregator {
 public:
  explicit ReportAggregator(size_t width) : bit_counts_(width, 0) {}

  void Add(const std::vector<uint8_t>& report);
  const std::vector<size_t>& bit_counts() const { return bit_counts_; }
  size_t count() const { return count_; }

 private:
  std::vector<size_t> bit_counts_;
  size_t count_ = 0;
};

/// \brief Poison-report generators against the OUE oracle.
class FrequencyAttack {
 public:
  virtual ~FrequencyAttack() = default;
  virtual std::vector<uint8_t> PoisonReport(const OueOracle& oracle,
                                            Rng* rng) = 0;
};

/// \brief Maximal gain attack (Cao et al.): craft the report that inflates
/// the target items most, i.e. set exactly the target bits (deterministic,
/// maximally effective; out-of-range targets are ignored and no Rng draw is
/// made).
class MaximalGainAttack : public FrequencyAttack {
 public:
  explicit MaximalGainAttack(std::vector<size_t> targets)
      : targets_(std::move(targets)) {}
  std::vector<uint8_t> PoisonReport(const OueOracle& oracle,
                                    Rng* rng) override;

 private:
  std::vector<size_t> targets_;
};

/// \brief Evasive input manipulation: feed a counterfeit target item through
/// the honest protocol (deniable; weaker than MGA).
class FrequencyInputManipulation : public FrequencyAttack {
 public:
  explicit FrequencyInputManipulation(std::vector<size_t> targets)
      : targets_(std::move(targets)) {}
  std::vector<uint8_t> PoisonReport(const OueOracle& oracle,
                                    Rng* rng) override;

 private:
  std::vector<size_t> targets_;
};

/// \brief Frequency gain of an attack: sum over targets of
/// (estimated - true) frequency. The metric Cao et al. optimize.
double FrequencyGain(const std::vector<double>& estimated,
                     const std::vector<double>& truth,
                     const std::vector<size_t>& targets);

/// \brief Detects structurally impossible OUE reports (too many set bits):
/// a simple trimming-style sanitizer for frequency reports. Honest OUE
/// reports have ~1/2 + (d-1)/(e^eps+1) expected set bits; reports beyond
/// `sigma_bound` standard deviations are dropped.
std::vector<char> TrimOueReports(
    const std::vector<std::vector<uint8_t>>& reports, const OueOracle& oracle,
    double sigma_bound = 4.0);

}  // namespace itrim

#endif  // ITRIM_LDP_FREQUENCY_H_
