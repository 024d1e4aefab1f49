#include "ldp/frequency.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace itrim {
namespace {

// Zipf-ish truth over a small domain.
std::vector<double> MakeTruth(size_t domain) {
  std::vector<double> truth(domain);
  double total = 0.0;
  for (size_t v = 0; v < domain; ++v) {
    truth[v] = 1.0 / static_cast<double>(v + 1);
    total += truth[v];
  }
  for (double& t : truth) t /= total;
  return truth;
}

size_t SampleItem(const std::vector<double>& truth, Rng* rng) {
  return rng->Categorical(truth);
}

std::vector<double> EstimateHonest(const OueOracle& oracle,
                                   const std::vector<double>& truth, size_t n,
                                   Rng* rng) {
  ReportAggregator agg(oracle.domain());
  for (size_t i = 0; i < n; ++i) {
    agg.Add(oracle.Perturb(SampleItem(truth, rng), rng));
  }
  return oracle.Estimate(agg.bit_counts(), agg.count());
}

TEST(OueTest, Validation) {
  EXPECT_FALSE(OueOracle::Make(1, 1.0).ok());
  EXPECT_FALSE(OueOracle::Make(8, -1.0).ok());
  EXPECT_TRUE(OueOracle::Make(8, 1.0).ok());
}

TEST(OueTest, EstimatesAreUnbiased) {
  auto oracle = OueOracle::Make(8, 1.0).ValueOrDie();
  auto truth = MakeTruth(8);
  Rng rng(4);
  auto estimate = EstimateHonest(oracle, truth, 100000, &rng);
  for (size_t v = 0; v < truth.size(); ++v) {
    EXPECT_NEAR(estimate[v], truth[v], 0.02) << "v=" << v;
  }
}

TEST(OueTest, ColdBitRateMatchesQ) {
  auto oracle = OueOracle::Make(16, 2.0).ValueOrDie();
  Rng rng(5);
  int cold_hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    auto report = oracle.Perturb(0, &rng);
    cold_hits += report[7];
  }
  EXPECT_NEAR(static_cast<double>(cold_hits) / n, oracle.q(), 0.01);
}

TEST(AggregatorTest, CountsBits) {
  ReportAggregator agg(3);
  agg.Add({1, 0, 1});
  agg.Add({0, 0, 1});
  EXPECT_EQ(agg.count(), 2u);
  EXPECT_EQ(agg.bit_counts()[0], 1u);
  EXPECT_EQ(agg.bit_counts()[1], 0u);
  EXPECT_EQ(agg.bit_counts()[2], 2u);
}

TEST(MgaTest, InflatesTargetsUnderOue) {
  const size_t domain = 16;
  auto oracle = OueOracle::Make(domain, 1.0).ValueOrDie();
  auto truth = MakeTruth(domain);
  std::vector<size_t> targets = {13, 14, 15};  // unpopular items
  Rng rng(6);
  MaximalGainAttack attack(targets);

  ReportAggregator agg(domain);
  const size_t honest = 20000, attackers = 1000;
  for (size_t i = 0; i < honest; ++i) {
    agg.Add(oracle.Perturb(SampleItem(truth, &rng), &rng));
  }
  for (size_t i = 0; i < attackers; ++i) {
    agg.Add(attack.PoisonReport(oracle, &rng));
  }
  auto estimate = oracle.Estimate(agg.bit_counts(), agg.count());
  double gain = FrequencyGain(estimate, truth, targets);
  // Each attacker contributes roughly 1/(n(p - q)) per target; with 5%
  // attackers and 3 targets the joint gain is substantial.
  EXPECT_GT(gain, 0.15);
}

TEST(MgaTest, StrongerThanInputManipulation) {
  const size_t domain = 16;
  auto oracle = OueOracle::Make(domain, 1.0).ValueOrDie();
  auto truth = MakeTruth(domain);
  std::vector<size_t> targets = {15};
  auto run = [&](FrequencyAttack& attack) {
    Rng rng(7);
    ReportAggregator agg(domain);
    for (size_t i = 0; i < 20000; ++i) {
      agg.Add(oracle.Perturb(SampleItem(truth, &rng), &rng));
    }
    for (size_t i = 0; i < 1000; ++i) {
      agg.Add(attack.PoisonReport(oracle, &rng));
    }
    auto estimate = oracle.Estimate(agg.bit_counts(), agg.count());
    return FrequencyGain(estimate, truth, targets);
  };
  MaximalGainAttack mga(targets);
  FrequencyInputManipulation evasive(targets);
  EXPECT_GT(run(mga), run(evasive));
  EXPECT_GT(run(evasive), 0.0);  // the evasive attack still gains
}

TEST(MgaTest, OueReportSetsExactlyTheTargetBits) {
  auto oracle = OueOracle::Make(8, 1.0).ValueOrDie();
  Rng rng(8);
  const Rng::Snapshot before = rng.Save();
  // Target 9 is outside the domain and is ignored.
  MaximalGainAttack attack({2, 5, 9});
  EXPECT_EQ(attack.PoisonReport(oracle, &rng),
            (std::vector<uint8_t>{0, 0, 1, 0, 0, 1, 0, 0}));
  MaximalGainAttack no_targets({});
  EXPECT_EQ(no_targets.PoisonReport(oracle, &rng),
            std::vector<uint8_t>(8, 0));
  // The report is deterministic: no Rng draw.
  const Rng::Snapshot after = rng.Save();
  EXPECT_EQ(after.state, before.state);
  EXPECT_EQ(after.have_cached_normal, before.have_cached_normal);
  EXPECT_EQ(after.cached_normal, before.cached_normal);
}

TEST(TrimOueTest, DropsMultiTargetForgeries) {
  const size_t domain = 32;
  auto oracle = OueOracle::Make(domain, 1.0).ValueOrDie();
  auto truth = MakeTruth(domain);
  Rng rng(9);
  std::vector<std::vector<uint8_t>> reports;
  for (size_t i = 0; i < 2000; ++i) {
    reports.push_back(oracle.Perturb(SampleItem(truth, &rng), &rng));
  }
  // MGA forgeries claiming 24 targets at once: far more set bits than any
  // plausible honest report (honest OUE reports at eps=1 average ~9 of the
  // 32 bits; the 4-sigma cutoff sits near 18).
  std::vector<size_t> targets(24);
  for (size_t t = 0; t < targets.size(); ++t) targets[t] = domain - 1 - t;
  MaximalGainAttack attack(targets);
  size_t poison_start = reports.size();
  for (size_t i = 0; i < 200; ++i) {
    reports.push_back(attack.PoisonReport(oracle, &rng));
  }
  auto keep = TrimOueReports(reports, oracle);
  size_t honest_kept = 0, poison_kept = 0;
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i < poison_start) {
      honest_kept += keep[i];
    } else {
      poison_kept += keep[i];
    }
  }
  EXPECT_GT(static_cast<double>(honest_kept) / poison_start, 0.99);
  EXPECT_EQ(poison_kept, 0u);
}

TEST(TrimOueTest, EvasiveForgeriesSurvive) {
  // Input-manipulation reports are protocol-compliant, so the structural
  // trim cannot remove them — the evasion property that motivates the
  // paper's game-theoretic treatment.
  const size_t domain = 32;
  auto oracle = OueOracle::Make(domain, 1.0).ValueOrDie();
  Rng rng(10);
  FrequencyInputManipulation attack({31});
  std::vector<std::vector<uint8_t>> reports;
  for (size_t i = 0; i < 500; ++i) {
    reports.push_back(attack.PoisonReport(oracle, &rng));
  }
  auto keep = TrimOueReports(reports, oracle);
  size_t kept = 0;
  for (char k : keep) kept += k;
  EXPECT_GT(static_cast<double>(kept) / reports.size(), 0.95);
}

TEST(FrequencyGainTest, SumsTargetDeltas) {
  std::vector<double> est = {0.5, 0.3, 0.2};
  std::vector<double> truth = {0.6, 0.2, 0.2};
  EXPECT_DOUBLE_EQ(FrequencyGain(est, truth, {0, 1}), 0.0);
  EXPECT_DOUBLE_EQ(FrequencyGain(est, truth, {1}), 0.1);
  EXPECT_DOUBLE_EQ(FrequencyGain(est, truth, {9}), 0.0);  // out of range
}

// Property sweep: the oracle stays unbiased across epsilon.
class FrequencySweepTest : public ::testing::TestWithParam<double> {};

TEST_P(FrequencySweepTest, UnbiasedAcrossEpsilon) {
  const double epsilon = GetParam();
  const size_t domain = 8;
  auto truth = MakeTruth(domain);
  Rng rng(11);
  auto oracle = OueOracle::Make(domain, epsilon).ValueOrDie();
  std::vector<double> estimate = EstimateHonest(oracle, truth, 150000, &rng);
  for (size_t v = 0; v < domain; ++v) {
    EXPECT_NEAR(estimate[v], truth[v], 0.03)
        << "oue eps=" << epsilon << " v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Oue, FrequencySweepTest,
                         ::testing::Values(0.5, 2.0, 4.0));

}  // namespace
}  // namespace itrim
