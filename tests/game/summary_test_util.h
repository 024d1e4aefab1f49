// Shared helpers for the determinism/bit-identity test suites.
//
// Every suite that asserts "these two game streams are the same stream"
// (session_test, session_property_test, session_fleet_test) compares
// GameSummarys field by field at the bit level — one comparator here so a
// new RoundRecord field extends every determinism gate at once.
// bench/bench_fleet.cc keeps its own gtest-free comparison because bench
// binaries do not link GoogleTest.
#ifndef ITRIM_TESTS_GAME_SUMMARY_TEST_UTIL_H_
#define ITRIM_TESTS_GAME_SUMMARY_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "game/session.h"

namespace itrim {

/// \brief Bitwise double equality: NaNs of equal payload compare equal,
/// +0.0 and -0.0 do not — exactly the "same stream" notion the
/// determinism contracts promise.
inline bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// \brief Asserts two game books are bit-identical, field by field.
inline void ExpectSummaryBitIdentical(const GameSummary& a,
                                      const GameSummary& b) {
  EXPECT_EQ(a.termination_round, b.termination_round);
  ASSERT_EQ(a.rounds.size(), b.rounds.size());
  for (size_t i = 0; i < a.rounds.size(); ++i) {
    const RoundRecord& ra = a.rounds[i];
    const RoundRecord& rb = b.rounds[i];
    EXPECT_EQ(ra.round, rb.round) << "round " << i;
    EXPECT_TRUE(BitEqual(ra.collector_percentile, rb.collector_percentile))
        << "collector_percentile, round " << i;
    EXPECT_TRUE(BitEqual(ra.injection_percentile, rb.injection_percentile))
        << "injection_percentile, round " << i;
    EXPECT_TRUE(BitEqual(ra.cutoff, rb.cutoff)) << "cutoff, round " << i;
    EXPECT_TRUE(BitEqual(ra.quality, rb.quality)) << "quality, round " << i;
    EXPECT_EQ(ra.benign_received, rb.benign_received) << "round " << i;
    EXPECT_EQ(ra.poison_received, rb.poison_received) << "round " << i;
    EXPECT_EQ(ra.benign_kept, rb.benign_kept) << "round " << i;
    EXPECT_EQ(ra.poison_kept, rb.poison_kept) << "round " << i;
  }
}

/// \brief A benign scalar data source: n uniform values in [0, 1).
inline std::vector<double> UniformPool(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> pool;
  pool.reserve(n);
  for (size_t i = 0; i < n; ++i) pool.push_back(rng.Uniform());
  return pool;
}

}  // namespace itrim

#endif  // ITRIM_TESTS_GAME_SUMMARY_TEST_UTIL_H_
