// Fuzzing of the sealed PublicBoard against the sorted oracles, across the
// board_capacity reservoir boundary: every capacity from 1 to 64 plus the
// unbounded board (0), each built from streams shorter than, equal to,
// just past and far past the capacity, so the reservoir's replacement
// draws are engaged.
//
// The value streams are adversarial rather than uniform: monotone runs,
// duplicate floods (equal-key ties), and sign-flipping extremes
// (interpolation across huge gaps). Each build is mirrored into an
// independent reservoir replica fed from the same seed; after Seal() the
// board must hold exactly the replica's multiset in ascending order, and
// every Quantile / PercentileRank / FractionAtOrAbove answer must match
// QuantileSorted / PercentileRankSorted / a plain count over the sorted
// replica bit for bit.
//
// ITRIM_BOARD_FUZZ_OPS scales the longest stream per build (default 900).
// The sanitizer CI leg runs a short variant through this knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "game/public_board.h"
#include "stats/quantile.h"

#include "game/summary_test_util.h"

namespace itrim {
namespace {

// Longest stream per build, overridable for the short sanitizer sweep.
size_t FuzzOps() {
  if (const char* env = std::getenv("ITRIM_BOARD_FUZZ_OPS")) {
    int v = std::atoi(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 900;
}

enum class ValuePattern {
  kUniform,
  kAscending,
  kDescending,
  kDuplicateFlood,
  kSignFlipExtremes,
};

std::string PatternName(ValuePattern p) {
  switch (p) {
    case ValuePattern::kUniform:
      return "Uniform";
    case ValuePattern::kAscending:
      return "Ascending";
    case ValuePattern::kDescending:
      return "Descending";
    case ValuePattern::kDuplicateFlood:
      return "DuplicateFlood";
    case ValuePattern::kSignFlipExtremes:
      return "SignFlipExtremes";
  }
  return "Unknown";
}

double DrawValue(ValuePattern pattern, size_t step, Rng* rng) {
  switch (pattern) {
    case ValuePattern::kUniform:
      return rng->Uniform(-4.0, 4.0);
    case ValuePattern::kAscending:
      return static_cast<double>(step) + rng->Uniform() * 0.25;
    case ValuePattern::kDescending:
      return -static_cast<double>(step) - rng->Uniform() * 0.25;
    case ValuePattern::kDuplicateFlood:
      // Five distinct keys only: every query hits equal-key ties.
      return static_cast<double>(rng->UniformInt(5));
    case ValuePattern::kSignFlipExtremes:
      return (step % 2 == 0 ? 1.0 : -1.0) *
             (rng->Bernoulli(0.5) ? 1e300 : 1e-300);
  }
  return 0.0;
}

// Independent transcription of the seed board's reservoir (Algorithm R on
// the board's own Rng stream).
class ReservoirReplica {
 public:
  ReservoirReplica(size_t capacity, uint64_t seed)
      : capacity_(capacity), rng_(seed) {}

  void RecordOne(double value) {
    ++total_;
    if (capacity_ == 0 || values_.size() < capacity_) {
      values_.push_back(value);
    } else {
      size_t j = static_cast<size_t>(rng_.UniformInt(total_));
      if (j < capacity_) values_[j] = value;
    }
  }

  std::vector<double> Sorted() const {
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

 private:
  size_t capacity_;
  size_t total_ = 0;
  Rng rng_;
  std::vector<double> values_;
};

// Exhaustive check of a sealed board against the sorted replica: every
// prctile knot and raw rank as a quantile, and ranks / tail fractions
// probed at the stored values plus nudges on both sides and the
// non-finite edges.
void CheckSealedBoard(const PublicBoard& board,
                      const std::vector<double>& sorted) {
  ASSERT_TRUE(board.sealed());
  ASSERT_EQ(board.values(), sorted);
  if (sorted.empty()) {
    EXPECT_FALSE(board.Quantile(0.5).ok());
    EXPECT_TRUE(BitEqual(board.PercentileRank(0.0), 0.0));
    EXPECT_TRUE(BitEqual(board.FractionAtOrAbove(0.0), 0.0));
    return;
  }
  const size_t n = sorted.size();
  std::vector<double> qs = {0.0, 1.0, 0.5, -0.25, 1.25};
  for (size_t i = 0; i < n; ++i) {
    qs.push_back((static_cast<double>(i) + 0.5) / static_cast<double>(n));
    qs.push_back(static_cast<double>(i) / static_cast<double>(n));
  }
  for (double q : qs) {
    ASSERT_TRUE(
        BitEqual(board.Quantile(q).ValueOrDie(), QuantileSorted(sorted, q)))
        << "q=" << q;
  }
  std::vector<double> xs = {std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::nan("")};
  for (double v : sorted) {
    xs.push_back(v);
    xs.push_back(std::nextafter(v, 1e308));
    xs.push_back(std::nextafter(v, -1e308));
  }
  for (double x : xs) {
    ASSERT_TRUE(
        BitEqual(board.PercentileRank(x), PercentileRankSorted(sorted, x)))
        << "x=" << x;
    size_t at_or_above = 0;
    for (double v : sorted) at_or_above += v >= x ? 1 : 0;
    ASSERT_TRUE(BitEqual(board.FractionAtOrAbove(x),
                         static_cast<double>(at_or_above) /
                             static_cast<double>(n)))
        << "x=" << x;
  }
}

class BoardFuzzTest : public ::testing::TestWithParam<ValuePattern> {};

// One board per capacity, rebuilt after Clear() for each stream length:
// the rebuild restarts the reservoir stream, so each build must match a
// fresh replica of the same seed.
TEST_P(BoardFuzzTest, SealedBoardMatchesSortedOracleAcrossReservoirBoundary) {
  const ValuePattern pattern = GetParam();
  SCOPED_TRACE(PatternName(pattern));
  const size_t ops = FuzzOps();
  for (size_t capacity = 0; capacity <= 64; ++capacity) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    const uint64_t seed = capacity * 31 + 7;
    PublicBoard board(capacity, seed);
    Rng rng(500 + capacity);
    size_t step = 0;
    for (size_t length :
         {size_t{0}, size_t{1}, capacity, capacity + 1, ops}) {
      SCOPED_TRACE("length " + std::to_string(length));
      board.Clear();
      board.Reserve(length);
      ReservoirReplica replica(capacity, seed);
      for (size_t i = 0; i < length; ++i) {
        double v = DrawValue(pattern, step++, &rng);
        board.RecordOne(v);
        replica.RecordOne(v);
      }
      board.Seal();
      EXPECT_EQ(board.total_recorded(), length);
      if (capacity > 0) ASSERT_LE(board.size(), capacity);
      CheckSealedBoard(board, replica.Sorted());
    }
    // The reservoir really did engage on the long stream.
    if (capacity > 0 && capacity < ops) {
      EXPECT_EQ(board.size(), capacity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, BoardFuzzTest,
    ::testing::Values(ValuePattern::kUniform, ValuePattern::kAscending,
                      ValuePattern::kDescending,
                      ValuePattern::kDuplicateFlood,
                      ValuePattern::kSignFlipExtremes),
    [](const auto& info) { return PatternName(info.param); });

}  // namespace
}  // namespace itrim
