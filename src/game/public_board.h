// The public board of the infinite collection game (Fig 3).
//
// The collector records data on a board that the adversary can read; both
// parties derive percentile positions from it. The board therefore *is* the
// commonly-known reference distribution that percentile-denominated
// strategies are defined against. The collection games seed it with a clean
// round-0 calibration sample (the same sample Algorithm 1's QE(X0) baseline
// is measured on) and keep that reference fixed: re-recording the trimmed
// survivors would make the reference absorb its own truncation and spiral
// the cutoffs downward, so all round-to-round adaptivity lives in the
// strategies, not in reference drift.
//
// The board therefore has two phases. While building (inside
// ScoreModel::Bootstrap) RecordOne() fills a reservoir of at most
// `capacity` values; Seal() then orders it once, and from then on the board
// is a read-only sorted array answering Quantile()/PercentileRank() through
// the sorted oracles in stats/quantile.h. Recording into a sealed board and
// querying an unsealed one are programming errors (asserted). A reference
// that moves during play belongs behind ReferencePolicy, not in the board.
#ifndef ITRIM_GAME_PUBLIC_BOARD_H_
#define ITRIM_GAME_PUBLIC_BOARD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace itrim {

/// \brief Fixed reference sample: built by reservoir sampling, then sealed
/// into a sorted array for exact quantile queries.
class PublicBoard {
 public:
  /// Creates a board retaining at most `capacity` values (0 = unbounded).
  explicit PublicBoard(size_t capacity = 0, uint64_t seed = 17);

  /// \brief Reserves room for the first `n` records (clamped to the
  /// capacity), so building the board allocates once.
  void Reserve(size_t n);

  /// \brief Records a batch of values. Requires an unsealed board.
  void Record(const std::vector<double>& values);

  /// \brief Records one value; past `capacity`, reservoir sampling keeps
  /// the board an unbiased sample of everything recorded. Requires an
  /// unsealed board.
  void RecordOne(double value);

  /// \brief Orders the held values ascending and freezes the board for
  /// queries.
  ///
  /// The order is stats/order.h's OrderUpperRanks over all ranks: a bucket
  /// scatter plus one insertion pass, which orders a 500-value bootstrap
  /// board in ~5 us where a comparator sort took ~20 us (x86-64, one core
  /// of a 4-vCPU VM). It places the same values at every rank as
  /// std::sort (only -0.0 and +0.0 may trade places), so every query
  /// answers as over a std::sorted board. One call-local copy of the
  /// values is the only scratch.
  void Seal();

  /// \brief q-quantile (q in [0,1]) of the recorded distribution.
  /// Requires a sealed board; returns an error when it is empty.
  Result<double> Quantile(double q) const;

  /// \brief Percentile rank of `x` in [0,1] against the recorded data.
  /// Requires a sealed board.
  double PercentileRank(double x) const;

  /// \brief Fraction of held values >= `x` (0 for a NaN `x` or an empty
  /// board). Requires a sealed board.
  double FractionAtOrAbove(double x) const;

  /// \brief Number of values currently held.
  size_t size() const { return values_.size(); }

  /// \brief Total number of values ever recorded (pre-downsampling).
  size_t total_recorded() const { return total_recorded_; }

  /// \brief All held values: reservoir-slot order while building, ascending
  /// once sealed.
  const std::vector<double>& values() const { return values_; }

  bool sealed() const { return sealed_; }

  /// \brief Drops all records and unseals; the reservoir stream restarts
  /// from the construction seed, so a rebuild repeats the same draws.
  void Clear();

 private:
  size_t capacity_;
  uint64_t seed_;
  bool sealed_ = false;
  size_t total_recorded_ = 0;
  Rng rng_;
  std::vector<double> values_;
};

}  // namespace itrim

#endif  // ITRIM_GAME_PUBLIC_BOARD_H_
