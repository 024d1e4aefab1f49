// Distance-based sanitization (trimming) primitives.
//
// The defender computes a score d_i per data point and removes points with
// d_i above a threshold θ_d (Kloft & Laskov). Three variants are provided:
//
//  * TrimAboveValue      — scalar data, explicit cutoff value.
//  * TrimAtReferencePercentile — cutoff = percentile of a reference
//    distribution (the public board), applied to the incoming round.
//  * TrimTopFraction     — remove the top (1-q) mass fraction of the round
//    itself (the `prctile`-on-received semantics; robust to percentile atoms).
#ifndef ITRIM_GAME_TRIMMER_H_
#define ITRIM_GAME_TRIMMER_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"

namespace itrim {

/// \brief Result of trimming one batch: kept mask plus bookkeeping.
struct TrimOutcome {
  /// keep[i] is true iff element i survived.
  std::vector<char> keep;
  size_t kept_count = 0;
  size_t removed_count = 0;
  /// The cutoff value actually applied (+inf when nothing was trimmed).
  double cutoff = 0.0;
};

/// \brief Removes values strictly above `cutoff`.
TrimOutcome TrimAboveValue(std::span<const double> values, double cutoff);

/// \brief TrimAboveValue into caller-owned storage: `out`'s keep mask is
/// overwritten in place, so a warm TrimOutcome makes repeated trims
/// allocation-free (the streaming round loop's steady state). The masking
/// loop runs through the dispatched kernels (game/kernels.h).
void TrimAboveValueInto(std::span<const double> values, double cutoff,
                        TrimOutcome* out);

/// \brief Removes values strictly above the q-quantile of `reference`.
/// Requires a non-empty reference.
Result<TrimOutcome> TrimAtReferencePercentile(
    std::span<const double> values, const std::vector<double>& reference,
    double q);

/// \brief Removes exactly the ceil((1-q)*n) largest values of the round
/// itself (ties broken by position). q >= 1 keeps everything.
TrimOutcome TrimTopFraction(std::span<const double> values, double q);

/// \brief TrimTopFraction into caller-owned storage. `idx_scratch` holds the
/// partial-sort index permutation between calls; both it and `out` keep
/// their capacity, so a warm pair makes repeated trims allocation-free.
void TrimTopFractionInto(std::span<const double> values, double q,
                         std::vector<size_t>* idx_scratch, TrimOutcome* out);

}  // namespace itrim

#endif  // ITRIM_GAME_TRIMMER_H_
