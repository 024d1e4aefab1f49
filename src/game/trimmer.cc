#include "game/trimmer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "game/kernels.h"
#include "stats/quantile.h"

namespace itrim {

TrimOutcome TrimAboveValue(std::span<const double> values, double cutoff) {
  TrimOutcome out;
  TrimAboveValueInto(values, cutoff, &out);
  return out;
}

void TrimAboveValueInto(std::span<const double> values, double cutoff,
                        TrimOutcome* out) {
  out->cutoff = cutoff;
  out->keep.resize(values.size());
  out->kept_count =
      kernels::MaskAtMost(values.data(), values.size(), cutoff,
                          out->keep.data());
  out->removed_count = values.size() - out->kept_count;
}

Result<TrimOutcome> TrimAtReferencePercentile(
    std::span<const double> values, const std::vector<double>& reference,
    double q) {
  if (reference.empty()) {
    return Status::FailedPrecondition("empty reference distribution");
  }
  if (q >= 1.0) {
    TrimOutcome out;
    out.cutoff = std::numeric_limits<double>::infinity();
    out.keep.assign(values.size(), 1);
    out.kept_count = values.size();
    return out;
  }
  double cutoff = Quantile(reference, q);
  return TrimAboveValue(values, cutoff);
}

TrimOutcome TrimTopFraction(std::span<const double> values, double q) {
  TrimOutcome out;
  std::vector<size_t> idx;
  TrimTopFractionInto(values, q, &idx, &out);
  return out;
}

void TrimTopFractionInto(std::span<const double> values, double q,
                         std::vector<size_t>* idx_scratch, TrimOutcome* out) {
  out->kept_count = 0;
  out->removed_count = 0;
  out->keep.assign(values.size(), 1);
  if (q >= 1.0 || values.empty()) {
    out->cutoff = std::numeric_limits<double>::infinity();
    out->kept_count = values.size();
    return;
  }
  q = std::max(q, 0.0);
  size_t remove = static_cast<size_t>(
      std::ceil((1.0 - q) * static_cast<double>(values.size())));
  remove = std::min(remove, values.size());
  // Partial sort of indices by descending value; remove the top `remove`.
  std::vector<size_t>& idx = *idx_scratch;
  idx.resize(values.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::nth_element(idx.begin(), idx.begin() + static_cast<long>(remove),
                   idx.end(),
                   [&](size_t a, size_t b) { return values[a] > values[b]; });
  out->cutoff = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < remove; ++i) {
    out->keep[idx[i]] = 0;
  }
  // The reported cutoff is the smallest removed value (the effective
  // threshold); fall back to +inf when nothing was removed.
  if (remove > 0) {
    double smallest_removed = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < remove; ++i) {
      smallest_removed = std::min(smallest_removed, values[idx[i]]);
    }
    out->cutoff = smallest_removed;
  }
  out->removed_count = remove;
  out->kept_count = values.size() - remove;
}

}  // namespace itrim
