#include "game/public_board.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "stats/order.h"
#include "stats/quantile.h"

namespace itrim {

PublicBoard::PublicBoard(size_t capacity, uint64_t seed)
    : capacity_(capacity), seed_(seed), rng_(seed) {}

void PublicBoard::Reserve(size_t n) {
  values_.reserve(capacity_ == 0 ? n : std::min(n, capacity_));
}

void PublicBoard::Record(const std::vector<double>& values) {
  for (double v : values) RecordOne(v);
}

void PublicBoard::RecordOne(double value) {
  assert(!sealed_ && "RecordOne() on a sealed board");
  ++total_recorded_;
  if (capacity_ == 0 || values_.size() < capacity_) {
    values_.push_back(value);
  } else {
    // Reservoir sampling keeps the board an unbiased sample of everything
    // ever recorded while bounding memory.
    size_t j = static_cast<size_t>(rng_.UniformInt(total_recorded_));
    if (j < capacity_) values_[j] = value;
  }
}

void PublicBoard::Seal() {
  // Stage the reservoir aside and order it back into the board's own
  // buffer, which keeps its reserved capacity.
  const std::vector<double> staged(values_);
  OrderUpperRanks(staged, /*lo_rank=*/0, values_);
  sealed_ = true;
}

Result<double> PublicBoard::Quantile(double q) const {
  assert(sealed_ && "Quantile() on an unsealed board");
  if (values_.empty()) {
    return Status::FailedPrecondition("public board is empty");
  }
  return QuantileSorted(values_, q);
}

double PublicBoard::PercentileRank(double x) const {
  assert(sealed_ && "PercentileRank() on an unsealed board");
  return PercentileRankSorted(values_, x);
}

double PublicBoard::FractionAtOrAbove(double x) const {
  assert(sealed_ && "FractionAtOrAbove() on an unsealed board");
  // `v >= NaN` holds for no v, while lower_bound would place NaN first.
  if (values_.empty() || std::isnan(x)) return 0.0;
  const auto first = std::lower_bound(values_.begin(), values_.end(), x);
  return static_cast<double>(values_.end() - first) /
         static_cast<double>(values_.size());
}

void PublicBoard::Clear() {
  values_.clear();
  total_recorded_ = 0;
  rng_ = Rng(seed_);
  sealed_ = false;
}

}  // namespace itrim
