#include "stats/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "common/math_util.h"

namespace itrim {

double ClusteringSse(const std::vector<std::vector<double>>& points,
                     const std::vector<std::vector<double>>& centroids,
                     const std::vector<size_t>& assignment) {
  assert(points.size() == assignment.size());
  double acc = 0.0;
  for (size_t i = 0; i < points.size(); ++i) {
    assert(assignment[i] < centroids.size());
    acc += SquaredDistance(points[i], centroids[assignment[i]]);
  }
  return acc;
}

double CentroidSetDistance(const std::vector<std::vector<double>>& a,
                           const std::vector<std::vector<double>>& b) {
  // Greedy minimal matching: repeatedly match the globally closest pair.
  // Exact Hungarian assignment is overkill for the k <= 26 clusters used in
  // the evaluation; greedy matching is within a constant of optimal here and
  // is what matters for comparing schemes on the same data.
  std::vector<size_t> ai(a.size()), bi(b.size());
  for (size_t i = 0; i < a.size(); ++i) ai[i] = i;
  for (size_t i = 0; i < b.size(); ++i) bi[i] = i;
  double total = 0.0;
  while (!ai.empty() && !bi.empty()) {
    double best = std::numeric_limits<double>::infinity();
    size_t best_a = 0, best_b = 0;
    for (size_t x = 0; x < ai.size(); ++x) {
      for (size_t y = 0; y < bi.size(); ++y) {
        double d = SquaredDistance(a[ai[x]], b[bi[y]]);
        if (d < best) {
          best = d;
          best_a = x;
          best_b = y;
        }
      }
    }
    total += std::sqrt(best);
    ai.erase(ai.begin() + static_cast<long>(best_a));
    bi.erase(bi.begin() + static_cast<long>(best_b));
  }
  return total;
}

ConfusionMatrix::ConfusionMatrix(size_t classes)
    : classes_(classes), cells_(classes * classes, 0) {
  assert(classes >= 1);
}

void ConfusionMatrix::Add(size_t actual, size_t predicted) {
  assert(actual < classes_ && predicted < classes_);
  ++cells_[actual * classes_ + predicted];
  ++total_;
}

void ConfusionMatrix::Merge(const ConfusionMatrix& other) {
  assert(other.classes_ == classes_);
  for (size_t i = 0; i < cells_.size(); ++i) cells_[i] += other.cells_[i];
  total_ += other.total_;
}

size_t ConfusionMatrix::Count(size_t actual, size_t predicted) const {
  assert(actual < classes_ && predicted < classes_);
  return cells_[actual * classes_ + predicted];
}

double ConfusionMatrix::Accuracy() const {
  if (total_ == 0) return 0.0;
  size_t diag = 0;
  for (size_t c = 0; c < classes_; ++c) diag += Count(c, c);
  return static_cast<double>(diag) / static_cast<double>(total_);
}

double ConfusionMatrix::Ppv(size_t c) const {
  size_t col = 0;
  for (size_t r = 0; r < classes_; ++r) col += Count(r, c);
  if (col == 0) return 0.0;
  return static_cast<double>(Count(c, c)) / static_cast<double>(col);
}

}  // namespace itrim
