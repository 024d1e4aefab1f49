// Evaluation metrics used throughout the paper's experiments:
// SSE and centroid distance for k-means (Fig 4/5), accuracy and the
// per-class PPV of a confusion matrix for SVM (Fig 6a/7).
#ifndef ITRIM_STATS_METRICS_H_
#define ITRIM_STATS_METRICS_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace itrim {

/// \brief SSE of a clustering: sum over points of squared distance to the
/// assigned centroid.
double ClusteringSse(const std::vector<std::vector<double>>& points,
                     const std::vector<std::vector<double>>& centroids,
                     const std::vector<size_t>& assignment);

/// \brief Total Euclidean distance between two centroid sets under the
/// minimal greedy matching (handles centroid permutation between runs).
double CentroidSetDistance(const std::vector<std::vector<double>>& a,
                           const std::vector<std::vector<double>>& b);

/// \brief Row-normalized confusion matrix and derived statistics.
class ConfusionMatrix {
 public:
  /// Creates a `classes` x `classes` zero matrix.
  explicit ConfusionMatrix(size_t classes);

  /// \brief Records one (actual, predicted) pair.
  void Add(size_t actual, size_t predicted);

  /// \brief Adds every cell of `other` (same class count) into this matrix.
  /// Counts are integers, so merging per-repetition matrices in any order
  /// equals one serially filled matrix.
  void Merge(const ConfusionMatrix& other);

  /// \brief Raw count in cell (actual, predicted).
  size_t Count(size_t actual, size_t predicted) const;

  /// \brief Overall accuracy: trace / total. Returns 0 when empty.
  double Accuracy() const;

  /// \brief Positive predictive value of class `c`
  /// (diagonal / column sum; 0 when the class was never predicted).
  double Ppv(size_t c) const;

  /// \brief Number of classes.
  size_t classes() const { return classes_; }

  /// \brief Total observations recorded.
  size_t total() const { return total_; }

 private:
  size_t classes_;
  size_t total_ = 0;
  std::vector<size_t> cells_;  // row-major [actual][predicted]
};

}  // namespace itrim

#endif  // ITRIM_STATS_METRICS_H_
