// In-memory numeric dataset representation plus common transforms.
//
// Mirrors the evaluation setup of the paper (Table II): row-major numeric
// instances, optional integer class labels, and a nominal cluster count used
// by the learners.
#ifndef ITRIM_DATA_DATASET_H_
#define ITRIM_DATA_DATASET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace itrim {

/// \brief A labeled numeric dataset (instances x features).
struct Dataset {
  std::string name;
  /// Row-major feature matrix; every row has the same length.
  std::vector<std::vector<double>> rows;
  /// Per-row class label; empty when the dataset is unlabeled.
  std::vector<int> labels;
  /// Nominal number of clusters/classes (Table II).
  size_t num_clusters = 1;

  size_t size() const { return rows.size(); }
  size_t dims() const { return rows.empty() ? 0 : rows[0].size(); }
  bool labeled() const { return !labels.empty(); }

  /// \brief Validates shape invariants (uniform width, label length).
  Status Validate() const;
};

/// \brief Min-max normalizes every feature into [-1, 1] in place.
/// Constant features map to 0.
void NormalizeMinMax(Dataset* ds);

/// \brief Samples `n` rows with replacement (labels follow rows).
Dataset SampleWithReplacement(const Dataset& ds, size_t n, Rng* rng);

}  // namespace itrim

#endif  // ITRIM_DATA_DATASET_H_
