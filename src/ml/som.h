// Self-Organizing Map (Kohonen network) on a rectangular grid.
//
// Substrate for the Fig 6b / Fig 8 experiments: a 20x20 SOM is trained on
// CREDITCARD-like data and the question is whether the rare classes (the
// isolated fraud/premium points and the small "green" segment) keep distinct
// map regions after each defense scheme's sanitization.
#ifndef ITRIM_ML_SOM_H_
#define ITRIM_ML_SOM_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"

namespace itrim {

/// \brief SOM training configuration.
///
/// Training is *batch* (the MATLAB `selforgmap` style): each epoch computes
/// every node's new weight as the neighborhood-weighted mean of the samples
/// assigned to it, with the neighborhood radius shrinking across epochs.
/// Batch training lets rare, isolated samples capture their own node — the
/// property the Fig 8 experiment depends on.
struct SomConfig {
  size_t width = 20;
  size_t height = 20;
  int epochs = 10;              ///< batch passes over the training data
  double initial_radius = 0.0;  ///< 0 = max(width,height)/2
  double final_radius = 0.3;    ///< sharp enough for rare-point nodes
  uint64_t seed = 11;
};

/// \brief Trained SOM with analysis helpers.
class Som {
 public:
  /// Creates an empty (untrained) map; populate it via Train().
  Som() = default;

  /// \brief Trains a SOM on `data.rows`.
  static Result<Som> Train(const Dataset& data, const SomConfig& config);

  /// \brief Index (row-major) of the best-matching unit for `row`.
  size_t BestMatchingUnit(const std::vector<double>& row) const;

  /// \brief Mean distance from rows to their BMU weight (quantization error).
  double QuantizationError(const std::vector<std::vector<double>>& rows) const;

  /// \brief Majority label per node (-1 for empty nodes); requires labels.
  std::vector<int> LabelMap(const Dataset& data) const;

  /// \brief Number of distinct labels that own at least one map node —
  /// the "classes represented" statistic reported by the Fig 8 bench.
  size_t ClassesRepresented(const Dataset& data) const;

  size_t width() const { return width_; }
  size_t height() const { return height_; }
  const std::vector<std::vector<double>>& weights() const { return weights_; }

 private:
  size_t width_ = 0;
  size_t height_ = 0;
  std::vector<std::vector<double>> weights_;  // row-major nodes
};

}  // namespace itrim

#endif  // ITRIM_ML_SOM_H_
