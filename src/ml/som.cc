#include "ml/som.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/math_util.h"

namespace itrim {

Result<Som> Som::Train(const Dataset& data, const SomConfig& config) {
  if (data.rows.empty()) return Status::InvalidArgument("empty dataset");
  if (config.width == 0 || config.height == 0) {
    return Status::InvalidArgument("grid dimensions must be positive");
  }
  if (config.epochs < 1) return Status::InvalidArgument("epochs must be >= 1");
  const size_t dims = data.dims();
  const size_t nodes = config.width * config.height;

  Som som;
  som.width_ = config.width;
  som.height_ = config.height;
  som.weights_.resize(nodes);

  Rng rng(config.seed);
  // Initialize node weights from random training rows plus small jitter.
  for (auto& w : som.weights_) {
    w = data.rows[rng.UniformInt(data.rows.size())];
    for (double& v : w) v += rng.Normal(0.0, 0.01);
  }

  double radius0 = config.initial_radius > 0.0
                       ? config.initial_radius
                       : static_cast<double>(
                             std::max(config.width, config.height)) /
                             2.0;

  // Batch training: per epoch, every node's new weight is the Gaussian
  // neighborhood-weighted mean of the samples whose BMU lies nearby.
  std::vector<std::vector<double>> numerator(nodes,
                                             std::vector<double>(dims, 0.0));
  std::vector<double> denominator(nodes, 0.0);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    double t = config.epochs > 1
                   ? static_cast<double>(epoch) /
                         static_cast<double>(config.epochs - 1)
                   : 1.0;
    double radius = radius0 * std::pow(config.final_radius / radius0, t);
    double radius_sq = radius * radius;
    long reach = std::max(1L, static_cast<long>(std::ceil(radius * 3.0)));

    for (auto& row : numerator) std::fill(row.begin(), row.end(), 0.0);
    std::fill(denominator.begin(), denominator.end(), 0.0);

    for (const auto& x : data.rows) {
      size_t bmu = som.BestMatchingUnit(x);
      long bmu_r = static_cast<long>(bmu / config.width);
      long bmu_c = static_cast<long>(bmu % config.width);
      long r_lo = std::max(0L, bmu_r - reach);
      long r_hi = std::min(static_cast<long>(config.height) - 1,
                           bmu_r + reach);
      long c_lo = std::max(0L, bmu_c - reach);
      long c_hi = std::min(static_cast<long>(config.width) - 1,
                           bmu_c + reach);
      for (long r = r_lo; r <= r_hi; ++r) {
        for (long c = c_lo; c <= c_hi; ++c) {
          double dr = static_cast<double>(r - bmu_r);
          double dc = static_cast<double>(c - bmu_c);
          double h = std::exp(-(dr * dr + dc * dc) / (2.0 * radius_sq));
          if (h < 1e-4) continue;
          size_t node = static_cast<size_t>(r) * config.width +
                        static_cast<size_t>(c);
          for (size_t j = 0; j < dims; ++j) numerator[node][j] += h * x[j];
          denominator[node] += h;
        }
      }
    }
    for (size_t node = 0; node < nodes; ++node) {
      if (denominator[node] <= 1e-12) continue;  // empty node keeps weights
      for (size_t j = 0; j < dims; ++j) {
        som.weights_[node][j] = numerator[node][j] / denominator[node];
      }
    }
  }
  return som;
}

size_t Som::BestMatchingUnit(const std::vector<double>& row) const {
  size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < weights_.size(); ++i) {
    double d = SquaredDistance(row, weights_[i]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

double Som::QuantizationError(
    const std::vector<std::vector<double>>& rows) const {
  if (rows.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& row : rows) {
    acc += EuclideanDistance(row, weights_[BestMatchingUnit(row)]);
  }
  return acc / static_cast<double>(rows.size());
}

std::vector<int> Som::LabelMap(const Dataset& data) const {
  assert(data.labeled());
  std::vector<std::map<int, size_t>> votes(weights_.size());
  for (size_t i = 0; i < data.rows.size(); ++i) {
    ++votes[BestMatchingUnit(data.rows[i])][data.labels[i]];
  }
  std::vector<int> out(weights_.size(), -1);
  for (size_t n = 0; n < votes.size(); ++n) {
    size_t best = 0;
    for (const auto& [label, count] : votes[n]) {
      if (count > best) {
        best = count;
        out[n] = label;
      }
    }
  }
  return out;
}

size_t Som::ClassesRepresented(const Dataset& data) const {
  std::set<int> owned;
  for (int label : LabelMap(data)) {
    if (label >= 0) owned.insert(label);
  }
  return owned.size();
}

}  // namespace itrim
