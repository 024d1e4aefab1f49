#include "data/dataset.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace itrim {

Status Dataset::Validate() const {
  if (!labels.empty() && labels.size() != rows.size()) {
    return Status::InvalidArgument(
        name + ": label count " + std::to_string(labels.size()) +
        " != row count " + std::to_string(rows.size()));
  }
  if (!rows.empty()) {
    size_t width = rows[0].size();
    for (size_t i = 1; i < rows.size(); ++i) {
      if (rows[i].size() != width) {
        return Status::InvalidArgument(name + ": ragged row " +
                                       std::to_string(i));
      }
    }
  }
  if (num_clusters == 0) {
    return Status::InvalidArgument(name + ": num_clusters must be >= 1");
  }
  return Status::OK();
}

void NormalizeMinMax(Dataset* ds) {
  if (ds->rows.empty()) return;
  size_t dims = ds->dims();
  std::vector<double> lo(dims, std::numeric_limits<double>::infinity());
  std::vector<double> hi(dims, -std::numeric_limits<double>::infinity());
  for (const auto& row : ds->rows) {
    for (size_t j = 0; j < dims; ++j) {
      lo[j] = std::min(lo[j], row[j]);
      hi[j] = std::max(hi[j], row[j]);
    }
  }
  for (auto& row : ds->rows) {
    for (size_t j = 0; j < dims; ++j) {
      double span = hi[j] - lo[j];
      row[j] = span > 0.0 ? 2.0 * (row[j] - lo[j]) / span - 1.0 : 0.0;
    }
  }
}

Dataset SampleWithReplacement(const Dataset& ds, size_t n, Rng* rng) {
  assert(!ds.rows.empty());
  Dataset out;
  out.name = ds.name;
  out.num_clusters = ds.num_clusters;
  out.rows.reserve(n);
  if (ds.labeled()) out.labels.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t idx = static_cast<size_t>(rng->UniformInt(ds.rows.size()));
    out.rows.push_back(ds.rows[idx]);
    if (ds.labeled()) out.labels.push_back(ds.labels[idx]);
  }
  return out;
}

}  // namespace itrim
