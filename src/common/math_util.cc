#include "common/math_util.h"

#include <cassert>
#include <cmath>

#include "game/kernels.h"

namespace itrim {

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  // The canonical distance is the kernel's fixed 4-lane association (see
  // game/kernels.h); every call site — row scoring, PositionMap geometry,
  // k-means — therefore agrees bit for bit across kernel variants.
  return kernels::SquaredDistance(a.data(), b.data(), a.size());
}

double EuclideanDistance(std::span<const double> a, std::span<const double> b) {
  return std::sqrt(SquaredDistance(a, b));
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  assert(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void Axpy(double scale, const std::vector<double>& b, std::vector<double>* a) {
  assert(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) (*a)[i] += scale * b[i];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

std::vector<double> Centroid(const std::vector<std::vector<double>>& points) {
  if (points.empty()) return {};
  std::vector<double> c(points[0].size(), 0.0);
  for (const auto& p : points) Axpy(1.0, p, &c);
  double inv = 1.0 / static_cast<double>(points.size());
  for (double& x : c) x *= inv;
  return c;
}

}  // namespace itrim
