// Small numeric helpers shared across the library.
#ifndef ITRIM_COMMON_MATH_UTIL_H_
#define ITRIM_COMMON_MATH_UTIL_H_

#include <algorithm>
#include <span>
#include <vector>

namespace itrim {

/// \brief Clamps `x` into [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  return std::max(lo, std::min(hi, x));
}

/// \brief Squared Euclidean distance between equal-length spans, in the
/// library's canonical fixed 4-lane association (game/kernels.h), so both
/// kernel variants produce bit-identical doubles.
double SquaredDistance(std::span<const double> a, std::span<const double> b);

/// \brief Euclidean distance between equal-length spans.
double EuclideanDistance(std::span<const double> a, std::span<const double> b);

/// \brief Dot product of equal-length vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// \brief a += scale * b (in place, equal lengths).
void Axpy(double scale, const std::vector<double>& b, std::vector<double>* a);

/// \brief Arithmetic mean; 0 for an empty range.
double Mean(const std::vector<double>& v);

/// \brief Component-wise mean of a set of equal-length vectors.
std::vector<double> Centroid(const std::vector<std::vector<double>>& points);

/// \brief Linear interpolation between a and b at t in [0,1].
inline double Lerp(double a, double b, double t) { return a + (b - a) * t; }

}  // namespace itrim

#endif  // ITRIM_COMMON_MATH_UTIL_H_
