#include "common/rng.h"

#include <cassert>

namespace itrim {

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.Next();
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

uint64_t Rng::UniformInt(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

void Rng::FillUniformInt(uint64_t n, uint64_t* out, size_t count) {
  assert(n > 0);
  // Hoisted UniformInt loop: the rejection threshold is computed once and
  // the per-call entry/exit disappears, but every word of output comes from
  // the exact NextU64 sequence the scalar calls would consume.
  const uint64_t threshold = (0ULL - n) % n;
  for (size_t i = 0; i < count; ++i) {
    for (;;) {
      uint64_t r = NextU64();
      if (r >= threshold) {
        out[i] = r % n;
        break;
      }
    }
  }
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; u1 in (0,1] to avoid log(0).
  double u1 = 1.0 - Uniform();
  double u2 = Uniform();
  double mag = std::sqrt(-2.0 * std::log(u1));
  double two_pi_u2 = 2.0 * M_PI * u2;
  cached_normal_ = mag * std::sin(two_pi_u2);
  have_cached_normal_ = true;
  return mag * std::cos(two_pi_u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::Laplace(double b) {
  double u = Uniform() - 0.5;
  double sign = (u < 0.0) ? -1.0 : 1.0;
  return -b * sign * std::log(1.0 - 2.0 * std::fabs(u));
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0) return weights.size();
  double r = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

std::vector<double> Rng::UnitVector(size_t dim) {
  std::vector<double> v;
  UnitVectorInto(dim, &v);
  return v;
}

void Rng::UnitVectorInto(size_t dim, std::vector<double>* out) {
  std::vector<double>& v = *out;
  v.resize(dim);
  double norm_sq = 0.0;
  do {
    norm_sq = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      v[i] = Normal();
      norm_sq += v[i] * v[i];
    }
  } while (norm_sq == 0.0);
  double inv = 1.0 / std::sqrt(norm_sq);
  for (double& x : v) x *= inv;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  // Floyd's algorithm is O(k) in expectation but needs a set; for the sizes
  // used here a partial Fisher–Yates over an index vector is simpler.
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + static_cast<size_t>(UniformInt(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

}  // namespace itrim
