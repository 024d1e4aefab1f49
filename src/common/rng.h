// Deterministic, seedable random number generation.
//
// All stochastic components of the library (dataset generators, adversaries,
// LDP mechanisms, k-means seeding, ...) draw from `Rng` so that every
// experiment is reproducible from a single 64-bit seed. The core generator is
// xoshiro256** (Blackman & Vigna), seeded through SplitMix64; both are public
// domain algorithms, re-implemented here to avoid a dependency and to keep
// streams identical across platforms (unlike std::mt19937 + distributions,
// whose std::normal_distribution output is implementation-defined).
#ifndef ITRIM_COMMON_RNG_H_
#define ITRIM_COMMON_RNG_H_

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace itrim {

/// \brief SplitMix64 generator; used to expand seeds and as a cheap stream.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// \brief Next 64 random bits.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// \brief Deterministic xoshiro256** PRNG with distribution helpers.
///
/// Not thread-safe; create one instance per thread / per experiment arm.
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams on all
  /// platforms.
  explicit Rng(uint64_t seed = 0xD1B54A32D192ED03ULL);

  /// \brief Next 64 uniformly random bits.
  uint64_t NextU64();

  /// \brief Uniform double in [0, 1).
  double Uniform();

  /// \brief Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// \brief Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// \brief Fills out[0..count) with draws bit-identical to `count`
  /// successive UniformInt(n) calls. One call per round amortizes the
  /// per-draw call overhead in the streaming hot path without perturbing
  /// the stream (the batch IS the sequence of scalar draws).
  void FillUniformInt(uint64_t n, uint64_t* out, size_t count);

  /// \brief Standard normal deviate (Box–Muller, cached pair).
  double Normal();

  /// \brief Normal deviate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// \brief Laplace deviate with location 0 and scale `b` (inverse CDF).
  double Laplace(double b);

  /// \brief Bernoulli trial with success probability `p`.
  bool Bernoulli(double p);

  /// \brief Random index drawn proportionally to non-negative `weights`.
  /// Returns weights.size() when the total weight is zero.
  size_t Categorical(const std::vector<double>& weights);

  /// \brief Random unit vector of dimension `dim` (uniform on the sphere).
  std::vector<double> UnitVector(size_t dim);

  /// \brief UnitVector into caller-owned storage (resized to `dim`, capacity
  /// reused); the draw sequence is identical to UnitVector(dim).
  void UnitVectorInto(size_t dim, std::vector<double>* out);

  /// \brief Fisher–Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// \brief Samples `k` indices from [0, n) without replacement.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// \brief Full generator state, for checkpoint/restore of streaming
  /// sessions. Includes the Box–Muller carry so a restored stream continues
  /// bit-identically even mid normal-pair.
  struct Snapshot {
    std::array<uint64_t, 4> state = {0, 0, 0, 0};
    bool have_cached_normal = false;
    double cached_normal = 0.0;
  };

  /// \brief Captures the current state.
  Snapshot Save() const { return {s_, have_cached_normal_, cached_normal_}; }

  /// \brief Restores a previously captured state.
  void Restore(const Snapshot& snapshot) {
    s_ = snapshot.state;
    have_cached_normal_ = snapshot.have_cached_normal;
    cached_normal_ = snapshot.cached_normal;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::array<uint64_t, 4> s_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace itrim

#endif  // ITRIM_COMMON_RNG_H_
