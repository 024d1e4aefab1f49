// Runtime dispatch between the generic and auto-vectorized kernel builds.
//
// Detection happens once (first use); tests pin a variant with
// ForceVariant() to assert both builds emit identical doubles. The active
// variant is a relaxed atomic: concurrent fleet threads may read it while a
// test harness switches it, and either value is correct (both variants are
// bit-identical by contract).
#include "game/kernels.h"

#include <atomic>

namespace itrim::kernels {

// Declarations of the per-variant builds (defined via kernels_impl.inc in
// kernels_generic.cc / kernels_vector.cc).
#define ITRIM_DECLARE_KERNELS(ns)                                            \
  namespace ns {                                                             \
  size_t MaskAtMost(const double* values, size_t n, double cutoff,           \
                    char* keep);                                             \
  size_t MaskInBand(const double* values, size_t n, double lo, double hi,    \
                    char* keep);                                             \
  size_t CountGreater(const double* values, size_t n, double cutoff);        \
  size_t CountAtLeast(const double* values, size_t n, double cutoff);        \
  double SquaredDistance(const double* a, const double* b, size_t n);        \
  double LaneDot(const double* a, const double* b, size_t n);                \
  void AbsResidualsToModel(const double* rows, size_t n_rows, size_t width,  \
                           const double* weights, double bias, double* out); \
  }
ITRIM_DECLARE_KERNELS(generic)
ITRIM_DECLARE_KERNELS(vectorized)
#undef ITRIM_DECLARE_KERNELS

namespace {

Variant DetectVariant() {
  return VectorAvailable() ? Variant::kVector : Variant::kGeneric;
}

std::atomic<Variant>& ActiveSlot() {
  static std::atomic<Variant> active{DetectVariant()};
  return active;
}

}  // namespace

bool VectorAvailable() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Variant ActiveVariant() {
  return ActiveSlot().load(std::memory_order_relaxed);
}

const char* VariantName(Variant variant) {
  return variant == Variant::kVector ? "vector" : "generic";
}

void ForceVariant(Variant variant) {
  if (variant == Variant::kVector && !VectorAvailable()) return;
  ActiveSlot().store(variant, std::memory_order_relaxed);
}

void ResetVariant() {
  ActiveSlot().store(DetectVariant(), std::memory_order_relaxed);
}

size_t MaskAtMost(const double* values, size_t n, double cutoff, char* keep) {
  return ActiveVariant() == Variant::kVector
             ? vectorized::MaskAtMost(values, n, cutoff, keep)
             : generic::MaskAtMost(values, n, cutoff, keep);
}

size_t MaskInBand(const double* values, size_t n, double lo, double hi,
                  char* keep) {
  return ActiveVariant() == Variant::kVector
             ? vectorized::MaskInBand(values, n, lo, hi, keep)
             : generic::MaskInBand(values, n, lo, hi, keep);
}

size_t CountGreater(const double* values, size_t n, double cutoff) {
  return ActiveVariant() == Variant::kVector
             ? vectorized::CountGreater(values, n, cutoff)
             : generic::CountGreater(values, n, cutoff);
}

size_t CountAtLeast(const double* values, size_t n, double cutoff) {
  return ActiveVariant() == Variant::kVector
             ? vectorized::CountAtLeast(values, n, cutoff)
             : generic::CountAtLeast(values, n, cutoff);
}

double SquaredDistance(const double* a, const double* b, size_t n) {
  return ActiveVariant() == Variant::kVector
             ? vectorized::SquaredDistance(a, b, n)
             : generic::SquaredDistance(a, b, n);
}

double LaneDot(const double* a, const double* b, size_t n) {
  return ActiveVariant() == Variant::kVector ? vectorized::LaneDot(a, b, n)
                                             : generic::LaneDot(a, b, n);
}

void AbsResidualsToModel(const double* rows, size_t n_rows, size_t width,
                         const double* weights, double bias, double* out) {
  if (ActiveVariant() == Variant::kVector) {
    vectorized::AbsResidualsToModel(rows, n_rows, width, weights, bias, out);
  } else {
    generic::AbsResidualsToModel(rows, n_rows, width, weights, bias, out);
  }
}

}  // namespace itrim::kernels
