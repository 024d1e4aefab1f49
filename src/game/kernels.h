// Dispatched numeric kernels of the round protocol.
//
// The inner loops the engine runs at scale — the canonical distance and
// dot product that every score is built from, tail counting, trim masking
// and the fitted reference's residual sweep — live here as free functions
// over raw spans, compiled twice from one shared body (kernels_impl.inc):
//
//  * generic  — the portable baseline, default optimization flags;
//  * vector   — the same translation unit built with auto-vectorization
//               (-O3 -ftree-vectorize and, on x86-64, -mavx2), selected at
//               runtime only when the CPU reports AVX2.
//
// The dispatch shim guarantees *bit-identical doubles* from both variants,
// which is what lets the engine's bit-identity suites (legacy replicas,
// session property suites, board fuzz) gate a SIMD rollout at all. The
// contract rests on three rules, enforced by construction:
//
//  1. Fixed association. FP reductions use four independent accumulator
//     lanes over strided indices, combined as (a0 + a1) + (a2 + a3) — the
//     same IEEE operation sequence whether the lanes live in scalar
//     registers or one SIMD register. (For n <= 4 the lane order degenerates
//     to the sequential sum, so tiny vectors keep their historical values.)
//  2. No contraction. Both variants compile with -ffp-contract=off and
//     without -mfma, so a mul+add never fuses into an FMA on one side only.
//  3. Exact operations elsewhere. Comparisons, integer counts and fabs (a
//     sign-bit clear) are bitwise variant-independent by IEEE 754.
//
// Order-sensitive sequential sums (e.g. the LDP tail-mean signal) are *not*
// kernels on purpose: vectorizing them would require reassociation.
#ifndef ITRIM_GAME_KERNELS_H_
#define ITRIM_GAME_KERNELS_H_

#include <cstddef>

namespace itrim::kernels {

/// \brief Writes keep[i] = 1 iff !(values[i] > cutoff) (NaN kept, matching
/// the engine's legacy trim semantics); returns the kept count.
size_t MaskAtMost(const double* values, size_t n, double cutoff, char* keep);

/// \brief Writes keep[i] = 1 iff !(values[i] > hi || values[i] < lo) (the
/// LDP symmetric band; NaN kept); returns the kept count.
size_t MaskInBand(const double* values, size_t n, double lo, double hi,
                  char* keep);

/// \brief Number of values strictly above `cutoff`.
size_t CountGreater(const double* values, size_t n, double cutoff);

/// \brief Number of values at or above `cutoff`.
size_t CountAtLeast(const double* values, size_t n, double cutoff);

/// \brief Squared Euclidean distance in the canonical 4-lane association
/// (lane k accumulates indices congruent to k mod 4; lanes combine as
/// (a0 + a1) + (a2 + a3)). This IS the library-wide distance definition:
/// common/math_util.h delegates here, so every distance the engine scores
/// with (PositionMap rows, k-means, the leverage poison row) agrees bit for
/// bit.
double SquaredDistance(const double* a, const double* b, size_t n);

/// \brief Inner product in the canonical 4-lane association (the dot-product
/// sibling of SquaredDistance). Model predictions — the linear-regression
/// fitter, the residual score model's ScoreObservation and the batched
/// residual kernel — all evaluate w . x through this, so they agree bit for
/// bit.
double LaneDot(const double* a, const double* b, size_t n);

/// \brief out[r] = |y_r - (w . x_r + bias)| for `n_rows` contiguous flat
/// regression observations [x_0..x_{d-1}, y] of `width` = d + 1 doubles
/// (row-major). The dot product runs in the canonical 4-lane association,
/// so the batch is bitwise-identical to per-row LaneDot evaluation.
void AbsResidualsToModel(const double* rows, size_t n_rows, size_t width,
                         const double* weights, double bias, double* out);

// ---------------------------------------------------------------------------
// Runtime dispatch control (tests and benches force variants; production
// code never needs to).
// ---------------------------------------------------------------------------

enum class Variant {
  kGeneric = 0,  ///< portable build, always present
  kVector = 1,   ///< auto-vectorized build, used when the CPU allows it
};

/// \brief True when the vector build may run on this CPU (x86-64 with AVX2).
bool VectorAvailable();

/// \brief Variant the free functions above currently dispatch to.
Variant ActiveVariant();

/// \brief Human-readable variant name ("generic" / "vector").
const char* VariantName(Variant variant);

/// \brief Test hook: pins dispatch to `variant`. Forcing kVector on a CPU
/// without AVX2 support is ignored (the generic build stays active).
void ForceVariant(Variant variant);

/// \brief Returns dispatch to runtime auto-detection.
void ResetVariant();

}  // namespace itrim::kernels

#endif  // ITRIM_GAME_KERNELS_H_
