#ifndef CSOD_COMMON_SIMD_H_
#define CSOD_COMMON_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace csod::simd {

/// \brief Runtime-dispatched dense kernels with a *canonical* floating-point
/// summation tree, shared by every ISA path.
///
/// The repo's determinism contract ("bit-identical results at any
/// parallelism limit", DESIGN.md §6) extends here across instruction sets:
/// the AVX2 and portable implementations of every kernel below produce
/// bit-identical results, by construction rather than by accident.
///
/// How: reductions (`Dot`, `Dot4`) split the index space into a fixed
/// 8-accumulator lane split — lane `l` sums the elements at positions
/// `i ≡ l (mod 8)` in ascending order, the tail continues the same pattern,
/// and the eight lane sums are folded in the fixed order
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`. The AVX2 path holds the lanes in
/// two 4-wide vector accumulators and performs the identical per-lane
/// additions; the portable path keeps eight scalars (which the compiler may
/// itself vectorize — any lane-preserving vectorization is bit-safe because
/// the lanes never mix). Element-wise kernels (`Axpy*`, `Add*`, `Scale`)
/// have no reduction at all, so per-element identity is automatic.
///
/// FMA is deliberately NOT used: a fused multiply-add rounds once where
/// mul-then-add rounds twice, which would break bit-identity between the
/// AVX2 and portable paths (and against the pre-existing scalar kernels).
/// Dispatch therefore keys on AVX2 only.
///
/// The fused 4-stream variants (`Dot4`, `Axpy4`, `Add4`) amortize one pass
/// over the shared operand across four streams; each stream's per-element
/// operation order is identical to the 1-stream kernel, so
/// `Axpy4(acc, c0,x0, ..., c3,x3)` is bit-identical to four sequential
/// `Axpy` calls — callers may batch freely without changing results.
enum class Level {
  kPortable = 0,  ///< Fixed-8-lane scalar kernels (any platform).
  kAvx2 = 1,      ///< AVX2 4-wide double kernels (x86-64, no FMA).
};

/// Human-readable name ("portable" / "avx2") for logs and bench output.
const char* LevelName(Level level);

/// True iff the running CPU supports AVX2 (raw probe; ignores overrides).
bool Avx2Supported();

/// The level the kernels currently dispatch to. Resolved once on first use:
/// AVX2 when the CPU supports it, unless compiled with
/// -DCSOD_FORCE_PORTABLE_SIMD or run with CSOD_FORCE_PORTABLE_SIMD=1 in the
/// environment (both force the portable path).
Level ActiveLevel();

/// Overrides the dispatch level (clamped to kPortable when AVX2 is
/// unavailable) and returns the previously active level. For tests and
/// benchmarks that compare the two paths inside one binary; also works in
/// CSOD_FORCE_PORTABLE_SIMD builds, where the AVX2 code is still compiled.
Level SetLevelForTesting(Level level);

/// Σ_i a[i] * b[i] over the canonical 8-lane split.
double Dot(const double* a, const double* b, size_t n);

/// Four dots sharing one pass over r: out[k] = Σ_i ck[i] * r[i].
/// Each out[k] is bit-identical to Dot(ck, r, n).
void Dot4(const double* c0, const double* c1, const double* c2,
          const double* c3, const double* r, size_t n, double out[4]);

/// acc[i] += col[i] * x (element-wise; bit-identical on every path).
void Axpy(double* acc, const double* col, double x, size_t n);

/// Four fused axpys in one pass over acc:
/// acc[i] = (((acc[i] + c0[i]*x0) + c1[i]*x1) + c2[i]*x2) + c3[i]*x3,
/// bit-identical to four sequential Axpy calls in that order.
void Axpy4(double* acc, const double* c0, double x0, const double* c1,
           double x1, const double* c2, double x2, const double* c3,
           double x3, size_t n);

/// Eight fused axpys in one pass over acc (array-of-streams form):
/// acc[i] folds cols[0][i]*xs[0] .. cols[7][i]*xs[7] in stream order,
/// bit-identical to eight sequential Axpy calls. Eight concurrent column
/// streams keep more memory requests in flight than four, which is what
/// hides DRAM latency when the columns miss cache.
void Axpy8(double* acc, const double* const cols[8], const double xs[8],
           size_t n);

/// acc[i] += src[i].
void Add(double* acc, const double* src, size_t n);

/// Four fused adds in one pass over acc, bit-identical to four sequential
/// Add calls in s0..s3 order.
void Add4(double* acc, const double* s0, const double* s1, const double* s2,
          const double* s3, size_t n);

/// v[i] *= s.
void Scale(double* v, double s, size_t n);

/// -v when `bit` is 1, v when it is 0: an exact IEEE sign-bit flip.
inline double FlipSign(double v, uint64_t bit) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(v) ^ (bit << 63));
}

/// Signed add over a packed ±1 column: acc[i] += (bit i set ? -v : v),
/// where bit i is bit (i % 64) of signs[i / 64]. The flip is an exact IEEE
/// negation, so with v = c * x the result is bit-identical to Axpy over the
/// materialized column col[i] = ±c (since (±c) * x == ±(c * x) exactly).
void SignedAdd(double* acc, const uint64_t* signs, double v, size_t n);

/// Eight fused SignedAdd streams in one pass over acc, bit-identical to
/// eight sequential SignedAdd calls in stream order.
void SignedAdd8(double* acc, const uint64_t* const signs[8],
                const double vs[8], size_t n);

}  // namespace csod::simd

#endif  // CSOD_COMMON_SIMD_H_
