#ifndef CSOD_CS_MEASUREMENT_MATRIX_H_
#define CSOD_CS_MEASUREMENT_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace csod::cs {

/// Result of the fused correlate+argmax kernel (OMP statement 4): the
/// unmasked column with the largest |<column, r>|, ties broken toward the
/// lowest index.
struct CorrelateArgmaxResult {
  /// Sentinel index meaning "every column was masked out".
  static constexpr size_t kNoIndex = ~size_t{0};

  /// Winning column index (an *atom* index when returned through the
  /// Dictionary interface), or kNoIndex.
  size_t index = kNoIndex;
  /// Signed correlation <column_index, r>.
  double correlation = 0.0;
  /// |correlation|; -1 when index == kNoIndex so any real column wins.
  double abs_correlation = -1.0;
};

/// \brief The random ensemble Φ0 is drawn from.
///
/// Both kinds make entry (i, j) a pure function of (seed, j, i) scaled by
/// 1/√M, and both satisfy the RIP at M = O(s log(N/s)) (docs/THEORY.md §1),
/// so the choice changes cost, not the recovery guarantee. The kind is a
/// function of the geometry (MatrixKindFor), recorded next to n/m/seed in
/// every checkpoint frame so that state is never read under another
/// ensemble.
enum class MatrixKind : uint8_t {
  /// i.i.d. N(0, 1/M) — the paper's ensemble; dense 8-byte entries, or
  /// regenerated column by column when the cache budget is exceeded.
  kGaussian = 0,
  /// i.i.d. ±1/√M (Rademacher) — stored packed at 1 bit per entry; sketches
  /// are signed adds and correlations are table lookups.
  kSign = 1,
};

/// Most bytes a packed sign matrix may take; MatrixKindFor picks the
/// Gaussian kind (which regenerates columns past its cache budget) beyond.
inline constexpr size_t kMaxPackedSignBytes = size_t{512} << 20;

/// The kind an M x N Φ0 is drawn from: kSign unless one of these holds, in
/// which case kGaussian —
///  - M > N/2: near square, where recovery is expected to be exact because
///    Φ0 is invertible on the support. A Gaussian draw almost surely is;
///    a small square ±1 draw is singular with probability ~N²·2^{1-N}
///    (0.37 at 4 x 4). Compression saves under 2x there anyway.
///  - M < 2·bit_width(N) + 32: two ±1 columns coincide up to sign with
///    probability 2^{1-M}, so over N²/2 pairs the expected number of
///    indistinguishable keys is N²·2^{-M}; this keeps it below 2^{-32}.
///  - the packed matrix would exceed kMaxPackedSignBytes.
MatrixKind MatrixKindFor(size_t m, size_t n);

/// "gaussian" / "sign".
const char* MatrixKindName(MatrixKind kind);
/// Decodes a wire byte; InvalidArgument for a value no kind has.
Result<MatrixKind> MatrixKindFromByte(uint8_t byte);

/// \brief Non-owning view of one node's sparse slice, for the batched
/// sketching kernel (MultiplySparseBatch). The pointed-to arrays must stay
/// alive for the duration of the call.
struct SparseVectorView {
  const size_t* indices = nullptr;
  const double* values = nullptr;
  size_t nnz = 0;
};

/// \brief The paper's random measurement matrix `Φ0 (M x N)`, generated
/// deterministically from a seed: i.i.d. N(0, 1/M) entries (kGaussian,
/// the paper's ensemble) or i.i.d. ±1/√M entries (kSign), as MatrixKindFor
/// picks from M and N.
///
/// Key property (Section 3.1, "by a consensus, each node randomly generates
/// the same M x N measurement matrix"): entry (i, j) is a pure function of
/// `(seed, j, i)`, so every node in a distributed system derives the
/// identical matrix from the shared seed without any matrix transmission,
/// and individual columns can be regenerated in any order — which is what
/// OMP's column-selection loop needs.
///
/// Storage. kGaussian: an optional dense column-major cache trades memory
/// for speed; when `M * N * 8` exceeds the cache budget the matrix stays
/// implicit and columns are regenerated on the fly. kSign: always
/// materialized, packed column-major at 1 bit per entry (ceil(M/64) words
/// per column, bit i%64 of word i/64 set ⇔ entry (i, j) = -1/√M; bit i of
/// column j comes from the SplitMix64 word HashCombine(HashCombine(seed, j),
/// i/64), so rows depend only on (seed, j, i) and a taller matrix extends a
/// shorter one). M·N/8 bytes — 1.76 MB at 700 x 20k against 112 MB dense —
/// so the cache budget does not apply. Sketching on it is signed adds
/// (simd::SignedAdd8); CorrelateAll/CorrelateArgmax build, once per call,
/// a 256-entry table of ±r partial sums per 8 rows and then spend M/8
/// lookups per column; BiasColumn is exact integer column-sign counts.
///
/// Determinism: every kernel below returns bit-identical results at any
/// parallelism limit. Per-index kernels (cache fill, CorrelateAll) write
/// disjoint slots; reductions (Multiply, MultiplySparse, BiasColumn) use a
/// fixed block geometry independent of the thread count with partials
/// combined in block order; CorrelateArgmax reduces chunk-local winners in
/// chunk order with lowest-index tie-breaking, which composes to the global
/// lowest-index argmax under any chunking. The sign kernels keep the same
/// block geometry and sum every column's table lookups in one fixed order
/// in scalar code, so they are bit-identical across SIMD levels too.
class MeasurementMatrix {
 public:
  /// Creates the M x N matrix of kind MatrixKindFor(m, n) for `seed`. For
  /// kGaussian a dense cache is materialized iff the storage fits
  /// `cache_budget_bytes` (0 disables caching); kSign is always stored
  /// packed.
  MeasurementMatrix(size_t m, size_t n, uint64_t seed,
                    size_t cache_budget_bytes = kDefaultCacheBudgetBytes);
  /// The same with the kind forced: the reference hook that compares the
  /// two ensembles at one geometry (tests, bench_recovery's parity phase).
  MeasurementMatrix(size_t m, size_t n, uint64_t seed,
                    size_t cache_budget_bytes, MatrixKind kind);

  size_t m() const { return m_; }
  size_t n() const { return n_; }
  uint64_t seed() const { return seed_; }
  MatrixKind kind() const { return kind_; }
  /// True when every column is stored (always for kSign).
  bool cached() const { return kind_ == MatrixKind::kSign || !cache_.empty(); }

  /// Entry (row, col): N(0, 1/M) distributed for kGaussian, ±1/√M for kSign.
  double Entry(size_t row, size_t col) const {
    if (kind_ == MatrixKind::kSign) {
      const uint64_t word = SignColumn(col)[row >> 6];
      return (word >> (row & 63)) & 1 ? -inv_sqrt_m_ : inv_sqrt_m_;
    }
    if (!cache_.empty()) return cache_[col * m_ + row];
    return GenerateEntry(row, col);
  }

  /// Writes column `col` (length M) into `out`.
  void FillColumn(size_t col, double* out) const;

  /// Returns column `col` as a vector.
  std::vector<double> Column(size_t col) const;

  /// y = Φ0 * x for a dense x of size N.
  Result<std::vector<double>> Multiply(const std::vector<double>& x) const;

  /// y = Φ0 * x for x given in sparse coordinate form; cost O(nnz * M).
  /// This is the local-compression fast path: local slices have few
  /// non-zero keys.
  Result<std::vector<double>> MultiplySparse(
      const std::vector<size_t>& indices,
      const std::vector<double>& values) const;

  /// \brief Batched sketching: y_l = Φ0 x_l for many slices in one pass.
  ///
  /// Writes, when the out-pointers are non-null (each may independently be
  /// null):
  ///  - `per_slice_out` (resized to `slices.size() * M`): slice l's
  ///    measurement at [l*M, (l+1)*M), bit-identical to
  ///    MultiplySparse(slice l);
  ///  - `sum_out` (resized to M): Σ_l Φ0 x_l folded in slice order,
  ///    bit-identical to per-slice MultiplySparse followed by
  ///    Compressor::AggregateMeasurements. An empty batch yields zeros.
  ///
  /// Each slice keeps MultiplySparse's fixed per-slice block geometry and
  /// entry order; all blocks across all slices run in parallel, and the
  /// block partials are folded serially in (slice, block) order — so the
  /// result is bit-identical at any parallelism limit AND to the serial
  /// per-node path, which is what lets the fault-free protocol fast path
  /// coexist with the bit-compared per-node fault path.
  ///
  /// When a Gaussian matrix is implicit, columns are generated into a tiered
  /// scratch: consecutive blocks are grouped into waves whose entry count
  /// fits `scratch_budget_bytes` worth of columns, and each distinct column
  /// is generated once per wave (once per batch when the batch fits)
  /// instead of once per referencing entry. Regeneration is pure, so
  /// sharing never changes the accumulated bits.
  Status MultiplySparseBatch(
      const std::vector<SparseVectorView>& slices,
      std::vector<double>* sum_out, std::vector<double>* per_slice_out = nullptr,
      size_t scratch_budget_bytes = kDefaultBatchScratchBytes) const;

  /// c = Φ0^T * r (size N), the OMP correlation kernel.
  Result<std::vector<double>> CorrelateAll(const std::vector<double>& r) const;

  /// Writes Φ0^T * r into out[0..N) without allocating; the zero-copy form
  /// ExtendedDictionary uses to fill out[1..N] directly.
  Status CorrelateAllInto(const std::vector<double>& r, double* out) const;

  /// Fused correlate+argmax: the column j maximizing |<φ_j, r>| over all j
  /// with `skip == nullptr || !(*skip)[j + skip_offset]`, ties toward the
  /// lowest j. Never materializes the N-vector of correlations — chunk-local
  /// winners are reduced in fixed chunk order, so the result is bit-identical
  /// at any thread count. `skip_offset` lets ExtendedDictionary pass its
  /// atom-indexed mask (atom j+1 == column j) without copying it.
  Result<CorrelateArgmaxResult> CorrelateArgmax(
      const std::vector<double>& r, const std::vector<bool>* skip = nullptr,
      size_t skip_offset = 0) const;

  /// Sum of all columns scaled by 1/sqrt(N): the BOMP bias column
  /// `φ0 = (1/√N) Σ_i φ_i` (Equation 3). Recomputes on every call; prefer
  /// CachedBiasColumn() on hot paths.
  std::vector<double> BiasColumn() const;

  /// BiasColumn() computed once on first use and memoized (thread-safe).
  /// Bit-identical to a fresh BiasColumn() call: both run the same fixed
  /// block reduction. Saves an O(M·N) pass per ExtendedDictionary
  /// construction / known-mode recovery.
  const std::vector<double>& CachedBiasColumn() const;

  static constexpr size_t kDefaultCacheBudgetBytes = size_t{512} << 20;
  /// Default per-wave column scratch for the implicit batched kernel.
  static constexpr size_t kDefaultBatchScratchBytes = size_t{128} << 20;

 private:
  double GenerateEntry(size_t row, size_t col) const {
    return CounterGaussian(HashCombine(seed_, col)).At(row) * inv_sqrt_m_;
  }

  // Packed sign words of column `col` (kSign only).
  const uint64_t* SignColumn(size_t col) const {
    return signs_.data() + col * words_per_column_;
  }

  // Per-call correlation tables for kSign (see CorrelateAllInto).
  std::vector<double> SignTables(const std::vector<double>& r) const;
  double SignCorrelate(const double* tables, size_t col) const;

  size_t m_;
  size_t n_;
  uint64_t seed_;
  MatrixKind kind_;
  double inv_sqrt_m_;
  // Gaussian: column-major cache (cache_[col * m_ + row]) or empty when
  // implicit.
  std::vector<double> cache_;
  // Sign: ceil(M/64) words per column, column-major; bits at rows >= M are
  // zero.
  size_t words_per_column_ = 0;
  std::vector<uint64_t> signs_;
  // Lazily memoized bias column (CachedBiasColumn).
  mutable std::once_flag bias_once_;
  mutable std::vector<double> bias_column_;
};

}  // namespace csod::cs

#endif  // CSOD_CS_MEASUREMENT_MATRIX_H_
