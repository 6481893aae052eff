#include "cs/measurement_matrix.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "common/simd.h"
#include "la/vector_ops.h"

namespace csod::cs {
namespace {

// Restores the global parallelism limit a test overrode.
class ScopedParallelismLimit {
 public:
  explicit ScopedParallelismLimit(size_t limit)
      : previous_(GetParallelismLimit()) {
    SetParallelismLimit(limit);
  }
  ~ScopedParallelismLimit() { SetParallelismLimit(previous_); }

 private:
  size_t previous_;
};

class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level)
      : previous_(simd::SetLevelForTesting(level)) {}
  ~ScopedSimdLevel() { simd::SetLevelForTesting(previous_); }

 private:
  simd::Level previous_;
};

TEST(MeasurementMatrixTest, ConsensusProperty) {
  // Two "nodes" building the matrix from the same seed get identical
  // entries — the Section 3.1 consensus without transmission.
  MeasurementMatrix node_a(16, 64, /*seed=*/77);
  MeasurementMatrix node_b(16, 64, /*seed=*/77);
  for (size_t i = 0; i < 16; ++i) {
    for (size_t j = 0; j < 64; ++j) {
      EXPECT_EQ(node_a.Entry(i, j), node_b.Entry(i, j));
    }
  }
}

TEST(MeasurementMatrixTest, DifferentSeedsDiffer) {
  MeasurementMatrix a(8, 8, 1);
  MeasurementMatrix b(8, 8, 2);
  bool any_diff = false;
  for (size_t i = 0; i < 8 && !any_diff; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      if (a.Entry(i, j) != b.Entry(i, j)) {
        any_diff = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(MeasurementMatrixTest, CachedEqualsImplicit) {
  // Only the Gaussian kind has an implicit (regenerated) form.
  MeasurementMatrix cached(16, 32, 5, /*cache_budget_bytes=*/1 << 20,
                           MatrixKind::kGaussian);
  MeasurementMatrix implicit(16, 32, 5, /*cache_budget_bytes=*/0,
                             MatrixKind::kGaussian);
  ASSERT_TRUE(cached.cached());
  ASSERT_FALSE(implicit.cached());
  for (size_t i = 0; i < 16; ++i) {
    for (size_t j = 0; j < 32; ++j) {
      EXPECT_EQ(cached.Entry(i, j), implicit.Entry(i, j));
    }
  }
}

TEST(MeasurementMatrixTest, CacheBudgetRespected) {
  // 16*32*8 = 4096 bytes; a 1000-byte budget must stay implicit.
  MeasurementMatrix small_budget(16, 32, 5, 1000, MatrixKind::kGaussian);
  EXPECT_FALSE(small_budget.cached());
  // The packed sign matrix (16 x 32 bits = 256 bytes) is always stored.
  EXPECT_TRUE(MeasurementMatrix(16, 32, 5, 0, MatrixKind::kSign).cached());
}

TEST(MeasurementMatrixTest, RowPrefixProperty) {
  // A taller matrix with the same seed extends a shorter one row-wise
  // (entry (i, j) depends only on (seed, j, i), never on M) — modulo the
  // 1/sqrt(M) scaling. This is what lets the adaptive protocol request
  // additional measurement rows without re-transmitting the old ones.
  // Holds for both kinds; the sign kind's heights straddle a 64-row word.
  for (MatrixKind kind : {MatrixKind::kGaussian, MatrixKind::kSign}) {
    MeasurementMatrix short_matrix(8, 24, 99, 1 << 20, kind);
    MeasurementMatrix tall_matrix(100, 24, 99, 1 << 20, kind);
    const double rescale = std::sqrt(8.0) / std::sqrt(100.0);
    for (size_t i = 0; i < 8; ++i) {
      for (size_t j = 0; j < 24; ++j) {
        EXPECT_DOUBLE_EQ(short_matrix.Entry(i, j) * rescale,
                         tall_matrix.Entry(i, j))
            << MatrixKindName(kind) << " " << i << "," << j;
      }
    }
  }
  MeasurementMatrix mid(70, 24, 99, 0, MatrixKind::kSign);
  MeasurementMatrix tall(130, 24, 99, 0, MatrixKind::kSign);
  for (size_t i = 0; i < 70; ++i) {
    for (size_t j = 0; j < 24; ++j) {
      EXPECT_EQ(mid.Entry(i, j) > 0, tall.Entry(i, j) > 0) << i << "," << j;
    }
  }
}

TEST(MeasurementMatrixTest, EntryVariance) {
  // Entries are N(0, 1/M): empirical variance over many entries ~ 1/M.
  const size_t m = 64;
  MeasurementMatrix matrix(m, 512, 99, 1 << 20, MatrixKind::kGaussian);
  double sum = 0.0;
  double sum_sq = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < 512; ++j) {
      const double v = matrix.Entry(i, j);
      sum += v;
      sum_sq += v * v;
      ++count;
    }
  }
  const double mean = sum / count;
  const double var = sum_sq / count - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.005);
  EXPECT_NEAR(var, 1.0 / m, 0.1 / m);
}

TEST(MeasurementMatrixTest, ColumnUnitNormInExpectation) {
  // E||column||^2 = M * 1/M = 1.
  MeasurementMatrix matrix(128, 64, 3, 1 << 20, MatrixKind::kGaussian);
  double total = 0.0;
  for (size_t j = 0; j < 64; ++j) {
    total += la::Norm2Squared(matrix.Column(j));
  }
  EXPECT_NEAR(total / 64.0, 1.0, 0.1);
}

TEST(MeasurementMatrixTest, MultiplyMatchesManual) {
  MeasurementMatrix matrix(8, 10, 42);
  std::vector<double> x(10);
  Rng rng(7);
  for (double& v : x) v = rng.NextGaussian();
  auto y = matrix.Multiply(x);
  ASSERT_TRUE(y.ok());
  for (size_t i = 0; i < 8; ++i) {
    double expected = 0.0;
    for (size_t j = 0; j < 10; ++j) expected += matrix.Entry(i, j) * x[j];
    EXPECT_NEAR(y.Value()[i], expected, 1e-12);
  }
}

TEST(MeasurementMatrixTest, MultiplySparseMatchesDense) {
  MeasurementMatrix matrix(12, 50, 11);
  std::vector<double> x(50, 0.0);
  x[3] = 2.5;
  x[17] = -1.0;
  x[49] = 7.0;
  auto dense = matrix.Multiply(x);
  auto sparse = matrix.MultiplySparse({3, 17, 49}, {2.5, -1.0, 7.0});
  ASSERT_TRUE(dense.ok());
  ASSERT_TRUE(sparse.ok());
  EXPECT_NEAR(la::DistanceL2(dense.Value(), sparse.Value()), 0.0, 1e-12);
}

TEST(MeasurementMatrixTest, MultiplyErrors) {
  MeasurementMatrix matrix(4, 6, 1);
  EXPECT_FALSE(matrix.Multiply({1, 2}).ok());
  EXPECT_FALSE(matrix.MultiplySparse({7}, {1.0}).ok());  // index out of N
  EXPECT_FALSE(matrix.MultiplySparse({1, 2}, {1.0}).ok());  // size mismatch
  EXPECT_FALSE(matrix.CorrelateAll({1, 2}).ok());
}

TEST(MeasurementMatrixTest, CorrelateAllMatchesColumnDots) {
  MeasurementMatrix matrix(10, 20, 13);
  std::vector<double> r(10);
  Rng rng(3);
  for (double& v : r) v = rng.NextGaussian();
  auto c = matrix.CorrelateAll(r);
  ASSERT_TRUE(c.ok());
  for (size_t j = 0; j < 20; ++j) {
    EXPECT_NEAR(c.Value()[j], la::Dot(matrix.Column(j), r), 1e-12);
  }
}

TEST(MeasurementMatrixTest, CorrelateImplicitMatchesCached) {
  MeasurementMatrix cached(10, 20, 13, 1 << 20, MatrixKind::kGaussian);
  MeasurementMatrix implicit(10, 20, 13, /*cache_budget_bytes=*/0,
                             MatrixKind::kGaussian);
  std::vector<double> r(10);
  Rng rng(3);
  for (double& v : r) v = rng.NextGaussian();
  auto a = cached.CorrelateAll(r);
  auto b = implicit.CorrelateAll(r);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(la::DistanceL2(a.Value(), b.Value()), 0.0, 1e-10);
}

// Reference implementation of the fused kernel: full correlate, then an
// ascending strict-> scan (lowest index wins ties).
CorrelateArgmaxResult ScanArgmax(const MeasurementMatrix& matrix,
                                 const std::vector<double>& r,
                                 const std::vector<bool>* skip) {
  auto c = matrix.CorrelateAll(r).MoveValue();
  CorrelateArgmaxResult out;
  for (size_t j = 0; j < c.size(); ++j) {
    if (skip != nullptr && (*skip)[j]) continue;
    const double a = std::fabs(c[j]);
    if (a > out.abs_correlation) {
      out.abs_correlation = a;
      out.correlation = c[j];
      out.index = j;
    }
  }
  return out;
}

TEST(MeasurementMatrixTest, CorrelateArgmaxMatchesScan) {
  // n = 600 exercises the 4-wide register-blocked path plus remainder
  // columns; masks carve unaligned holes into the 4-column batches.
  for (const size_t budget : {size_t{1} << 24, size_t{0}, size_t{1}}) {
    // budget 1 selects the packed sign kind.
    MeasurementMatrix matrix(
        24, 600, 17, budget,
        budget == 1 ? MatrixKind::kSign : MatrixKind::kGaussian);
    Rng rng(29);
    std::vector<double> r(24);
    for (double& v : r) v = rng.NextGaussian();

    std::vector<bool> mask(600, false);
    for (size_t round = 0; round < 8; ++round) {
      const auto expected = ScanArgmax(matrix, r, &mask);
      const auto got = matrix.CorrelateArgmax(r, &mask).MoveValue();
      EXPECT_EQ(got.index, expected.index) << "budget=" << budget;
      EXPECT_EQ(got.correlation, expected.correlation);  // Bitwise.
      EXPECT_EQ(got.abs_correlation, expected.abs_correlation);
      ASSERT_NE(got.index, CorrelateArgmaxResult::kNoIndex);
      mask[got.index] = true;  // Mimic OMP: knock out the winner, repeat.
    }

    // No mask at all.
    const auto no_mask = matrix.CorrelateArgmax(r).MoveValue();
    const auto no_mask_expected = ScanArgmax(matrix, r, nullptr);
    EXPECT_EQ(no_mask.index, no_mask_expected.index);
    EXPECT_EQ(no_mask.abs_correlation, no_mask_expected.abs_correlation);
  }
}

TEST(MeasurementMatrixTest, CorrelateArgmaxTieBreaksLowestIndex) {
  MeasurementMatrix matrix(8, 40, 3);
  // r = 0 makes every correlation exactly 0.0 — a 40-way tie. The lowest
  // unmasked index must win.
  const std::vector<double> zero(8, 0.0);
  auto pick = matrix.CorrelateArgmax(zero).MoveValue();
  EXPECT_EQ(pick.index, 0u);
  EXPECT_EQ(pick.abs_correlation, 0.0);

  std::vector<bool> mask(40, false);
  mask[0] = mask[1] = mask[2] = true;
  pick = matrix.CorrelateArgmax(zero, &mask).MoveValue();
  EXPECT_EQ(pick.index, 3u);
  EXPECT_EQ(pick.abs_correlation, 0.0);
}

TEST(MeasurementMatrixTest, CorrelateArgmaxAllMaskedReturnsNoIndex) {
  MeasurementMatrix matrix(8, 20, 3);
  std::vector<double> r(8, 1.0);
  std::vector<bool> mask(20, true);
  auto pick = matrix.CorrelateArgmax(r, &mask).MoveValue();
  EXPECT_EQ(pick.index, CorrelateArgmaxResult::kNoIndex);
}

TEST(MeasurementMatrixTest, CorrelateArgmaxErrors) {
  MeasurementMatrix matrix(8, 20, 3);
  EXPECT_FALSE(matrix.CorrelateArgmax({1.0, 2.0}).ok());  // r size != M
  std::vector<double> r(8, 1.0);
  std::vector<bool> short_mask(20, false);
  // With skip_offset = 1 the mask must cover n + 1 entries.
  EXPECT_FALSE(matrix.CorrelateArgmax(r, &short_mask, 1).ok());
}

TEST(MeasurementMatrixTest, MultiplySparseDuplicateIndicesAccumulate) {
  // A pre-aggregation slice may legitimately carry the same key twice; the
  // kernel must treat that as the summed coefficient.
  MeasurementMatrix matrix(12, 50, 11);
  auto dup = matrix.MultiplySparse({3, 17, 3}, {2.5, -1.0, 1.5});
  auto manual = matrix.Multiply([] {
    std::vector<double> x(50, 0.0);
    x[3] = 2.5 + 1.5;
    x[17] = -1.0;
    return x;
  }());
  ASSERT_TRUE(dup.ok());
  ASSERT_TRUE(manual.ok());
  EXPECT_NEAR(la::DistanceL2(dup.Value(), manual.Value()), 0.0, 1e-12);
}

TEST(MeasurementMatrixTest, CorrelateImplicitMatchesCachedBitwise) {
  // Both paths dot the same pre-scaled column bits through the same
  // canonical lane split, so cached vs implicit is exact, not approximate.
  MeasurementMatrix cached(24, 600, 13, size_t{1} << 24,
                           MatrixKind::kGaussian);
  MeasurementMatrix implicit(24, 600, 13, /*cache_budget_bytes=*/0,
                             MatrixKind::kGaussian);
  std::vector<double> r(24);
  Rng rng(3);
  for (double& v : r) v = rng.NextGaussian();
  auto a = cached.CorrelateAll(r);
  auto b = implicit.CorrelateAll(r);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.Value(), b.Value());
}

TEST(MeasurementMatrixTest, KernelsBitIdenticalAcrossLimitsAndLevels) {
  // N spans multiple reduction blocks (kReductionBlockColumns) and the
  // sparse input spans multiple nnz blocks, so the fixed-geometry partials
  // actually get exercised. Reference: serial + portable SIMD.
  const size_t m = 24, n = 5000;
  Rng rng(41);
  std::vector<double> x(n, 0.0);
  for (size_t i = 0; i < n; i += 3) x[i] = rng.NextGaussian();
  std::vector<size_t> sparse_idx;
  std::vector<double> sparse_val;
  for (size_t k = 0; k < 1300; ++k) {
    sparse_idx.push_back((k * 37) % n);
    sparse_val.push_back(rng.NextGaussian());
  }
  std::vector<double> r(m);
  for (double& v : r) v = rng.NextGaussian();

  // Gaussian cached, Gaussian implicit, and the packed sign kind (its
  // budget is ignored).
  for (const size_t budget : {size_t{1} << 24, size_t{0}, size_t{1}}) {
    MeasurementMatrix matrix(
        m, n, 17, budget,
        budget == 1 ? MatrixKind::kSign : MatrixKind::kGaussian);

    std::vector<double> ref_multiply, ref_sparse, ref_correlate, ref_bias;
    CorrelateArgmaxResult ref_argmax;
    {
      ScopedParallelismLimit serial(1);
      ScopedSimdLevel portable(simd::Level::kPortable);
      ref_multiply = matrix.Multiply(x).MoveValue();
      ref_sparse = matrix.MultiplySparse(sparse_idx, sparse_val).MoveValue();
      ref_correlate = matrix.CorrelateAll(r).MoveValue();
      ref_bias = matrix.BiasColumn();
      ref_argmax = matrix.CorrelateArgmax(r).MoveValue();
    }

    for (const size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
      for (simd::Level level :
           {simd::Level::kPortable, simd::Level::kAvx2}) {
        ScopedParallelismLimit scoped_limit(limit);
        ScopedSimdLevel scoped_level(level);
        const auto label = [&] {
          return std::string(MatrixKindName(matrix.kind())) +
                 " budget=" + std::to_string(budget) +
                 " limit=" + std::to_string(limit) + " level=" +
                 std::string(simd::LevelName(simd::ActiveLevel()));
        };
        EXPECT_EQ(matrix.Multiply(x).Value(), ref_multiply) << label();
        EXPECT_EQ(matrix.MultiplySparse(sparse_idx, sparse_val).Value(),
                  ref_sparse)
            << label();
        EXPECT_EQ(matrix.CorrelateAll(r).Value(), ref_correlate) << label();
        EXPECT_EQ(matrix.BiasColumn(), ref_bias) << label();
        const auto argmax = matrix.CorrelateArgmax(r).MoveValue();
        EXPECT_EQ(argmax.index, ref_argmax.index) << label();
        EXPECT_EQ(argmax.correlation, ref_argmax.correlation) << label();
      }
    }
  }
}

TEST(MeasurementMatrixTest, MultiplySparseBatchTinyScratchMatchesPerSlice) {
  // A scratch budget far below one wave's worth of columns forces the
  // implicit batch kernel through many generation waves; every wave split
  // must leave the per-slice and summed bits untouched.
  const size_t m = 16, n = 2000;
  MeasurementMatrix implicit(m, n, 23, /*cache_budget_bytes=*/0,
                             MatrixKind::kGaussian);
  Rng rng(9);
  std::vector<SparseVectorView> views;
  std::vector<std::vector<size_t>> idx(4);
  std::vector<std::vector<double>> val(4);
  for (size_t l = 0; l < 4; ++l) {
    const size_t nnz = 700 + 100 * l;  // > kReductionBlockNnz: multi-block.
    for (size_t k = 0; k < nnz; ++k) {
      idx[l].push_back((k * 13 + l) % n);
      val[l].push_back(rng.NextGaussian());
    }
    views.push_back(SparseVectorView{idx[l].data(), val[l].data(), nnz});
  }

  std::vector<double> expected_sum(m, 0.0);
  std::vector<double> expected_per(4 * m);
  for (size_t l = 0; l < 4; ++l) {
    auto y = implicit.MultiplySparse(idx[l], val[l]);
    ASSERT_TRUE(y.ok());
    std::copy(y.Value().begin(), y.Value().end(),
              expected_per.begin() + l * m);
    for (size_t i = 0; i < m; ++i) expected_sum[i] += y.Value()[i];
  }

  // One column of scratch (m * 8 bytes) — the floor still guarantees a full
  // reduction block per wave; anything smaller is clamped up.
  for (const size_t scratch : {size_t{1}, m * sizeof(double) * 10,
                               MeasurementMatrix::kDefaultBatchScratchBytes}) {
    std::vector<double> sum, per;
    ASSERT_TRUE(implicit.MultiplySparseBatch(views, &sum, &per, scratch).ok());
    EXPECT_EQ(sum, expected_sum) << "scratch=" << scratch;
    EXPECT_EQ(per, expected_per) << "scratch=" << scratch;
  }

  // Sum-only and per-slice-only modes agree with the combined call.
  std::vector<double> sum_only;
  ASSERT_TRUE(
      implicit.MultiplySparseBatch(views, &sum_only, nullptr, 1).ok());
  EXPECT_EQ(sum_only, expected_sum);
  std::vector<double> per_only;
  ASSERT_TRUE(
      implicit.MultiplySparseBatch(views, nullptr, &per_only, 1).ok());
  EXPECT_EQ(per_only, expected_per);
}

TEST(MeasurementMatrixTest, CachedBiasColumnMatchesFreshCompute) {
  MeasurementMatrix matrix(16, 3000, 7);
  const std::vector<double>& cached = matrix.CachedBiasColumn();
  EXPECT_EQ(cached, matrix.BiasColumn());  // Bitwise.
  // Memoized: the second call hands back the same vector.
  EXPECT_EQ(&matrix.CachedBiasColumn(), &cached);
}

TEST(MeasurementMatrixTest, BiasColumnIsScaledColumnSum) {
  MeasurementMatrix matrix(6, 9, 21);
  const std::vector<double> phi0 = matrix.BiasColumn();
  for (size_t i = 0; i < 6; ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < 9; ++j) sum += matrix.Entry(i, j);
    EXPECT_NEAR(phi0[i], sum / std::sqrt(9.0), 1e-12);
  }
}

TEST(MeasurementMatrixTest, MatrixKindNamesAndBytesRoundTrip) {
  EXPECT_STREQ(MatrixKindName(MatrixKind::kGaussian), "gaussian");
  EXPECT_STREQ(MatrixKindName(MatrixKind::kSign), "sign");
  for (MatrixKind kind : {MatrixKind::kGaussian, MatrixKind::kSign}) {
    EXPECT_EQ(MatrixKindFromByte(static_cast<uint8_t>(kind)).Value(), kind);
  }
  EXPECT_EQ(MatrixKindFromByte(2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MeasurementMatrixTest, MatrixKindFollowsGeometry) {
  // Compressive geometries, as the benchmarks run them, are packed ±1.
  EXPECT_EQ(MatrixKindFor(700, 20000), MatrixKind::kSign);
  EXPECT_EQ(MatrixKindFor(256, 50000), MatrixKind::kSign);
  EXPECT_EQ(MatrixKindFor(400, 800), MatrixKind::kSign);
  // Near square (M > N/2): Gaussian.
  EXPECT_EQ(MatrixKindFor(4, 4), MatrixKind::kGaussian);
  EXPECT_EQ(MatrixKindFor(400, 400), MatrixKind::kGaussian);
  EXPECT_EQ(MatrixKindFor(401, 800), MatrixKind::kGaussian);
  // Too few rows to keep ±1 columns apart: M < 2·bit_width(N) + 32.
  EXPECT_EQ(MatrixKindFor(49, 500), MatrixKind::kGaussian);
  EXPECT_EQ(MatrixKindFor(50, 500), MatrixKind::kSign);
  EXPECT_EQ(MatrixKindFor(16, 64), MatrixKind::kGaussian);
  // Past kMaxPackedSignBytes, where only the Gaussian kind can stay
  // implicit.
  EXPECT_EQ(MatrixKindFor(128, kMaxPackedSignBytes / 16), MatrixKind::kSign);
  EXPECT_EQ(MatrixKindFor(128, kMaxPackedSignBytes / 16 + 1),
            MatrixKind::kGaussian);
  EXPECT_EQ(MatrixKindFor(size_t{1} << 30, size_t{1} << 62),
            MatrixKind::kGaussian);
  // The 4-argument constructor builds that kind.
  EXPECT_EQ(MeasurementMatrix(4, 4, 1).kind(), MatrixKind::kGaussian);
  EXPECT_EQ(MeasurementMatrix(100, 1000, 1).kind(), MatrixKind::kSign);
}

TEST(MeasurementMatrixTest, SignEntriesArePlusMinusInvSqrtM) {
  const size_t m = 100;  // Two words per column, the second partial.
  MeasurementMatrix matrix(m, 300, 5, 0, MatrixKind::kSign);
  const double c = 1.0 / std::sqrt(100.0);
  size_t negatives = 0;
  std::vector<double> column(m);
  for (size_t j = 0; j < 300; ++j) {
    matrix.FillColumn(j, column.data());
    for (size_t i = 0; i < m; ++i) {
      ASSERT_TRUE(matrix.Entry(i, j) == c || matrix.Entry(i, j) == -c);
      EXPECT_EQ(column[i], matrix.Entry(i, j));
      negatives += matrix.Entry(i, j) < 0;
    }
    EXPECT_NEAR(la::Norm2Squared(column), 1.0, 1e-12);  // Exactly unit.
  }
  // Fair signs: 30000 draws, 5 sigma is ~433.
  EXPECT_NEAR(static_cast<double>(negatives), 15000.0, 433.0);
}

TEST(MeasurementMatrixTest, SignKernelsMatchColumnReference) {
  // Sketching is exact signed adds, so it is bit-identical to the Axpy
  // reference over the materialized ±1/√M columns; correlation sums table
  // lookups in its own fixed order, so it matches the column dots to
  // rounding. m = 70 leaves a partial 8-row group and a partial word.
  const size_t m = 70, n = 4500;
  MeasurementMatrix matrix(m, n, 31, 0, MatrixKind::kSign);
  Rng rng(12);
  std::vector<double> x(n, 0.0);
  for (size_t j = 0; j < n; j += 2) x[j] = rng.NextGaussian();
  std::vector<double> r(m);
  for (double& v : r) v = rng.NextGaussian();

  std::vector<double> column(m);
  std::vector<double> bias(m, 0.0);
  std::vector<double> multiply(m, 0.0);
  std::vector<double> reference_block(m, 0.0);
  const auto correlations = matrix.CorrelateAll(r).MoveValue();
  for (size_t j = 0; j < n; ++j) {
    matrix.FillColumn(j, column.data());
    for (size_t i = 0; i < m; ++i) bias[i] += column[i];
    EXPECT_NEAR(correlations[j], la::Dot(column, r), 1e-12) << j;
    // The Multiply reference keeps the fixed 2048-column block split.
    if (x[j] != 0.0) simd::Axpy(reference_block.data(), column.data(), x[j], m);
    if ((j + 1) % 2048 == 0 || j + 1 == n) {
      simd::Add(multiply.data(), reference_block.data(), m);
      reference_block.assign(m, 0.0);
    }
  }
  EXPECT_EQ(matrix.Multiply(x).Value(), multiply);
  const std::vector<double> phi0 = matrix.BiasColumn();
  for (size_t i = 0; i < m; ++i) {
    EXPECT_NEAR(phi0[i], bias[i] / std::sqrt(double(n)), 1e-12) << i;
  }

  std::vector<size_t> idx = {3, 17, 3, 4499, 250};
  std::vector<double> val = {2.5, -1.0, 1.5, 7.0, -0.25};
  std::vector<double> sparse(m, 0.0);
  for (size_t k = 0; k < idx.size(); ++k) {
    matrix.FillColumn(idx[k], column.data());
    simd::Axpy(sparse.data(), column.data(), val[k], m);
  }
  EXPECT_EQ(matrix.MultiplySparse(idx, val).Value(), sparse);
}

TEST(MeasurementMatrixTest, SignBatchMatchesPerSliceAndAggregate) {
  // MultiplySparseBatch ≡ per-slice MultiplySparse ≡ their slice-order sum
  // on the packed kind, at every thread limit and SIMD level.
  const size_t m = 40, n = 3000;
  MeasurementMatrix matrix(m, n, 8, 0, MatrixKind::kSign);
  Rng rng(4);
  std::vector<std::vector<size_t>> idx(5);
  std::vector<std::vector<double>> val(5);
  std::vector<SparseVectorView> views;
  for (size_t l = 0; l < 5; ++l) {
    const size_t nnz = l == 2 ? 0 : 300 + 250 * l;
    for (size_t k = 0; k < nnz; ++k) {
      idx[l].push_back((k * 11 + 7 * l) % n);
      val[l].push_back(rng.NextGaussian());
    }
    views.push_back(SparseVectorView{idx[l].data(), val[l].data(), nnz});
  }
  std::vector<double> expected_sum(m, 0.0), expected_per;
  for (size_t l = 0; l < 5; ++l) {
    const auto y = matrix.MultiplySparse(idx[l], val[l]).MoveValue();
    expected_per.insert(expected_per.end(), y.begin(), y.end());
    simd::Add(expected_sum.data(), y.data(), m);
  }
  for (const size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
    for (simd::Level level : {simd::Level::kPortable, simd::Level::kAvx2}) {
      ScopedParallelismLimit scoped_limit(limit);
      ScopedSimdLevel scoped_level(level);
      std::vector<double> sum, per, sum_only;
      ASSERT_TRUE(matrix.MultiplySparseBatch(views, &sum, &per).ok());
      ASSERT_TRUE(matrix.MultiplySparseBatch(views, &sum_only).ok());
      EXPECT_EQ(sum, expected_sum) << limit;
      EXPECT_EQ(sum_only, expected_sum) << limit;
      EXPECT_EQ(per, expected_per) << limit;
    }
  }
}

}  // namespace
}  // namespace csod::cs
