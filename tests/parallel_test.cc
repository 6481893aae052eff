#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "cs/bomp.h"
#include "cs/measurement_matrix.h"
#include "la/vector_ops.h"

namespace csod {
namespace {

// Restores the global parallelism limit after each test.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    SetParallelismLimit(
        std::max<size_t>(1, std::thread::hardware_concurrency()));
  }
};

TEST_F(ParallelTest, CoversWholeRangeExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u, 7u}) {
    SetParallelismLimit(threads);
    const size_t count = 1003;
    std::vector<std::atomic<int>> touched(count);
    for (auto& t : touched) t.store(0);
    ParallelFor(count, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
    });
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(touched[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST_F(ParallelTest, ZeroCountIsNoop) {
  bool called = false;
  ParallelFor(0, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_F(ParallelTest, SmallRangeStaysSerial) {
  SetParallelismLimit(8);
  // min_chunk larger than count: single chunk on the calling thread.
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id seen;
  ParallelFor(10, 100, [&](size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, self);
}

TEST_F(ParallelTest, LimitControlsMaxThreads) {
  SetParallelismLimit(3);
  EXPECT_EQ(GetParallelismLimit(), 3u);
  SetParallelismLimit(0);  // Clamped to >= 1.
  EXPECT_GE(GetParallelismLimit(), 1u);
}

TEST_F(ParallelTest, ParallelForChunksUsesCallerChunkCount) {
  SetParallelismLimit(4);
  const size_t count = 1000;
  const size_t chunk_count = ParallelChunkCount(count, 100);
  EXPECT_EQ(chunk_count, 4u);  // min(limit, count / min_chunk).
  std::vector<std::atomic<int>> touched(count);
  for (auto& t : touched) t.store(0);
  std::vector<std::atomic<int>> chunk_seen(chunk_count);
  for (auto& c : chunk_seen) c.store(0);
  ParallelForChunks(count, chunk_count,
                    [&](size_t chunk, size_t begin, size_t end) {
                      ASSERT_LT(chunk, chunk_count);
                      chunk_seen[chunk].fetch_add(1);
                      for (size_t i = begin; i < end; ++i) {
                        touched[i].fetch_add(1);
                      }
                    });
  for (size_t i = 0; i < count; ++i) EXPECT_EQ(touched[i].load(), 1);
  for (size_t c = 0; c < chunk_count; ++c) EXPECT_EQ(chunk_seen[c].load(), 1);
}

TEST_F(ParallelTest, CorrelateKernelsBitIdenticalAcrossLimits) {
  // n > 256 (kMinColumnsPerChunk) so the parallel paths actually engage.
  const size_t m = 48;
  const size_t n = 2000;
  std::vector<double> r(m);
  for (size_t i = 0; i < m; ++i) {
    r[i] = std::cos(0.7 * static_cast<double>(i)) - 0.3;
  }
  std::vector<bool> mask(n, false);
  for (size_t j = 0; j < n; j += 13) mask[j] = true;

  SetParallelismLimit(1);
  cs::MeasurementMatrix matrix(m, n, 99);
  const auto base_corr = matrix.CorrelateAll(r).MoveValue();
  const auto base_pick = matrix.CorrelateArgmax(r, &mask).MoveValue();

  for (size_t limit : {2u, 8u}) {
    SetParallelismLimit(limit);
    const auto corr = matrix.CorrelateAll(r).MoveValue();
    EXPECT_EQ(corr, base_corr) << "limit=" << limit;  // Bitwise.
    const auto pick = matrix.CorrelateArgmax(r, &mask).MoveValue();
    EXPECT_EQ(pick.index, base_pick.index) << "limit=" << limit;
    EXPECT_EQ(pick.correlation, base_pick.correlation) << "limit=" << limit;
    EXPECT_EQ(pick.abs_correlation, base_pick.abs_correlation)
        << "limit=" << limit;
  }

  // Changing the limit mid-process (after the pool has already grown and
  // run jobs) must not change results either.
  SetParallelismLimit(8);
  ParallelFor(n, 1, [](size_t, size_t) {});  // Grow the pool.
  SetParallelismLimit(3);
  const auto corr = matrix.CorrelateAll(r).MoveValue();
  EXPECT_EQ(corr, base_corr);
  const auto pick = matrix.CorrelateArgmax(r, &mask).MoveValue();
  EXPECT_EQ(pick.index, base_pick.index);
  EXPECT_EQ(pick.abs_correlation, base_pick.abs_correlation);
}

TEST_F(ParallelTest, MatrixKernelsIdenticalAtAnyThreadCount) {
  // The correlation and cache-construction results must be bit-identical
  // regardless of the parallelism limit.
  std::vector<double> r(64);
  for (size_t i = 0; i < r.size(); ++i) {
    r[i] = std::sin(static_cast<double>(i) + 1.0);
  }

  for (cs::MatrixKind kind :
       {cs::MatrixKind::kGaussian, cs::MatrixKind::kSign}) {
    const size_t budget = cs::MeasurementMatrix::kDefaultCacheBudgetBytes;
    SetParallelismLimit(1);
    cs::MeasurementMatrix serial(64, 3000, 7, budget, kind);
    auto serial_corr = serial.CorrelateAll(r).MoveValue();

    SetParallelismLimit(4);
    cs::MeasurementMatrix parallel(64, 3000, 7, budget, kind);
    auto parallel_corr = parallel.CorrelateAll(r).MoveValue();

    EXPECT_EQ(serial_corr, parallel_corr) << cs::MatrixKindName(kind);
    for (size_t j = 0; j < 3000; j += 371) {
      EXPECT_EQ(serial.Column(j), parallel.Column(j))
          << cs::MatrixKindName(kind) << " column " << j;
    }
  }
}

TEST_F(ParallelTest, BlockedReductionsBitIdenticalAcrossLimits) {
  // Multiply / MultiplySparse / BiasColumn reduce fixed-geometry blocks
  // (kReductionBlockColumns / kReductionBlockNnz) in block order, so the
  // sums must be bitwise identical at any limit. n > 2048 forces the
  // multi-block path.
  const size_t m = 24;
  const size_t n = 5000;
  std::vector<double> x(n);
  Rng rng(31);
  for (double& v : x) v = rng.NextGaussian();
  std::vector<size_t> sp_idx;
  std::vector<double> sp_val;
  for (size_t j = 0; j < n; j += 7) {
    sp_idx.push_back(j);
    sp_val.push_back(x[j]);
  }

  SetParallelismLimit(1);
  cs::MeasurementMatrix matrix(m, n, 55);
  const auto base_mul = matrix.Multiply(x).MoveValue();
  const auto base_sparse = matrix.MultiplySparse(sp_idx, sp_val).MoveValue();
  const auto base_bias = matrix.BiasColumn();

  for (size_t limit : {2u, 8u}) {
    SetParallelismLimit(limit);
    EXPECT_EQ(matrix.Multiply(x).MoveValue(), base_mul) << "limit=" << limit;
    EXPECT_EQ(matrix.MultiplySparse(sp_idx, sp_val).MoveValue(), base_sparse)
        << "limit=" << limit;
    EXPECT_EQ(matrix.BiasColumn(), base_bias) << "limit=" << limit;
  }
}

TEST_F(ParallelTest, BompSupportsIdenticalAcrossLimits) {
  // End-to-end determinism: recovered supports and coefficients from the
  // fused-argmax OMP loop are bit-identical at any thread count. n >= 3000
  // so the CorrelateArgmax parallel path engages (kMinColumnsPerChunk=256).
  const size_t m = 64;
  const size_t n = 3000;
  std::vector<double> x(n, 2.0);  // Mode b = 2.
  x[100] = 9.0;
  x[2048] = -5.0;
  x[2999] = 6.5;

  SetParallelismLimit(1);
  cs::MeasurementMatrix matrix(m, n, 123);
  const auto y = matrix.Multiply(x).MoveValue();
  cs::BompOptions options;
  options.max_iterations = 40;
  const auto base = cs::RunBomp(matrix, y, options).MoveValue();
  ASSERT_FALSE(base.entries.empty());

  for (size_t limit : {2u, 8u}) {
    SetParallelismLimit(limit);
    const auto run = cs::RunBomp(matrix, y, options).MoveValue();
    ASSERT_EQ(run.entries.size(), base.entries.size()) << "limit=" << limit;
    for (size_t i = 0; i < run.entries.size(); ++i) {
      EXPECT_EQ(run.entries[i].index, base.entries[i].index);
      EXPECT_EQ(run.entries[i].value, base.entries[i].value);  // Bitwise.
    }
    EXPECT_EQ(run.mode, base.mode);
    EXPECT_EQ(run.iterations, base.iterations);
  }
}

}  // namespace
}  // namespace csod
