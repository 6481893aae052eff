#include "cs/measurement_matrix.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>

#include "common/parallel.h"
#include "common/simd.h"

namespace csod::cs {

namespace {
// Minimum per-thread column count before ParallelFor spawns workers — the
// kernels below cost >= M flops per column, so tiny jobs stay serial.
constexpr size_t kMinColumnsPerChunk = 256;

// Column *generation* (Box-Muller: log/sqrt/sincos per pair) is an order of
// magnitude heavier than an M-flop pass, so the implicit batch kernel
// parallelizes generation at a much finer grain.
constexpr size_t kMinColumnsPerGeneration = 32;

// Fixed block geometry for the reduction kernels (Multiply, MultiplySparse,
// MultiplySparseBatch, BiasColumn). Each block accumulates a private partial
// vector; partials are combined serially in block order. The block size must
// NOT depend on the parallelism limit: that keeps the floating-point
// summation tree — and so the result — bit-identical at any thread count.
constexpr size_t kReductionBlockColumns = 2048;
constexpr size_t kReductionBlockNnz = 512;

// Streams (column pointer, coefficient) pairs into `acc` eight at a time
// via the fused simd::Axpy8, falling back to Axpy4/Axpy for the remainder.
// Every fused form is bit-identical to one simd::Axpy per entry in push
// order (common/simd.h), so batch boundaries never affect the result — only
// the number of passes over acc and the number of concurrent load streams.
class AxpyBatcher {
 public:
  AxpyBatcher(double* acc, size_t m) : acc_(acc), m_(m) {}

  void Push(const double* col, double x) {
    cols_[filled_] = col;
    xs_[filled_] = x;
    if (++filled_ == 8) Flush();
  }

  void Flush() {
    size_t k = 0;
    if (filled_ == 8) {
      simd::Axpy8(acc_, cols_, xs_, m_);
      k = 8;
    } else if (filled_ >= 4) {
      simd::Axpy4(acc_, cols_[0], xs_[0], cols_[1], xs_[1], cols_[2], xs_[2],
                  cols_[3], xs_[3], m_);
      k = 4;
    }
    for (; k < filled_; ++k) simd::Axpy(acc_, cols_[k], xs_[k], m_);
    filled_ = 0;
  }

 private:
  double* acc_;
  size_t m_;
  const double* cols_[8];
  double xs_[8];
  size_t filled_ = 0;
};

// The packed-sign counterpart: streams (sign column, v = x/√M) pairs into
// `acc` eight at a time via simd::SignedAdd8. Fused and single-stream
// forms are bit-identical to one SignedAdd per entry in push order — and,
// because the flip is exact, to the AxpyBatcher over the materialized ±1/√M
// columns.
class SignBatcher {
 public:
  SignBatcher(double* acc, size_t m) : acc_(acc), m_(m) {}

  void Push(const uint64_t* signs, double v) {
    signs_[filled_] = signs;
    vs_[filled_] = v;
    if (++filled_ == 8) Flush();
  }

  void Flush() {
    if (filled_ == 8) {
      simd::SignedAdd8(acc_, signs_, vs_, m_);
    } else {
      for (size_t k = 0; k < filled_; ++k) {
        simd::SignedAdd(acc_, signs_[k], vs_[k], m_);
      }
    }
    filled_ = 0;
  }

 private:
  double* acc_;
  size_t m_;
  const uint64_t* signs_[8];
  double vs_[8];
  size_t filled_ = 0;
};

// Byte t of kSpreadBits[b] is bit t of b: adding it to a word of eight
// byte counters counts the set bits of one 8-row sign byte in one add.
constexpr std::array<uint64_t, 256> kSpreadBits = [] {
  std::array<uint64_t, 256> spread{};
  for (uint64_t b = 0; b < 256; ++b) {
    for (uint64_t t = 0; t < 8; ++t) spread[b] |= ((b >> t) & 1) << (8 * t);
  }
  return spread;
}();

// Same idea for unscaled column sums (BiasColumn).
class AddBatcher {
 public:
  AddBatcher(double* acc, size_t m) : acc_(acc), m_(m) {}

  void Push(const double* col) {
    cols_[filled_] = col;
    if (++filled_ == 4) Flush();
  }

  void Flush() {
    if (filled_ == 4) {
      simd::Add4(acc_, cols_[0], cols_[1], cols_[2], cols_[3], m_);
    } else {
      for (size_t k = 0; k < filled_; ++k) simd::Add(acc_, cols_[k], m_);
    }
    filled_ = 0;
  }

 private:
  double* acc_;
  size_t m_;
  const double* cols_[4];
  size_t filled_ = 0;
};

// Folds a candidate (index, value) into the running chunk-local argmax.
// Strict > with ascending candidate order == lowest index wins on ties.
inline void FoldArgmax(size_t index, double value,
                       CorrelateArgmaxResult* best) {
  const double abs_value = std::fabs(value);
  if (abs_value > best->abs_correlation) {
    best->index = index;
    best->correlation = value;
    best->abs_correlation = abs_value;
  }
}

}  // namespace

const char* MatrixKindName(MatrixKind kind) {
  return kind == MatrixKind::kSign ? "sign" : "gaussian";
}

MatrixKind MatrixKindFor(size_t m, size_t n) {
  if (m > n / 2) return MatrixKind::kGaussian;
  if (m < 2 * std::bit_width(n) + 32) return MatrixKind::kGaussian;
  // Divide, never multiply: n·words·8 may wrap size_t.
  const size_t words = (m + 63) / 64;
  if (n > kMaxPackedSignBytes / sizeof(uint64_t) / words) {
    return MatrixKind::kGaussian;
  }
  return MatrixKind::kSign;
}

Result<MatrixKind> MatrixKindFromByte(uint8_t byte) {
  if (byte == static_cast<uint8_t>(MatrixKind::kGaussian)) {
    return MatrixKind::kGaussian;
  }
  if (byte == static_cast<uint8_t>(MatrixKind::kSign)) return MatrixKind::kSign;
  return Status::InvalidArgument("unknown matrix kind byte " +
                                 std::to_string(byte));
}

MeasurementMatrix::MeasurementMatrix(size_t m, size_t n, uint64_t seed,
                                     size_t cache_budget_bytes)
    : MeasurementMatrix(m, n, seed, cache_budget_bytes, MatrixKindFor(m, n)) {}

MeasurementMatrix::MeasurementMatrix(size_t m, size_t n, uint64_t seed,
                                     size_t cache_budget_bytes,
                                     MatrixKind kind)
    : m_(m),
      n_(n),
      seed_(seed),
      kind_(kind),
      inv_sqrt_m_(1.0 / std::sqrt(double(m))) {
  if (kind_ == MatrixKind::kSign) {
    words_per_column_ = (m_ + 63) / 64;
    signs_.resize(words_per_column_ * n_);
    const uint64_t tail_mask =
        m_ % 64 == 0 ? ~uint64_t{0} : (uint64_t{1} << (m_ % 64)) - 1;
    ParallelFor(n_, kMinColumnsPerChunk, [&](size_t begin, size_t end) {
      for (size_t col = begin; col < end; ++col) {
        const uint64_t column_seed = HashCombine(seed_, col);
        uint64_t* dst = signs_.data() + col * words_per_column_;
        for (size_t w = 0; w < words_per_column_; ++w) {
          dst[w] = HashCombine(column_seed, w);
        }
        if (words_per_column_ > 0) dst[words_per_column_ - 1] &= tail_mask;
      }
    });
    return;
  }
  // Divide, never multiply, before the product is known to fit: an m·n
  // that wraps size_t must read as "over budget", not as a tiny cache.
  const bool fits = m_ == 0 || n_ <= cache_budget_bytes / sizeof(double) / m_;
  if (cache_budget_bytes > 0 && fits) {
    cache_.resize(m_ * n_);
    // Column-parallel and deterministic: each column's entries are a pure
    // function of (seed, col, row), written to a disjoint cache range.
    ParallelFor(n_, kMinColumnsPerChunk, [&](size_t begin, size_t end) {
      for (size_t col = begin; col < end; ++col) {
        CounterGaussian gen(HashCombine(seed_, col));
        double* dst = cache_.data() + col * m_;
        gen.Fill(m_, dst);
        simd::Scale(dst, inv_sqrt_m_, m_);
      }
    });
  }
}

void MeasurementMatrix::FillColumn(size_t col, double* out) const {
  if (kind_ == MatrixKind::kSign) {
    const uint64_t* words = SignColumn(col);
    for (size_t i = 0; i < m_; ++i) {
      out[i] = simd::FlipSign(inv_sqrt_m_, (words[i >> 6] >> (i & 63)) & 1);
    }
    return;
  }
  if (!cache_.empty()) {
    const double* src = cache_.data() + col * m_;
    std::copy(src, src + m_, out);
    return;
  }
  CounterGaussian gen(HashCombine(seed_, col));
  gen.Fill(m_, out);
  simd::Scale(out, inv_sqrt_m_, m_);
}

std::vector<double> MeasurementMatrix::Column(size_t col) const {
  std::vector<double> out(m_);
  FillColumn(col, out.data());
  return out;
}

Result<std::vector<double>> MeasurementMatrix::Multiply(
    const std::vector<double>& x) const {
  if (x.size() != n_) {
    return Status::InvalidArgument("Multiply: x size " +
                                   std::to_string(x.size()) + " != N " +
                                   std::to_string(n_));
  }
  std::vector<double> y(m_, 0.0);
  // Accumulates columns [col_begin, col_end) into acc (size M). The scratch
  // column is only needed when the matrix is implicit.
  auto accumulate = [&](size_t col_begin, size_t col_end, double* acc) {
    if (kind_ == MatrixKind::kSign) {
      SignBatcher batch(acc, m_);
      for (size_t j = col_begin; j < col_end; ++j) {
        const double xj = x[j];
        if (xj == 0.0) continue;
        batch.Push(SignColumn(j), xj * inv_sqrt_m_);
      }
      batch.Flush();
    } else if (!cache_.empty()) {
      AxpyBatcher batch(acc, m_);
      for (size_t j = col_begin; j < col_end; ++j) {
        const double xj = x[j];
        if (xj == 0.0) continue;
        batch.Push(cache_.data() + j * m_, xj);
      }
      batch.Flush();
    } else {
      std::vector<double> col(m_);
      for (size_t j = col_begin; j < col_end; ++j) {
        const double xj = x[j];
        if (xj == 0.0) continue;
        FillColumn(j, col.data());
        simd::Axpy(acc, col.data(), xj, m_);
      }
    }
  };

  const size_t num_blocks =
      (n_ + kReductionBlockColumns - 1) / kReductionBlockColumns;
  if (num_blocks <= 1) {
    accumulate(0, n_, y.data());
    return y;
  }
  // Fixed-geometry blocked reduction: block b accumulates its private
  // partial; partials are folded in block order below, independent of which
  // thread computed them.
  std::vector<double> partials(num_blocks * m_, 0.0);
  ParallelFor(num_blocks, 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      const size_t col_begin = b * kReductionBlockColumns;
      const size_t col_end = std::min(n_, col_begin + kReductionBlockColumns);
      accumulate(col_begin, col_end, partials.data() + b * m_);
    }
  });
  for (size_t b = 0; b < num_blocks; ++b) {
    simd::Add(y.data(), partials.data() + b * m_, m_);
  }
  return y;
}

Result<std::vector<double>> MeasurementMatrix::MultiplySparse(
    const std::vector<size_t>& indices,
    const std::vector<double>& values) const {
  if (indices.size() != values.size()) {
    return Status::InvalidArgument(
        "MultiplySparse: indices/values size mismatch");
  }
  for (size_t j : indices) {
    if (j >= n_) {
      return Status::OutOfRange("MultiplySparse: index " + std::to_string(j) +
                                " out of N " + std::to_string(n_));
    }
  }
  const size_t nnz = indices.size();
  std::vector<double> y(m_, 0.0);
  auto accumulate = [&](size_t k_begin, size_t k_end, double* acc) {
    if (kind_ == MatrixKind::kSign) {
      SignBatcher batch(acc, m_);
      for (size_t k = k_begin; k < k_end; ++k) {
        const double xj = values[k];
        if (xj == 0.0) continue;
        batch.Push(SignColumn(indices[k]), xj * inv_sqrt_m_);
      }
      batch.Flush();
    } else if (!cache_.empty()) {
      AxpyBatcher batch(acc, m_);
      for (size_t k = k_begin; k < k_end; ++k) {
        const double xj = values[k];
        if (xj == 0.0) continue;
        batch.Push(cache_.data() + indices[k] * m_, xj);
      }
      batch.Flush();
    } else {
      std::vector<double> col(m_);
      for (size_t k = k_begin; k < k_end; ++k) {
        const double xj = values[k];
        if (xj == 0.0) continue;
        FillColumn(indices[k], col.data());
        simd::Axpy(acc, col.data(), xj, m_);
      }
    }
  };

  const size_t num_blocks = (nnz + kReductionBlockNnz - 1) / kReductionBlockNnz;
  if (num_blocks <= 1) {
    accumulate(0, nnz, y.data());
    return y;
  }
  std::vector<double> partials(num_blocks * m_, 0.0);
  ParallelFor(num_blocks, 1, [&](size_t begin, size_t end) {
    for (size_t b = begin; b < end; ++b) {
      const size_t k_begin = b * kReductionBlockNnz;
      const size_t k_end = std::min(nnz, k_begin + kReductionBlockNnz);
      accumulate(k_begin, k_end, partials.data() + b * m_);
    }
  });
  for (size_t b = 0; b < num_blocks; ++b) {
    simd::Add(y.data(), partials.data() + b * m_, m_);
  }
  return y;
}

Status MeasurementMatrix::MultiplySparseBatch(
    const std::vector<SparseVectorView>& slices, std::vector<double>* sum_out,
    std::vector<double>* per_slice_out, size_t scratch_budget_bytes) const {
  // Validate up front so the parallel phase below cannot fail.
  for (const SparseVectorView& s : slices) {
    for (size_t k = 0; k < s.nnz; ++k) {
      if (s.indices[k] >= n_) {
        return Status::OutOfRange(
            "MultiplySparseBatch: index " + std::to_string(s.indices[k]) +
            " out of N " + std::to_string(n_));
      }
    }
  }

  // Per-slice fixed block geometry, identical to MultiplySparse: slice l's
  // entries are cut at multiples of kReductionBlockNnz in original order.
  struct Block {
    size_t slice;
    size_t k_begin;
    size_t k_end;
  };
  std::vector<Block> blocks;
  for (size_t l = 0; l < slices.size(); ++l) {
    for (size_t k = 0; k < slices[l].nnz; k += kReductionBlockNnz) {
      blocks.push_back(
          Block{l, k, std::min(slices[l].nnz, k + kReductionBlockNnz)});
    }
  }

  if (per_slice_out != nullptr) per_slice_out->assign(slices.size() * m_, 0.0);
  if (sum_out != nullptr) sum_out->assign(m_, 0.0);
  if (blocks.empty()) return Status::OK();  // Every slice empty: y = 0.

  // Processing schedule: block-ordinal-major (block 0 of every slice, then
  // block 1 of every slice, ...). Blocks accumulate into disjoint partials,
  // so processing order cannot change bits — only the serial folds below fix
  // the floating-point order. Ordinal-major scheduling is a locality win:
  // slices are typically index-sorted (SparseSlice::FromDense, the cluster
  // simulator), so block k of different slices covers a similar column
  // range, and columns shared across nodes (hot keys) stay cache-resident
  // across the whole batch instead of being re-fetched per node.
  std::vector<size_t> schedule(blocks.size());
  for (size_t b = 0; b < blocks.size(); ++b) schedule[b] = b;
  std::stable_sort(schedule.begin(), schedule.end(), [&](size_t a, size_t b) {
    return blocks[a].k_begin < blocks[b].k_begin;
  });

  // Block b's entries accumulate into partials[b*M, (b+1)*M) exactly as
  // MultiplySparse would (same order, same 4-wide fusion); `column` resolves
  // an entry to its column storage.
  std::vector<double> partials(blocks.size() * m_, 0.0);
  auto run_block = [&](size_t b, auto&& column) {
    const Block& blk = blocks[b];
    const SparseVectorView& s = slices[blk.slice];
    AxpyBatcher batch(partials.data() + b * m_, m_);
    for (size_t k = blk.k_begin; k < blk.k_end; ++k) {
      const double xj = s.values[k];
      if (xj == 0.0) continue;
      batch.Push(column(s.indices[k]), xj);
    }
    batch.Flush();
  };

  if (kind_ == MatrixKind::kSign) {
    ParallelFor(schedule.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const Block& blk = blocks[schedule[i]];
        const SparseVectorView& s = slices[blk.slice];
        SignBatcher batch(partials.data() + schedule[i] * m_, m_);
        for (size_t k = blk.k_begin; k < blk.k_end; ++k) {
          const double xj = s.values[k];
          if (xj == 0.0) continue;
          batch.Push(SignColumn(s.indices[k]), xj * inv_sqrt_m_);
        }
        batch.Flush();
      }
    });
  } else if (!cache_.empty()) {
    // Cross-slice parallel over all blocks at once, in schedule order.
    ParallelFor(schedule.size(), 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        run_block(schedule[i],
                  [&](size_t j) { return cache_.data() + j * m_; });
      }
    });
  } else {
    // Implicit matrix: tiered column scratch. Schedule-consecutive blocks
    // are grouped into waves small enough that one generated column per
    // entry fits the scratch budget (distinct columns only are actually
    // generated); within a wave every distinct column is generated exactly
    // once, no matter how many slices reference it. The ordinal-major
    // schedule makes a wave span block k of many slices, so columns shared
    // across nodes land in the same wave and are generated once per batch.
    // Wave composition depends only on the data and the budget — never on
    // thread scheduling — and generation is pure, so the accumulated bits
    // match the generate-per-entry path exactly.
    const size_t max_wave_entries = std::max(
        kReductionBlockNnz, scratch_budget_bytes / (m_ * sizeof(double)));
    std::vector<size_t> wave_cols;
    std::vector<double> scratch;
    size_t wave_begin = 0;
    while (wave_begin < schedule.size()) {
      size_t wave_end = wave_begin;
      size_t entries = 0;
      while (wave_end < schedule.size()) {
        const Block& blk = blocks[schedule[wave_end]];
        const size_t blk_entries = blk.k_end - blk.k_begin;
        if (wave_end > wave_begin && entries + blk_entries > max_wave_entries) {
          break;
        }
        entries += blk_entries;
        ++wave_end;
      }

      wave_cols.clear();
      for (size_t i = wave_begin; i < wave_end; ++i) {
        const Block& blk = blocks[schedule[i]];
        const SparseVectorView& s = slices[blk.slice];
        wave_cols.insert(wave_cols.end(), s.indices + blk.k_begin,
                         s.indices + blk.k_end);
      }
      std::sort(wave_cols.begin(), wave_cols.end());
      wave_cols.erase(std::unique(wave_cols.begin(), wave_cols.end()),
                      wave_cols.end());

      scratch.resize(wave_cols.size() * m_);
      ParallelFor(wave_cols.size(), kMinColumnsPerGeneration,
                  [&](size_t begin, size_t end) {
                    for (size_t c = begin; c < end; ++c) {
                      FillColumn(wave_cols[c], scratch.data() + c * m_);
                    }
                  });

      ParallelFor(wave_end - wave_begin, 1, [&](size_t begin, size_t end) {
        for (size_t rel = begin; rel < end; ++rel) {
          run_block(schedule[wave_begin + rel], [&](size_t j) {
            const size_t slot = static_cast<size_t>(
                std::lower_bound(wave_cols.begin(), wave_cols.end(), j) -
                wave_cols.begin());
            return scratch.data() + slot * m_;
          });
        }
      });
      wave_begin = wave_end;
    }
  }

  // Serial folds in fixed (slice, block) order — scheduling-independent and
  // bit-identical to MultiplySparse's per-slice partial fold followed by
  // AggregateMeasurements' slice-order sum.
  if (per_slice_out != nullptr) {
    for (size_t b = 0; b < blocks.size(); ++b) {
      simd::Add(per_slice_out->data() + blocks[b].slice * m_,
                partials.data() + b * m_, m_);
    }
    if (sum_out != nullptr) {
      for (size_t l = 0; l < slices.size(); ++l) {
        simd::Add(sum_out->data(), per_slice_out->data() + l * m_, m_);
      }
    }
    return Status::OK();
  }
  if (sum_out != nullptr) {
    std::vector<double> slice_acc;
    size_t b = 0;
    for (size_t l = 0; l < slices.size(); ++l) {
      const size_t b_begin = b;
      while (b < blocks.size() && blocks[b].slice == l) ++b;
      if (b == b_begin) continue;  // Empty slice: y_l = 0, a bit-exact no-op.
      if (b - b_begin == 1) {
        simd::Add(sum_out->data(), partials.data() + b_begin * m_, m_);
      } else {
        slice_acc.assign(m_, 0.0);
        for (size_t bb = b_begin; bb < b; ++bb) {
          simd::Add(slice_acc.data(), partials.data() + bb * m_, m_);
        }
        simd::Add(sum_out->data(), slice_acc.data(), m_);
      }
    }
  }
  return Status::OK();
}

Status MeasurementMatrix::CorrelateAllInto(const std::vector<double>& r,
                                           double* out) const {
  if (r.size() != m_) {
    return Status::InvalidArgument("CorrelateAllInto: r size " +
                                   std::to_string(r.size()) + " != M " +
                                   std::to_string(m_));
  }
  const double* rp = r.data();
  if (kind_ == MatrixKind::kSign) {
    const std::vector<double> tables = SignTables(r);
    ParallelFor(n_, kMinColumnsPerChunk, [&](size_t begin, size_t end) {
      for (size_t j = begin; j < end; ++j) {
        out[j] = SignCorrelate(tables.data(), j);
      }
    });
  } else if (!cache_.empty()) {
    ParallelFor(n_, kMinColumnsPerChunk, [&](size_t begin, size_t end) {
      size_t j = begin;
      for (; j + 4 <= end; j += 4) {
        const double* base = cache_.data() + j * m_;
        simd::Dot4(base, base + m_, base + 2 * m_, base + 3 * m_, rp, m_,
                   out + j);
      }
      for (; j < end; ++j) {
        out[j] = simd::Dot(cache_.data() + j * m_, rp, m_);
      }
    });
  } else {
    // Pre-scaled generation (FillColumn) so the dot sees the same column
    // bits as the cached path — cached and implicit correlations are
    // bit-identical, not merely close.
    ParallelFor(n_, kMinColumnsPerChunk, [&](size_t begin, size_t end) {
      std::vector<double> col(m_);
      for (size_t j = begin; j < end; ++j) {
        FillColumn(j, col.data());
        out[j] = simd::Dot(col.data(), rp, m_);
      }
    });
  }
  return Status::OK();
}

Result<std::vector<double>> MeasurementMatrix::CorrelateAll(
    const std::vector<double>& r) const {
  std::vector<double> c(n_, 0.0);
  CSOD_RETURN_NOT_OK(CorrelateAllInto(r, c.data()));
  return c;
}

Result<CorrelateArgmaxResult> MeasurementMatrix::CorrelateArgmax(
    const std::vector<double>& r, const std::vector<bool>* skip,
    size_t skip_offset) const {
  if (r.size() != m_) {
    return Status::InvalidArgument("CorrelateArgmax: r size " +
                                   std::to_string(r.size()) + " != M " +
                                   std::to_string(m_));
  }
  if (skip != nullptr && skip->size() < n_ + skip_offset) {
    return Status::InvalidArgument("CorrelateArgmax: skip mask size " +
                                   std::to_string(skip->size()) +
                                   " < N + offset " +
                                   std::to_string(n_ + skip_offset));
  }
  const double* rp = r.data();
  const std::vector<double> tables =
      kind_ == MatrixKind::kSign ? SignTables(r) : std::vector<double>();
  // Chunk-local argmax over [begin, end); candidates are visited in
  // ascending index order so ties resolve to the lowest index.
  auto local_argmax = [&](size_t begin, size_t end) {
    CorrelateArgmaxResult best;
    if (kind_ == MatrixKind::kSign) {
      for (size_t j = begin; j < end; ++j) {
        if (skip != nullptr && (*skip)[j + skip_offset]) continue;
        FoldArgmax(j, SignCorrelate(tables.data(), j), &best);
      }
    } else if (!cache_.empty()) {
      // Batch unmasked columns four at a time; batch order is ascending, so
      // folding the four dots in order preserves the tie-break.
      size_t batch[4];
      size_t filled = 0;
      double dots[4];
      auto flush = [&] {
        if (filled == 4) {
          simd::Dot4(cache_.data() + batch[0] * m_,
                     cache_.data() + batch[1] * m_,
                     cache_.data() + batch[2] * m_,
                     cache_.data() + batch[3] * m_, rp, m_, dots);
          for (size_t k = 0; k < 4; ++k) FoldArgmax(batch[k], dots[k], &best);
        } else {
          for (size_t k = 0; k < filled; ++k) {
            FoldArgmax(batch[k],
                       simd::Dot(cache_.data() + batch[k] * m_, rp, m_), &best);
          }
        }
        filled = 0;
      };
      for (size_t j = begin; j < end; ++j) {
        if (skip != nullptr && (*skip)[j + skip_offset]) continue;
        batch[filled++] = j;
        if (filled == 4) flush();
      }
      flush();
    } else {
      std::vector<double> col(m_);
      for (size_t j = begin; j < end; ++j) {
        if (skip != nullptr && (*skip)[j + skip_offset]) continue;
        FillColumn(j, col.data());
        FoldArgmax(j, simd::Dot(col.data(), rp, m_), &best);
      }
    }
    return best;
  };

  const size_t chunk_count = ParallelChunkCount(n_, kMinColumnsPerChunk);
  if (chunk_count <= 1) return local_argmax(0, n_);

  std::vector<CorrelateArgmaxResult> locals(chunk_count);
  ParallelForChunks(n_, chunk_count,
                    [&](size_t chunk, size_t begin, size_t end) {
                      locals[chunk] = local_argmax(begin, end);
                    });
  // Fixed-order reduction over chunk-local winners. Chunks cover ascending
  // index ranges and FoldArgmax keeps strict >, so the lowest index still
  // wins global ties regardless of how many chunks the limit produced.
  CorrelateArgmaxResult best;
  for (const CorrelateArgmaxResult& local : locals) {
    if (local.index == CorrelateArgmaxResult::kNoIndex) continue;
    if (local.abs_correlation > best.abs_correlation) best = local;
  }
  return best;
}

std::vector<double> MeasurementMatrix::SignTables(
    const std::vector<double>& r) const {
  // Group g covers rows 8g..8g+7; tables[g*256 + b] is Σ_t ±r_t/√M over
  // those rows with the sign of row 8g+t taken from bit t of b, summed as
  // (rows 0..3 in order) + (rows 4..7 in order). Rows past M read as 0 and
  // their sign bits are always 0, so those entries are never looked up.
  const size_t groups = (m_ + 7) / 8;
  std::vector<double> tables(groups * 256);
  for (size_t g = 0; g < groups; ++g) {
    double rows[8];
    for (size_t t = 0; t < 8; ++t) {
      const size_t i = 8 * g + t;
      rows[t] = i < m_ ? r[i] * inv_sqrt_m_ : 0.0;
    }
    double low[16];
    double high[16];
    for (uint64_t b = 0; b < 16; ++b) {
      double lo = simd::FlipSign(rows[0], b & 1);
      double hi = simd::FlipSign(rows[4], b & 1);
      for (size_t t = 1; t < 4; ++t) {
        lo += simd::FlipSign(rows[t], (b >> t) & 1);
        hi += simd::FlipSign(rows[4 + t], (b >> t) & 1);
      }
      low[b] = lo;
      high[b] = hi;
    }
    double* table = tables.data() + g * 256;
    for (size_t b = 0; b < 256; ++b) table[b] = low[b & 15] + high[b >> 4];
  }
  return tables;
}

double MeasurementMatrix::SignCorrelate(const double* tables,
                                        size_t col) const {
  // One lookup per 8-row group; group g feeds lane g mod 4 in ascending g,
  // and the lanes fold as (l0 + l1) + (l2 + l3). Scalar code in a fixed
  // order: the same bits at every SIMD level and thread count.
  const uint64_t* words = SignColumn(col);
  const size_t groups = (m_ + 7) / 8;
  double lane[4] = {0.0, 0.0, 0.0, 0.0};
  size_t g = 0;
  for (; g + 8 <= groups; g += 8) {
    const uint64_t word = words[g >> 3];
    const double* t = tables + g * 256;
    lane[0] += t[word & 255];
    lane[1] += t[256 + ((word >> 8) & 255)];
    lane[2] += t[512 + ((word >> 16) & 255)];
    lane[3] += t[768 + ((word >> 24) & 255)];
    lane[0] += t[1024 + ((word >> 32) & 255)];
    lane[1] += t[1280 + ((word >> 40) & 255)];
    lane[2] += t[1536 + ((word >> 48) & 255)];
    lane[3] += t[1792 + (word >> 56)];
  }
  if (g < groups) {
    uint64_t word = words[g >> 3];
    for (; g < groups; ++g, word >>= 8) {
      lane[g & 3] += tables[g * 256 + (word & 255)];
    }
  }
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

std::vector<double> MeasurementMatrix::BiasColumn() const {
  std::vector<double> phi0(m_, 0.0);
  const double scale = 1.0 / std::sqrt(static_cast<double>(n_));
  if (kind_ == MatrixKind::kSign) {
    // Row i of Σ_j φ_j is (N - 2·ones_i)/√M, where ones_i counts the
    // columns whose row-i sign bit is set — an exact integer, so the block
    // split cannot change it. Counting runs eight rows per add on byte
    // counters (kSpreadBits), drained before any byte can reach 256.
    const size_t groups = (m_ + 7) / 8;
    const size_t num_blocks =
        (n_ + kReductionBlockColumns - 1) / kReductionBlockColumns;
    std::vector<uint64_t> ones(num_blocks * m_, 0);
    ParallelFor(num_blocks, 1, [&](size_t begin, size_t end) {
      std::vector<uint64_t> bytes(groups);
      for (size_t b = begin; b < end; ++b) {
        uint64_t* acc = ones.data() + b * m_;
        const size_t col_begin = b * kReductionBlockColumns;
        const size_t col_end = std::min(n_, col_begin + kReductionBlockColumns);
        for (size_t j = col_begin; j < col_end;) {
          const size_t run_end = std::min(col_end, j + 255);
          std::fill(bytes.begin(), bytes.end(), 0);
          for (; j < run_end; ++j) {
            const uint64_t* words = SignColumn(j);
            for (size_t g = 0; g < groups; ++g) {
              bytes[g] += kSpreadBits[(words[g >> 3] >> (8 * (g & 7))) & 255];
            }
          }
          for (size_t i = 0; i < m_; ++i) {
            acc[i] += (bytes[i >> 3] >> (8 * (i & 7))) & 255;
          }
        }
      }
    });
    for (size_t i = 0; i < m_; ++i) {
      uint64_t total = 0;
      for (size_t b = 0; b < num_blocks; ++b) total += ones[b * m_ + i];
      const double sum = static_cast<double>(static_cast<int64_t>(n_) -
                                             2 * static_cast<int64_t>(total));
      phi0[i] = sum * inv_sqrt_m_ * scale;
    }
    return phi0;
  }
  auto accumulate = [&](size_t col_begin, size_t col_end, double* acc) {
    if (!cache_.empty()) {
      AddBatcher batch(acc, m_);
      for (size_t j = col_begin; j < col_end; ++j) {
        batch.Push(cache_.data() + j * m_);
      }
      batch.Flush();
    } else {
      std::vector<double> col(m_);
      for (size_t j = col_begin; j < col_end; ++j) {
        FillColumn(j, col.data());
        simd::Add(acc, col.data(), m_);
      }
    }
  };

  const size_t num_blocks =
      (n_ + kReductionBlockColumns - 1) / kReductionBlockColumns;
  if (num_blocks <= 1) {
    accumulate(0, n_, phi0.data());
  } else {
    std::vector<double> partials(num_blocks * m_, 0.0);
    ParallelFor(num_blocks, 1, [&](size_t begin, size_t end) {
      for (size_t b = begin; b < end; ++b) {
        const size_t col_begin = b * kReductionBlockColumns;
        const size_t col_end =
            std::min(n_, col_begin + kReductionBlockColumns);
        accumulate(col_begin, col_end, partials.data() + b * m_);
      }
    });
    for (size_t b = 0; b < num_blocks; ++b) {
      simd::Add(phi0.data(), partials.data() + b * m_, m_);
    }
  }
  simd::Scale(phi0.data(), scale, m_);
  return phi0;
}

const std::vector<double>& MeasurementMatrix::CachedBiasColumn() const {
  std::call_once(bias_once_, [this] { bias_column_ = BiasColumn(); });
  return bias_column_;
}

}  // namespace csod::cs
