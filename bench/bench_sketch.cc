// End-to-end node-side sketching benchmark: the fault-free coordinator path
// (compress every node's slice, aggregate into the global y) timed four ways
// per matrix mode (cached / implicit):
//
//   per_node_seed       — transcription of the pre-SIMD per-node path:
//                         scalar accumulate with the fixed 512-entry block
//                         geometry, then a scalar per-index aggregate. This
//                         is the baseline the speedup numbers are against.
//   per_node_simd       — the library per-node path (Compressor::Compress
//                         per node + AggregateMeasurements), which now runs
//                         on the dispatched SIMD kernels.
//   compress_accumulate — the fused batched kernel the fault-free protocols
//                         use (Compressor::CompressAccumulate).
//   compress_each       — the batched per-slice kernel the MapReduce mapper
//                         uses (per-node outputs retained), aggregated after.
//
// The workload is a cluster with hot-key overlap: every node carries the
// same --hot hot keys plus private cold keys, which is what makes the
// implicit batch kernel's shared column generation pay off.
//
// All four paths must produce the same y down to the last bit (the axpy
// kernels are element-wise, so SIMD never reassociates sums); the binary
// asserts this and emits an FNV-1a digest of y. Timings vary run to run,
// but the digest/bit-identity lines are deterministic —
// `scripts/run_bench.py sketch` runs the bench twice and diffs exactly
// those lines.
//
// Flags: --l --m --n --nnz --hot --trials --seed --out --quick

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/digest.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "cs/compressor.h"
#include "cs/measurement_matrix.h"

namespace {

using namespace csod;

// Matches the fixed per-slice reduction geometry of the library kernels.
constexpr size_t kSeedBlockNnz = 512;

// Pre-SIMD per-node compression: scalar accumulate over a hoisted column
// pointer (exactly the pre-SIMD kernel's loop shape), fixed block geometry.
// `cache` is the bench's own column-major copy of the matrix (pre-SIMD code
// read straight out of the member cache); empty when the matrix is implicit.
std::vector<double> SeedCompressNode(const cs::MeasurementMatrix& matrix,
                                     const std::vector<double>& cache,
                                     const cs::SparseSlice& slice) {
  const size_t m = matrix.m();
  const size_t nnz = slice.nnz();
  std::vector<double> scratch(m);
  auto accumulate = [&](size_t k_begin, size_t k_end, double* acc) {
    for (size_t k = k_begin; k < k_end; ++k) {
      const double xj = slice.values[k];
      if (xj == 0.0) continue;
      const size_t j = slice.indices[k];
      if (!cache.empty()) {
        const double* col = cache.data() + j * m;
        for (size_t i = 0; i < m; ++i) acc[i] += col[i] * xj;
      } else {
        matrix.FillColumn(j, scratch.data());
        for (size_t i = 0; i < m; ++i) acc[i] += scratch[i] * xj;
      }
    }
  };
  std::vector<double> y(m, 0.0);
  const size_t num_blocks = (nnz + kSeedBlockNnz - 1) / kSeedBlockNnz;
  if (num_blocks <= 1) {
    accumulate(0, nnz, y.data());
    return y;
  }
  std::vector<double> partials(num_blocks * m, 0.0);
  for (size_t b = 0; b < num_blocks; ++b) {
    accumulate(b * kSeedBlockNnz, std::min(nnz, (b + 1) * kSeedBlockNnz),
               partials.data() + b * m);
  }
  for (size_t b = 0; b < num_blocks; ++b) {
    for (size_t i = 0; i < m; ++i) y[i] += partials[b * m + i];
  }
  return y;
}

std::vector<double> SeedAggregate(
    const std::vector<std::vector<double>>& measurements, size_t m) {
  std::vector<double> y(m, 0.0);
  for (const auto& yl : measurements) {
    for (size_t i = 0; i < m; ++i) y[i] += yl[i];
  }
  return y;
}

// FNV-1a over the raw bits of y — the deterministic output digest.
uint64_t DigestBits(const std::vector<double>& y) {
  Fnv1a digest(bench::kDigestBasis);
  for (double v : y) digest.AddDouble(v);
  return digest.hash();
}

// Hot-key-overlap cluster: every node holds all `hot` hot keys (ids
// [0, hot)) plus private cold keys drawn from the rest of the key space.
std::vector<cs::SparseSlice> MakeCluster(size_t l, size_t n, size_t nnz,
                                         size_t hot, uint64_t seed) {
  std::vector<cs::SparseSlice> slices(l);
  Rng rng(seed);
  for (size_t node = 0; node < l; ++node) {
    cs::SparseSlice& slice = slices[node];
    slice.indices.reserve(nnz);
    slice.values.reserve(nnz);
    for (size_t h = 0; h < hot && h < nnz; ++h) {
      slice.indices.push_back(h);
      slice.values.push_back(rng.NextGaussian() * 10.0);
    }
    while (slice.nnz() < nnz) {
      slice.indices.push_back(
          hot + static_cast<size_t>(rng.NextDouble() *
                                    static_cast<double>(n - hot)) %
                    (n - hot));
      slice.values.push_back(rng.NextGaussian());
    }
  }
  return slices;
}

struct ModeResult {
  const char* mode;
  double seed_ms = 0.0;
  double simd_ms = 0.0;
  double accumulate_ms = 0.0;
  double each_ms = 0.0;
  uint64_t digest = 0;
  bool bit_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).Check();
  const bool quick = flags.GetBool("quick", false);
  const size_t l = static_cast<size_t>(flags.GetInt("l", quick ? 16 : 64));
  const size_t m = static_cast<size_t>(flags.GetInt("m", quick ? 128 : 512));
  const size_t n =
      static_cast<size_t>(flags.GetInt("n", quick ? 20000 : 100000));
  const size_t nnz =
      static_cast<size_t>(flags.GetInt("nnz", quick ? 300 : 1000));
  const size_t hot = static_cast<size_t>(
      flags.GetInt("hot", static_cast<int64_t>(2 * nnz / 5)));
  const size_t trials =
      static_cast<size_t>(flags.GetInt("trials", quick ? 2 : 5));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const std::string out_path = flags.GetString("out", "BENCH_sketch.json");

  bench::Banner("Sketch pipeline",
                "batched fused compress-and-accumulate vs per-node paths");
  std::printf(
      "L = %zu nodes, M = %zu, N = %zu, nnz/node = %zu (%zu hot), trials = "
      "%zu, simd = %s\n\n",
      l, m, n, nnz, hot, trials, simd::LevelName(simd::ActiveLevel()));

  const std::vector<cs::SparseSlice> slices = MakeCluster(l, n, nnz, hot, seed);
  std::vector<const cs::SparseSlice*> slice_ptrs;
  for (const auto& slice : slices) slice_ptrs.push_back(&slice);

  std::vector<ModeResult> results;
  for (const bool cached : {true, false}) {
    cs::MeasurementMatrix matrix(
        m, n, seed + 7,
        cached ? cs::MeasurementMatrix::kDefaultCacheBudgetBytes : 0);
    if (cached && !matrix.cached()) {
      std::fprintf(stderr, "M x N exceeds the default cache budget\n");
      return 1;
    }
    cs::Compressor compressor(&matrix);
    ModeResult res;
    res.mode = cached ? "cached" : "implicit";

    // The seed baseline's own dense column-major copy (what the pre-SIMD
    // kernel's member cache held); left empty in implicit mode.
    std::vector<double> seed_cache;
    if (cached) {
      seed_cache.resize(m * n);
      for (size_t j = 0; j < n; ++j) {
        matrix.FillColumn(j, seed_cache.data() + j * m);
      }
    }

    std::vector<double> y_seed, y_simd, y_accumulate, y_each;
    auto run_seed = [&] {
      std::vector<std::vector<double>> measurements;
      measurements.reserve(l);
      for (const auto& slice : slices) {
        measurements.push_back(SeedCompressNode(matrix, seed_cache, slice));
      }
      y_seed = SeedAggregate(measurements, m);
    };
    auto run_simd = [&] {
      std::vector<std::vector<double>> measurements;
      measurements.reserve(l);
      for (const auto& slice : slices) {
        measurements.push_back(compressor.Compress(slice).MoveValue());
      }
      y_simd = cs::Compressor::AggregateMeasurements(measurements).MoveValue();
    };
    auto run_accumulate = [&] {
      compressor.CompressAccumulate(slices, &y_accumulate).Check();
    };
    auto run_each = [&] {
      auto each = compressor.CompressEach(slice_ptrs).MoveValue();
      y_each = SeedAggregate(each, m);
    };

    // Trials are interleaved round-robin so a transient load spike hits all
    // four paths alike instead of whichever one owned that time window; each
    // path reports its best trial. One untimed warm-up pass first.
    run_seed();
    run_simd();
    run_accumulate();
    run_each();
    double best[4] = {1e300, 1e300, 1e300, 1e300};
    auto time_into = [&](double* slot, auto&& body) {
      Stopwatch watch;
      body();
      *slot = std::min(*slot, watch.ElapsedMillis());
    };
    for (size_t t = 0; t < trials; ++t) {
      time_into(&best[0], run_seed);
      time_into(&best[1], run_simd);
      time_into(&best[2], run_accumulate);
      time_into(&best[3], run_each);
    }
    res.seed_ms = best[0];
    res.simd_ms = best[1];
    res.accumulate_ms = best[2];
    res.each_ms = best[3];

    res.digest = DigestBits(y_accumulate);
    res.bit_identical =
        y_seed == y_simd && y_simd == y_accumulate && y_accumulate == y_each;
    results.push_back(res);

    std::printf("%-9s per_node_seed %9.2f ms | per_node_simd %9.2f ms "
                "(%4.2fx) | fused %9.2f ms (%4.2fx) | each %9.2f ms (%4.2fx)\n",
                res.mode, res.seed_ms, res.simd_ms, res.seed_ms / res.simd_ms,
                res.accumulate_ms, res.seed_ms / res.accumulate_ms, res.each_ms,
                res.seed_ms / res.each_ms);
    std::printf("          y digest 0x%016" PRIx64 ", all paths bit-identical:"
                " %s\n",
                res.digest, res.bit_identical ? "yes" : "NO");
    if (!res.bit_identical) return 1;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"sketch\",\n");
  std::fprintf(out,
               "  \"config\": {\"l\": %zu, \"m\": %zu, \"n\": %zu, "
               "\"nnz\": %zu, \"hot\": %zu, \"trials\": %zu, \"seed\": %llu, "
               "\"simd\": \"%s\"},\n",
               l, m, n, nnz, hot, trials,
               static_cast<unsigned long long>(seed),
               simd::LevelName(simd::ActiveLevel()));
  std::fprintf(out, "  \"modes\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    std::fprintf(
        out,
        "    {\"mode\": \"%s\",\n"
        "     \"per_node_seed_ms\": %.3f, \"per_node_simd_ms\": %.3f,\n"
        "     \"compress_accumulate_ms\": %.3f, \"compress_each_ms\": %.3f,\n"
        "     \"speedup_simd_vs_seed\": %.3f,\n"
        "     \"speedup_batched_vs_seed\": %.3f,\n"
        "     \"y_digest\": \"0x%016" PRIx64 "\",\n"
        "     \"bit_identical\": %s}%s\n",
        r.mode, r.seed_ms, r.simd_ms, r.accumulate_ms, r.each_ms,
        r.seed_ms / r.simd_ms, r.seed_ms / r.accumulate_ms, r.digest,
        r.bit_identical ? "true" : "false",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nWrote %s\n", out_path.c_str());
  return 0;
}
