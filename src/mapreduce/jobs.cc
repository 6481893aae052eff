#include "mapreduce/jobs.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>

#include "common/grid.h"
#include "common/parallel.h"
#include "common/random.h"
#include "dist/comm.h"
#include "mapreduce/engine.h"
#include "outlier/answer.h"

namespace csod::mr {

std::vector<std::vector<ScoreEvent>> ExpandSlicesToEvents(
    const std::vector<cs::SparseSlice>& slices, size_t events_per_key,
    uint64_t seed) {
  std::vector<std::vector<ScoreEvent>> splits;
  splits.reserve(slices.size());
  Rng rng(seed);
  for (const cs::SparseSlice& slice : slices) {
    std::vector<ScoreEvent> events;
    events.reserve(slice.nnz() * std::max<size_t>(events_per_key, 1));
    for (size_t j = 0; j < slice.indices.size(); ++j) {
      const uint64_t key = slice.indices[j];
      const double value = slice.values[j];
      if (events_per_key <= 1) {
        events.push_back(ScoreEvent{key, value});
        continue;
      }
      // Random additive split that sums to `value` exactly: shares are
      // grid multiples (common/grid.h) and the last event closes the sum.
      double assigned = 0.0;
      for (size_t e = 0; e + 1 < events_per_key; ++e) {
        const double share = QuantizeToGrid(
            value * rng.NextDouble() * 2.0 /
            static_cast<double>(events_per_key));
        events.push_back(ScoreEvent{key, share});
        assigned += share;
      }
      events.push_back(ScoreEvent{key, value - assigned});
    }
    splits.push_back(std::move(events));
  }
  return splits;
}

namespace {

// In-mapper combining: aggregate a split's events per key.
std::unordered_map<uint64_t, double> CombineSplit(
    const std::vector<ScoreEvent>& split) {
  std::unordered_map<uint64_t, double> sums;
  sums.reserve(split.size() / 4 + 1);
  for (const ScoreEvent& e : split) sums[e.key] += e.score;
  return sums;
}

// Map function shared by the traditional jobs: ship one 96-bit
// (keyid, score) tuple per raw event; partial aggregation is the engine's
// combine_fn (below), so the stats carry pre- vs post-combine volume.
void TraditionalMap(const std::vector<ScoreEvent>& split,
                    Emitter<uint64_t, double>* emitter) {
  for (const ScoreEvent& e : split) emitter->Emit(e.key, e.score);
}

// In-mapper combiner: fold one map task's scores for a key into their sum
// (emit order, so the bits match an event-order accumulation).
double SumCombiner(const uint64_t&, Span<double> values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

}  // namespace

Result<TopKJobResult> RunTraditionalTopKJob(
    const std::vector<std::vector<ScoreEvent>>& splits, size_t k,
    bool combine, obs::Telemetry* telemetry) {
  Job<ScoreEvent, uint64_t, double, outlier::Outlier> job;
  job.map_fn = TraditionalMap;
  if (combine) job.combine_fn = SumCombiner;
  job.fixed_tuple_bytes = dist::kKeyValueBytes;
  job.telemetry = telemetry;
  job.task_reduce_fn = [k](ReduceGroups<uint64_t, double>& groups,
                           std::vector<outlier::Outlier>* out) {
    // Merge, then select the k largest aggregates (the reducer-side sort
    // the paper charges the traditional implementation for).
    std::vector<outlier::Outlier> all;
    all.reserve(groups.size());
    for (size_t g = 0; g < groups.size(); ++g) {
      double sum = 0.0;
      for (double v : groups.values(g)) sum += v;
      const size_t key = static_cast<size_t>(groups.key(g));
      all.push_back(outlier::Outlier{key, sum, sum});
    }
    outlier::RankTopK(&all, k);
    for (auto& o : all) out->push_back(o);
  };

  CSOD_ASSIGN_OR_RETURN(auto run, RunJob(splits, job));
  TopKJobResult result;
  result.top = std::move(run.output);
  result.stats = run.stats;
  return result;
}

Result<CsJobResult> RunCsOutlierJob(
    const std::vector<std::vector<ScoreEvent>>& splits,
    const CsJobOptions& options) {
  if (options.n == 0 || options.m == 0) {
    return Status::InvalidArgument("RunCsOutlierJob: n and m must be > 0");
  }
  obs::TraceSpan job_span(options.telemetry, "job.cs");

  // Mapper-side matrix: implicit (no dense cache). Every mapper generates
  // the same Φ0 from the consensus seed (Algorithm 3) and only touches the
  // columns of its non-zero keys, costing O(nnz * M).
  cs::MeasurementMatrix mapper_matrix(options.m, options.n, options.seed,
                                      /*cache_budget_bytes=*/0);
  cs::Compressor compressor(&mapper_matrix);
  compressor.set_telemetry(options.telemetry);

  // Algorithm 3 (CS-Mapper), batched across mappers: partial aggregation
  // and vectorization per split (parallel, disjoint slots), then one fused
  // CompressEach over all slices — hot columns shared by several mappers
  // are generated once per batch instead of once per mapper, and
  // compression parallelizes across mappers, not just within one. Each
  // mapper's y_l is bit-identical to a solo Compress (compressor_test), and
  // the map_fn below still emits per-mapper rows so shuffle accounting is
  // unchanged.
  std::vector<cs::SparseSlice> slices(splits.size());
  std::vector<Status> combine_status(splits.size());
  ParallelFor(splits.size(), 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      for (const auto& [key, sum] : CombineSplit(splits[s])) {
        if (key >= options.n) {
          combine_status[s] = Status::OutOfRange(
              "RunCsOutlierJob: event key " + std::to_string(key) +
              " out of key list length " + std::to_string(options.n));
          break;
        }
        slices[s].indices.push_back(key);
        slices[s].values.push_back(sum);
      }
    }
  });
  for (const Status& status : combine_status) CSOD_RETURN_NOT_OK(status);
  if (options.telemetry != nullptr && options.telemetry->enabled()) {
    // Per-mapper rollups: input volume and distinct-key width of each
    // split, recorded serially (snapshot determinism).
    options.telemetry->AddCounter("job.mappers", splits.size());
    for (size_t s = 0; s < splits.size(); ++s) {
      options.telemetry->RecordValue("job.mapper_events",
                                     static_cast<double>(splits[s].size()));
      options.telemetry->RecordValue("job.mapper_nnz",
                                     static_cast<double>(slices[s].nnz()));
    }
  }
  std::vector<const cs::SparseSlice*> slice_views;
  slice_views.reserve(slices.size());
  for (const cs::SparseSlice& slice : slices) slice_views.push_back(&slice);
  CSOD_ASSIGN_OR_RETURN(const std::vector<std::vector<double>> measurements,
                        compressor.CompressEach(slice_views));

  Job<ScoreEvent, uint32_t, double, outlier::Outlier> job;
  job.telemetry = options.telemetry;
  job.map_fn = [&](const std::vector<ScoreEvent>& split,
                   Emitter<uint32_t, double>* emitter) {
    // The engine maps splits in place, so the element address recovers the
    // split index into the precomputed batch.
    const size_t s = static_cast<size_t>(&split - splits.data());
    const std::vector<double>& y = measurements[s];
    for (size_t i = 0; i < y.size(); ++i) {
      emitter->Emit(static_cast<uint32_t>(i), y[i]);
    }
  };
  // 64-bit measurements on the wire (S_M in Section 6.1.2); the row index
  // is positional in a real implementation.
  job.fixed_tuple_bytes = dist::kMeasurementBytes;

  cs::BompResult recovery;
  double recovered_mode = 0.0;
  Status reduce_status = Status::OK();
  job.task_reduce_fn = [&](ReduceGroups<uint32_t, double>& groups,
                           std::vector<outlier::Outlier>* out) {
    // Algorithm 4 (CS-Reducer): sum measurement rows into the global y,
    // regenerate Φ0 from the seed, recover with BOMP.
    std::vector<double> y(options.m, 0.0);
    for (size_t g = 0; g < groups.size(); ++g) {
      const uint32_t row = groups.key(g);
      if (row >= options.m) continue;
      for (double v : groups.values(g)) y[row] += v;
    }
    cs::MeasurementMatrix reducer_matrix(options.m, options.n, options.seed,
                                         options.cache_budget_bytes);
    auto answered =
        outlier::Answer(reducer_matrix, y,
                        {.k = options.k,
                         .iterations = options.iterations,
                         .telemetry = options.telemetry});
    if (!answered.ok()) {
      reduce_status = answered.status();
      return;
    }
    outlier::RecoveredAnswer answer = answered.MoveValue();
    recovery = std::move(answer.recovery);
    recovered_mode = answer.ranked.mode;
    for (auto& o : answer.ranked.outliers) out->push_back(o);
  };

  CSOD_ASSIGN_OR_RETURN(auto run, RunJob(splits, job));
  CSOD_RETURN_NOT_OK(reduce_status);

  CsJobResult result;
  result.outliers.outliers = std::move(run.output);
  result.outliers.mode = recovered_mode;
  result.recovery = std::move(recovery);
  result.stats = run.stats;
  return result;
}

}  // namespace csod::mr
