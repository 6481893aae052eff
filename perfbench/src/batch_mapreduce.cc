// batch-mapreduce: the paper's Fig 10(b) "big input" job. Each repetition
// runs the CS MapReduce job (Algorithms 3 and 4) and then the traditional
// top-k job on the same raw-event splits.
//
// Why this workload: vectorizing, implicit-Φ sketching and the reducer's
// matrix build do most of the work while recovery is short (R = 18), and
// the baseline job's multi-megabyte shuffle is the only heavy user of the
// MapReduce engine in the benchmark.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "cs/compressor.h"
#include "cs/measurement_matrix.h"
#include "mapreduce/jobs.h"
#include "obs/telemetry.h"
#include "outlier/outlier.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace perfbench {
namespace {

using namespace csod;

struct Shape {
  size_t n, sparsity, splits, events_per_key, m, k;
};

constexpr Shape kFull{20000, 10, 40, 10, 400, 5};
constexpr Shape kTiny{2000, 10, 4, 2, 200, 5};

struct Input {
  std::vector<cs::SparseSlice> slices;
  std::vector<std::vector<mr::ScoreEvent>> splits;
  outlier::OutlierSet truth;                 ///< ExactKOutliers(global, k).
  std::vector<outlier::Outlier> truth_top;   ///< TopK(global, k).
  std::vector<double> global;
  uint64_t raw_events = 0;
};

Result<Input> Generate(const Shape& shape, uint64_t seed) {
  Input in;
  workload::MajorityDominatedOptions gen;
  gen.n = shape.n;
  gen.sparsity = shape.sparsity;
  gen.mode = 5000.0;
  gen.seed = seed;
  CSOD_ASSIGN_OR_RETURN(in.global, workload::GenerateMajorityDominated(gen));
  workload::PartitionOptions part;
  part.num_nodes = shape.splits;
  part.strategy = workload::PartitionStrategy::kUniformSplit;
  part.seed = seed + 1;
  CSOD_ASSIGN_OR_RETURN(in.slices, workload::PartitionAdditive(in.global, part));
  in.splits = mr::ExpandSlicesToEvents(in.slices, shape.events_per_key,
                                       seed + 2);
  for (const auto& split : in.splits) in.raw_events += split.size();
  in.truth = outlier::ExactKOutliers(in.global, shape.k);
  in.truth_top = outlier::TopK(in.global, shape.k);
  return in;
}

uint64_t DigestOf(const mr::CsJobResult& cs, const mr::TopKJobResult& trad) {
  Fnv1a d;
  for (const auto& o : cs.outliers.outliers) {
    d.AddU64(o.key_index);
    d.AddDouble(o.value);
  }
  d.AddDouble(cs.outliers.mode);
  d.AddU64(cs.recovery.iterations);
  d.AddU64(cs.stats.shuffle_bytes);
  for (const auto& o : trad.top) {
    d.AddU64(o.key_index);
    d.AddDouble(o.value);
  }
  d.AddU64(trad.stats.shuffle_bytes);
  d.AddU64(trad.stats.shuffle_tuples);
  return d.hash();
}

double EngineMs(const mr::JobStats& s) {
  return 1e3 * (s.map_wall_sec + s.shuffle_wall_sec + s.reduce_wall_sec);
}

// Replays, on the same inputs, of the public calls the CS job makes
// internally, so their time can be attributed inside the job's phases.
struct Replay {
  double sketch_each_ms = 0;
  RecoveryReplay recovery;
};

Result<Replay> ReplayInternals(const Input& in, const mr::CsJobOptions& opt,
                               Tracer* tracer) {
  Tracer::Scope root(tracer, "replay.cs_job", 0);
  Replay r;
  cs::MeasurementMatrix implicit(opt.m, opt.n, opt.seed, 0);
  cs::Compressor compressor(&implicit);
  std::vector<const cs::SparseSlice*> views;
  for (const auto& s : in.slices) views.push_back(&s);
  Timer sketch;
  CSOD_ASSIGN_OR_RETURN(auto measurements, compressor.CompressEach(views));
  r.sketch_each_ms = sketch.Ms();
  CSOD_ASSIGN_OR_RETURN(auto y,
                        cs::Compressor::AggregateMeasurements(measurements));
  Timer build;
  cs::MeasurementMatrix matrix(opt.m, opt.n, opt.seed, opt.cache_budget_bytes);
  const double build_ms = build.Ms();
  CSOD_ASSIGN_OR_RETURN(r.recovery, ReplayRecovery(matrix, y, opt.k));
  r.recovery.matrix_build_ms = build_ms;
  return r;
}

}  // namespace

Report RunBatchMapReduce(const RunOptions& options, Tracer* tracer) {
  Report report;
  const Shape shape = options.tiny ? kTiny : kFull;

  Input in;
  auto setup_s = TimedSetup([&] { in = Input{}; }, [&]() -> Status {
    CSOD_ASSIGN_OR_RETURN(in, Generate(shape, options.seed));
    return Status::OK();
  });
  if (!setup_s.ok()) {
    report.Fail("setup: " + setup_s.status().ToString());
    return report;
  }
  if (options.corrupt_reference) {
    CorruptReference(&in.truth, shape.n);
    in.truth_top.front().value += 1.0;
  }

  mr::CsJobOptions cs_options;
  cs_options.n = shape.n;
  cs_options.m = shape.m;
  cs_options.k = shape.k;
  cs_options.seed = ConsensusSeed(options.seed);

  std::vector<double> cs_ms, cs_cpu_ms, trad_ms;
  std::vector<double> cs_phase[4], trad_phase[4];
  std::vector<double> combine_ratio;
  uint64_t wire_bytes = 0, trad_shuffle_bytes = 0;
  std::vector<double> sketch_each_ms;
  std::vector<RecoveryReplay> recoveries;

  const RepWalls walls = RunRepetitions(
      options, tracer, &report, [&](uint64_t rep, Tracer* live) {
        Rep r;
        int64_t cs_span = -1, trad_span = -1;
        Timer rep_timer;
        CpuTimer rep_cpu;
        mr::CsJobResult cs;
        mr::TopKJobResult trad;
        double cs_wall = 0, cs_cpu = 0, trad_wall = 0;
        {
          Tracer::Scope rep_scope(live, "rep", rep);
          {
            Tracer::Scope s(live, "mapreduce.cs_job", rep);
            cs_span = s.id();
            Timer t;
            CpuTimer cpu;
            auto result = mr::RunCsOutlierJob(in.splits, cs_options);
            cs_wall = t.Ms();
            cs_cpu = cpu.Ms();
            ++report.attempted;
            if (!result.ok()) {
              report.Fail("cs job: " + result.status().ToString());
              return r;
            }
            cs = result.MoveValue();
          }
          {
            Tracer::Scope s(live, "mapreduce.trad_job", rep);
            trad_span = s.id();
            Timer t;
            auto result = mr::RunTraditionalTopKJob(in.splits, shape.k);
            trad_wall = t.Ms();
            ++report.attempted;
            if (!result.ok()) {
              report.Fail("traditional job: " + result.status().ToString());
              return r;
            }
            trad = result.MoveValue();
          }
          CheckBatchAnswer(in.truth, cs.outliers, "cs job", &report);
          CheckTopK(in.truth_top, in.global, trad.top, &report);
        }
        r.wall_ms = rep_timer.Ms();
        r.cpu_ms = rep_cpu.Ms();
        r.digest = DigestOf(cs, trad);
        r.ok = true;
        cs_ms.push_back(cs_wall);
        cs_cpu_ms.push_back(cs_cpu);
        trad_ms.push_back(trad_wall);
        wire_bytes = cs.stats.shuffle_bytes;
        trad_shuffle_bytes = trad.stats.shuffle_bytes;
        if (live == nullptr) return r;

        // Traced repetition: phases from JobStats, internals by replay.
        auto replay = ReplayInternals(in, cs_options, tracer);
        if (!replay.ok()) {
          report.Fail("replay: " + replay.status().ToString());
          return r;
        }
        const Replay& internals = replay.Value();
        sketch_each_ms.push_back(internals.sketch_each_ms);
        recoveries.push_back(internals.recovery);
        const double pre = cs_wall - EngineMs(cs.stats);
        const double phases[4] = {pre, cs.stats.map_wall_sec * 1e3,
                                  cs.stats.shuffle_wall_sec * 1e3,
                                  cs.stats.reduce_wall_sec * 1e3};
        for (int i = 0; i < 4; ++i) cs_phase[i].push_back(phases[i]);
        const int64_t pre_span =
            tracer->AddChild(cs_span, "mapreduce.cs_job.pre_engine", pre);
        tracer->AddChild(pre_span, "cs.sketch_each", internals.sketch_each_ms);
        tracer->AddChild(cs_span, "mapreduce.cs_job.map", phases[1]);
        tracer->AddChild(cs_span, "mapreduce.cs_job.shuffle", phases[2]);
        AddRecoverySpans(tracer,
                         tracer->AddChild(cs_span, "mapreduce.cs_job.reduce",
                                          phases[3]),
                         internals.recovery);

        const double trad_phases[4] = {trad_wall - EngineMs(trad.stats),
                                       trad.stats.map_wall_sec * 1e3,
                                       trad.stats.shuffle_wall_sec * 1e3,
                                       trad.stats.reduce_wall_sec * 1e3};
        for (int i = 0; i < 4; ++i) trad_phase[i].push_back(trad_phases[i]);
        tracer->AddChild(trad_span, "mapreduce.trad_job.pre_engine",
                         trad_phases[0]);
        tracer->AddChild(trad_span, "mapreduce.trad_job.map", trad_phases[1]);
        tracer->AddChild(trad_span, "mapreduce.trad_job.shuffle",
                         trad_phases[2]);
        tracer->AddChild(trad_span, "mapreduce.trad_job.reduce",
                         trad_phases[3]);
        if (trad.stats.shuffle_tuples > 0) {
          combine_ratio.push_back(
              static_cast<double>(trad.stats.pre_combine_shuffle_tuples) /
              static_cast<double>(trad.stats.shuffle_tuples));
        }
        return r;
      });

  const double peak_rss = PeakRssMb();
  const double job_cpu_ms = Median(cs_cpu_ms);
  const double rep_cpu_ms = Median(walls.cpu);
  report.Table("setup_s", setup_s.Value(), "s");
  report.Table("peak_rss_mb", peak_rss, "MB");
  report.Table("job_ms", Median(cs_ms), "ms");
  report.Table("job_cpu_ms", job_cpu_ms, "ms");
  report.Table("baseline_job_ms", Median(trad_ms), "ms");
  report.Table("wire_bytes", static_cast<double>(wire_bytes), "B");
  report.Table("baseline_shuffle_bytes",
               static_cast<double>(trad_shuffle_bytes), "B");
  report.Table("repetitions", static_cast<double>(cs_ms.size()), "count");

  if (!options.trace) {
    report.Set("setup_s", setup_s.Value(), "s");
    report.Set("peak_rss_mb", peak_rss, "MB");
    report.Set("wire_bytes", static_cast<double>(wire_bytes), "B");
    report.Set("answer_cpu_ms", job_cpu_ms, "ms");
    // Both jobs read every raw event once per repetition.
    report.Set("updates_per_cpu_s",
               2.0 * static_cast<double>(in.raw_events) / (rep_cpu_ms / 1e3),
               "1/s");
    return report;
  }

  // ---- Per-layer metrics (traced run).
  report.Set("mapreduce.cs_job.pre_engine_ms", Median(cs_phase[0]), "ms");
  report.Set("mapreduce.cs_job.map_ms", Median(cs_phase[1]), "ms");
  report.Set("mapreduce.cs_job.shuffle_ms", Median(cs_phase[2]), "ms");
  report.Set("mapreduce.cs_job.reduce_ms", Median(cs_phase[3]), "ms");
  report.Set("mapreduce.trad_job.map_ms", Median(trad_phase[1]), "ms");
  report.Set("mapreduce.trad_job.shuffle_ms", Median(trad_phase[2]), "ms");
  report.Set("mapreduce.trad_job.reduce_ms", Median(trad_phase[3]), "ms");
  report.Set("mapreduce.trad_job.combine_ratio", Median(combine_ratio),
             "ratio");
  report.Set("mapreduce.shuffle_bytes",
             static_cast<double>(trad_shuffle_bytes), "B");
  report.Set("cs.sketch_each_ms", Median(sketch_each_ms), "ms");
  SetRecoveryMetrics(recoveries, &report);

  // Telemetry cost: the same job with a live sink vs the disabled one.
  std::vector<double> with_sink, without_sink;
  for (int pair = 0; pair < kObsPairs; ++pair) {
    obs::Telemetry sink;
    mr::CsJobOptions live = cs_options;
    live.telemetry = &sink;
    Timer a;
    auto on = mr::RunCsOutlierJob(in.splits, live);
    with_sink.push_back(a.Ms());
    Timer b;
    auto off = mr::RunCsOutlierJob(in.splits, cs_options);
    without_sink.push_back(b.Ms());
    report.attempted += 2;
    if (!on.ok() || !off.ok()) {
      report.Fail("telemetry overhead job failed");
      continue;
    }
    CheckBatchAnswer(in.truth, on.Value().outliers, "cs job (live sink)",
                     &report);
  }
  report.Set("obs.overhead_pct", OverheadPct(with_sink, without_sink), "%");

  Ledger ledger = tracer->LedgerOf("rep");
  report.Set("unattributed_pct", ledger.unattributed_pct(), "%");
  report.Set("trace_overhead_pct", OverheadPct(walls.traced, walls.untraced),
             "%");
  report.ledgers.push_back(std::move(ledger));
  return report;
}

}  // namespace perfbench
