// batch-protocol: the paper's single-round CS protocol (Fig 2) over a
// skewed split, answering a large-k outlier query.
//
// Why this workload: it is the mirror image of batch-mapreduce. BOMP
// recovery over a cached 112 MB Φ0 does most of the work, the per-run
// matrix build does the rest, and sketching is about 1%. N=20k and M=700
// keep each Run near half a second and less bound by memory bandwidth than
// a 320 MB Φ0, which steadies its time on a shared host. s=80 leaves BOMP's
// default budget R = 3.5k = 105 iterations 24 spare over the s+1 atoms
// exact recovery needs: at s=100 the 4 spare ran out on some seeds (a few
// wrong picks), leaving the values inexact.

#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "cs/compressor.h"
#include "cs/measurement_matrix.h"
#include "dist/cluster.h"
#include "dist/comm.h"
#include "dist/cs_protocol.h"
#include "obs/telemetry.h"
#include "outlier/outlier.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace perfbench {
namespace {

using namespace csod;

struct Shape {
  size_t n, sparsity, nodes, max_hosts, m, k;
};

constexpr Shape kFull{20000, 80, 16, 3, 700, 30};
constexpr Shape kTiny{3000, 10, 4, 2, 300, 5};

struct Input {
  std::unique_ptr<dist::Cluster> cluster;
  std::vector<cs::SparseSlice> slices;
  outlier::OutlierSet truth;
  uint64_t entries = 0;  ///< Non-zero (node, key) entries over all nodes.
};

Result<Input> Generate(const Shape& shape, uint64_t seed) {
  Input in;
  workload::MajorityDominatedOptions gen;
  gen.n = shape.n;
  gen.sparsity = shape.sparsity;
  gen.mode = 5000.0;
  gen.seed = seed;
  CSOD_ASSIGN_OR_RETURN(std::vector<double> global,
                        workload::GenerateMajorityDominated(gen));
  workload::PartitionOptions part;
  part.num_nodes = shape.nodes;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.max_hosts_per_key = shape.max_hosts;
  part.seed = seed + 1;
  CSOD_ASSIGN_OR_RETURN(in.slices, workload::PartitionAdditive(global, part));
  in.cluster = std::make_unique<dist::Cluster>(shape.n);
  for (const cs::SparseSlice& slice : in.slices) {
    in.entries += slice.nnz();
    CSOD_RETURN_NOT_OK(in.cluster->AddNode(slice).status());
  }
  in.truth = outlier::ExactKOutliers(global, shape.k);
  return in;
}

uint64_t DigestOf(const outlier::OutlierSet& answer,
                  const cs::BompResult& recovery, uint64_t bytes) {
  Fnv1a d;
  for (const auto& o : answer.outliers) {
    d.AddU64(o.key_index);
    d.AddDouble(o.value);
  }
  d.AddDouble(answer.mode);
  d.AddU64(recovery.iterations);
  d.AddU64(bytes);
  return d.hash();
}

struct Replay {
  double sketch_ms = 0;
  RecoveryReplay recovery;
};

// Replays, on the same inputs, the public calls Run makes internally.
Result<Replay> ReplayInternals(const Input& in, const Shape& shape,
                               const dist::CsProtocolOptions& opt,
                               Tracer* tracer) {
  Tracer::Scope root(tracer, "replay.protocol", 0);
  Replay r;
  Timer build;
  cs::MeasurementMatrix matrix(opt.m, shape.n, opt.seed,
                               opt.cache_budget_bytes);
  const double build_ms = build.Ms();
  cs::Compressor compressor(&matrix);
  std::vector<double> y;
  Timer sketch;
  CSOD_RETURN_NOT_OK(compressor.CompressAccumulate(in.slices, &y));
  r.sketch_ms = sketch.Ms();
  CSOD_ASSIGN_OR_RETURN(r.recovery, ReplayRecovery(matrix, y, shape.k));
  r.recovery.matrix_build_ms = build_ms;
  return r;
}

}  // namespace

Report RunBatchProtocol(const RunOptions& options, Tracer* tracer) {
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
  if (options.corrupt_reference) CorruptReference(&in.truth, shape.n);

  dist::CsProtocolOptions proto_options;
  proto_options.m = shape.m;
  proto_options.seed = ConsensusSeed(options.seed);

  std::vector<double> sketch_ms;
  std::vector<RecoveryReplay> recoveries;
  uint64_t wire_bytes = 0;
  const RepWalls walls = RunRepetitions(
      options, tracer, &report, [&](uint64_t rep, Tracer* live) {
        Rep r;
        dist::CsOutlierProtocol protocol(proto_options);
        dist::CommStats comm;
        int64_t span = -1;
        Timer t;
        CpuTimer cpu;
        Result<outlier::OutlierSet> answer = Status::Internal("not run");
        {
          Tracer::Scope s(live, "rep", rep);
          span = s.id();
          answer = protocol.Run(*in.cluster, shape.k, &comm);
        }
        r.wall_ms = t.Ms();
        r.cpu_ms = cpu.Ms();
        ++report.attempted;
        if (!answer.ok()) {
          report.Fail("Run: " + answer.status().ToString());
          return r;
        }
        CheckBatchAnswer(in.truth, answer.Value(), "protocol", &report);
        r.digest = DigestOf(answer.Value(), protocol.last_recovery(),
                            comm.bytes_total());
        r.ok = true;
        wire_bytes = comm.bytes_total();
        if (live == nullptr) return r;

        auto replay = ReplayInternals(in, shape, proto_options, tracer);
        if (!replay.ok()) {
          report.Fail("replay: " + replay.status().ToString());
          return r;
        }
        sketch_ms.push_back(replay.Value().sketch_ms);
        recoveries.push_back(replay.Value().recovery);
        tracer->AddChild(span, "cs.sketch_accumulate",
                         replay.Value().sketch_ms);
        AddRecoverySpans(tracer, span, replay.Value().recovery);
        return r;
      });

  const double peak_rss = PeakRssMb();
  const double answer_ms = Median(walls.all);
  const double answer_cpu_ms = Median(walls.cpu);
  report.Table("setup_s", setup_s.Value(), "s");
  report.Table("peak_rss_mb", peak_rss, "MB");
  report.Table("answer_ms", answer_ms, "ms");
  report.Table("answer_cpu_ms", answer_cpu_ms, "ms");
  report.Table("wire_bytes", static_cast<double>(wire_bytes), "B");
  report.Table("repetitions", static_cast<double>(walls.all.size()), "count");

  if (!options.trace) {
    report.Set("setup_s", setup_s.Value(), "s");
    report.Set("peak_rss_mb", peak_rss, "MB");
    report.Set("wire_bytes", static_cast<double>(wire_bytes), "B");
    report.Set("answer_cpu_ms", answer_cpu_ms, "ms");
    report.Set("updates_per_cpu_s",
               static_cast<double>(in.entries) / (answer_cpu_ms / 1e3), "1/s");
    return report;
  }

  report.Set("cs.sketch_accumulate_ms", Median(sketch_ms), "ms");
  SetRecoveryMetrics(recoveries, &report);
  report.Set("dist.comm.bytes", static_cast<double>(wire_bytes), "B");

  // Telemetry cost: the same Run with a live sink vs the disabled one. The
  // live sink also counts the protocol's messages.
  std::vector<double> with_sink, without_sink;
  uint64_t messages = 0;
  for (int pair = 0; pair < kObsPairs; ++pair) {
    for (bool live : {true, false}) {
      dist::CsOutlierProtocol protocol(proto_options);
      obs::Telemetry sink;
      if (live) protocol.set_telemetry(&sink);
      dist::CommStats comm;
      Timer t;
      auto answer = protocol.Run(*in.cluster, shape.k, &comm);
      (live ? with_sink : without_sink).push_back(t.Ms());
      ++report.attempted;
      if (!answer.ok()) {
        report.Fail("telemetry overhead Run: " + answer.status().ToString());
        continue;
      }
      CheckBatchAnswer(in.truth, answer.Value(), "protocol", &report);
      if (live) messages = sink.counter("comm.msgs.measurements");
    }
  }
  report.Set("dist.comm.messages", static_cast<double>(messages), "count");
  report.Set("obs.overhead_pct", OverheadPct(with_sink, without_sink), "%");

  Ledger ledger = tracer->LedgerOf("rep");
  report.Set("unattributed_pct", ledger.unattributed_pct(), "%");
  report.Set("trace_overhead_pct", OverheadPct(walls.traced, walls.untraced),
             "%");
  report.ledgers.push_back(std::move(ledger));
  return report;
}

}  // namespace perfbench
