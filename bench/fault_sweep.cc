// Fault sweep: answer quality and retry cost of the CS protocol under an
// unreliable data plane (docs/FAULT_MODEL.md).
//
// Two scenarios, both against the full-cluster ground truth:
//   1. Drop-rate sweep — every node→coordinator message is lost with
//      probability p; the coordinator retries with backoff, so quality
//      only degrades when a node exhausts the retry budget (per-node
//      exclusion probability p^(1+max_retries)).
//   2. Crash scenario — 1 of --nodes crashes before sending and every
//      retry fails; the protocol answers from the partial sum and reports
//      the excluded node. With --by-key partitioning the lost slice is
//      exactly that node's keys, so recall measures the lost data.
//
// Emits BENCH_faults.json (deterministic: no timestamps, every fault seed
// derived arithmetically from --seed; two runs with equal flags produce
// byte-identical files — `scripts/run_bench.py faults` diffs them).
//
// --telemetry-json=FILE additionally attaches one obs::Telemetry sink to
// every protocol run and writes its deterministic snapshot; the JSON's
// "collection_totals" sums retries/exclusions over the same runs so
// scripts/run_telemetry_check.sh can cross-check the snapshot's
// "comm.retries"/"comm.excluded_nodes" counters against the reports.
//
// Flags: --n --s --k --nodes --m --trials --seed --drop-list --out
//        --telemetry-json --quick

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "dist/cs_protocol.h"
#include "obs/telemetry.h"
#include "outlier/metrics.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace {

using namespace csod;

struct ClusterSetup {
  std::unique_ptr<dist::Cluster> cluster;
  outlier::OutlierSet truth;
};

ClusterSetup MakeCluster(size_t n, size_t s, size_t num_nodes, size_t k,
                         uint64_t seed) {
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = s;
  gen.seed = seed;
  auto global = workload::GenerateMajorityDominated(gen).MoveValue();

  workload::PartitionOptions part;
  part.num_nodes = num_nodes;
  // By-key placement: a crashed node's lost slice is exactly its keys,
  // which makes the degraded recall number interpretable.
  part.strategy = workload::PartitionStrategy::kByKey;
  part.seed = seed + 1;
  auto slices = workload::PartitionAdditive(global, part).MoveValue();
  ClusterSetup setup;
  setup.cluster = std::make_unique<dist::Cluster>(n);
  for (auto& slice : slices) setup.cluster->AddNode(std::move(slice)).Value();
  setup.truth = outlier::ExactKOutliers(global, k);
  return setup;
}

// Mean over trials of one scenario's per-trial numbers.
struct SweepPoint {
  double ek = 0.0;
  double ev = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double excluded_fraction = 0.0;
  double retries = 0.0;
  double retry_bytes = 0.0;
  double total_bytes = 0.0;

  void Accumulate(const outlier::DegradedRunStats& stats,
                  const dist::CommStats& comm) {
    ek += stats.error_on_key;
    ev += stats.error_on_value;
    precision += stats.quality.precision;
    recall += stats.quality.recall;
    excluded_fraction += stats.excluded_fraction();
    retries += static_cast<double>(stats.retries);
    const auto& phases = comm.bytes_by_phase();
    auto phase_bytes = [&phases](const char* name) {
      auto it = phases.find(name);
      return it == phases.end() ? 0.0 : static_cast<double>(it->second);
    };
    retry_bytes += phase_bytes("measurements-retry") +
                   phase_bytes("retry-request");
    total_bytes += static_cast<double>(comm.bytes_total());
  }

  SweepPoint Mean(size_t trials) const {
    const double t = static_cast<double>(trials);
    return SweepPoint{ek / t,      ev / t,          precision / t,
                      recall / t,  excluded_fraction / t,
                      retries / t, retry_bytes / t, total_bytes / t};
  }
};

void PrintJsonPoint(std::FILE* out, const SweepPoint& p, const char* indent) {
  std::fprintf(out,
               "%s\"ek\": %.6f, \"ev\": %.6f, \"precision\": %.6f, "
               "\"recall\": %.6f,\n"
               "%s\"excluded_fraction\": %.6f, \"retries\": %.2f, "
               "\"retry_bytes\": %.1f, \"total_bytes\": %.1f",
               indent, p.ek, p.ev, p.precision, p.recall, indent,
               p.excluded_fraction, p.retries, p.retry_bytes, p.total_bytes);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).Check();
  const bool quick = flags.GetBool("quick", false);
  const size_t n = static_cast<size_t>(flags.GetInt("n", quick ? 800 : 2000));
  const size_t s = static_cast<size_t>(flags.GetInt("s", 20));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 5));
  const size_t num_nodes = static_cast<size_t>(flags.GetInt("nodes", 16));
  const size_t trials =
      static_cast<size_t>(flags.GetInt("trials", quick ? 2 : 5));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  // Default M sized generously: the degraded partial aggregate of a by-key
  // cluster is (s + n/L)-sparse, not s-sparse.
  const size_t default_m = std::min(
      n / 2, static_cast<size_t>(
                 4.0 * static_cast<double>(s + 1 + n / num_nodes) *
                 std::log(static_cast<double>(n))));
  const size_t m = static_cast<size_t>(flags.GetInt("m", static_cast<int64_t>(default_m)));
  const std::vector<int64_t> drop_list =
      flags.GetIntList("drop-list", {0, 5, 10, 20, 40});
  const std::string out_path = flags.GetString("out", "BENCH_faults.json");
  const std::string telemetry_path = flags.GetString("telemetry-json", "");

  // One sink across every protocol run of the sweep; null when the flag is
  // off so the benchmark's hot paths keep the disabled-sink fast path.
  obs::Telemetry telemetry;
  obs::Telemetry* sink = telemetry_path.empty() ? nullptr : &telemetry;
  // Summed CollectionReport numbers over the same runs the sink saw.
  uint64_t total_retries = 0;
  uint64_t total_excluded = 0;
  uint64_t total_runs = 0;

  dist::CsProtocolOptions base;
  base.m = m;
  base.seed = 17;
  base.iterations = s + n / num_nodes + 8;  // Past the degraded sparsity.
  base.retry.max_retries = 3;
  base.retry.timeout_ticks = 4;
  base.retry.backoff = 2.0;

  bench::Banner("Fault sweep",
                "CS-protocol quality and retry cost on a lossy data plane");
  std::printf("N = %zu, s = %zu, k = %zu, L = %zu nodes, M = %zu, trials = "
              "%zu, retry budget = %zu\n\n",
              n, s, k, num_nodes, m, trials, base.retry.max_retries);

  // --- Scenario 0: zero-fault bit-identity -------------------------------
  bool bit_identical = true;
  {
    ClusterSetup setup = MakeCluster(n, s, num_nodes, k, seed * 7919 + 1);
    dist::CsOutlierProtocol plain(base);
    dist::CsProtocolOptions zero = base;
    zero.faults.seed = seed * 1000003;  // Seed set, every rate zero.
    dist::CsOutlierProtocol with_plan(zero);
    plain.set_telemetry(sink);
    with_plan.set_telemetry(sink);
    dist::CommStats comm_a, comm_b;
    auto a = plain.Run(*setup.cluster, k, &comm_a).MoveValue();
    auto b = with_plan.Run(*setup.cluster, k, &comm_b).MoveValue();
    total_retries += plain.last_collection().retries +
                     with_plan.last_collection().retries;
    total_excluded += plain.last_collection().excluded_nodes.size() +
                      with_plan.last_collection().excluded_nodes.size();
    total_runs += 2;
    bit_identical = a.mode == b.mode &&
                    a.outliers.size() == b.outliers.size() &&
                    comm_a.bytes_total() == comm_b.bytes_total() &&
                    comm_a.bytes_by_phase() == comm_b.bytes_by_phase();
    for (size_t i = 0; bit_identical && i < a.outliers.size(); ++i) {
      bit_identical = a.outliers[i].key_index == b.outliers[i].key_index &&
                      a.outliers[i].value == b.outliers[i].value;
    }
    std::printf("zero-fault plan bit-identical to plain protocol: %s\n\n",
                bit_identical ? "yes" : "NO");
  }

  // --- Scenario 1: drop-rate sweep ---------------------------------------
  std::printf("%-8s %8s %8s %10s %8s %10s %9s %12s\n", "drop%", "EK", "EV",
              "precision", "recall", "excluded", "retries", "retry bytes");
  std::vector<SweepPoint> drop_points;
  for (int64_t drop_percent : drop_list) {
    SweepPoint acc;
    for (size_t t = 0; t < trials; ++t) {
      ClusterSetup setup = MakeCluster(n, s, num_nodes, k, seed * 7919 + t);
      dist::CsProtocolOptions options = base;
      options.faults.seed =
          seed * 1000003 + static_cast<uint64_t>(drop_percent) * 101 + t;
      options.faults.drop_rate = static_cast<double>(drop_percent) / 100.0;
      dist::CsOutlierProtocol protocol(options);
      protocol.set_telemetry(sink);
      dist::CommStats comm;
      auto result = protocol.Run(*setup.cluster, k, &comm).MoveValue();
      const dist::CollectionReport& report = protocol.last_collection();
      total_retries += report.retries;
      total_excluded += report.excluded_nodes.size();
      ++total_runs;
      acc.Accumulate(
          outlier::EvaluateDegradedRun(setup.truth, result, report.nodes_total,
                                       report.excluded_nodes.size(),
                                       report.retries),
          comm);
    }
    const SweepPoint mean = acc.Mean(trials);
    drop_points.push_back(mean);
    std::printf("%-8lld %7.1f%% %8.4f %10.3f %8.3f %9.1f%% %9.1f %12.0f\n",
                static_cast<long long>(drop_percent), 100.0 * mean.ek,
                mean.ev, mean.precision, mean.recall,
                100.0 * mean.excluded_fraction, mean.retries,
                mean.retry_bytes);
  }

  // --- Scenario 2: 1 crashed node, retries exhausted ---------------------
  SweepPoint crash_acc;
  bool crash_reported = true;
  for (size_t t = 0; t < trials; ++t) {
    ClusterSetup setup = MakeCluster(n, s, num_nodes, k, seed * 7919 + t);
    const std::vector<dist::NodeId> ids = setup.cluster->NodeIds();
    const dist::NodeId crashed = ids[t % ids.size()];
    dist::CsProtocolOptions options = base;
    options.faults.seed = seed * 1000003 + 7000 + t;
    options.faults.crash_nodes = {crashed};
    dist::CsOutlierProtocol protocol(options);
    protocol.set_telemetry(sink);
    dist::CommStats comm;
    auto result = protocol.Run(*setup.cluster, k, &comm).MoveValue();
    const dist::CollectionReport& report = protocol.last_collection();
    total_retries += report.retries;
    total_excluded += report.excluded_nodes.size();
    ++total_runs;
    crash_reported = crash_reported && report.excluded_nodes.size() == 1 &&
                     report.excluded_nodes[0] == crashed;
    crash_acc.Accumulate(
        outlier::EvaluateDegradedRun(setup.truth, result, report.nodes_total,
                                     report.excluded_nodes.size(),
                                     report.retries),
        comm);
  }
  const SweepPoint crash = crash_acc.Mean(trials);
  std::printf("\ncrash 1 of %zu (budget exhausted): EK %.1f%%, precision "
              "%.3f, recall %.3f, excluded node reported: %s\n",
              num_nodes, 100.0 * crash.ek, crash.precision, crash.recall,
              crash_reported ? "always" : "NOT ALWAYS");

  // --- Deterministic JSON -------------------------------------------------
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"fault_sweep\",\n");
  std::fprintf(out,
               "  \"config\": {\"n\": %zu, \"s\": %zu, \"k\": %zu, "
               "\"nodes\": %zu, \"m\": %zu, \"trials\": %zu, \"seed\": %llu,\n"
               "             \"retry\": {\"max_retries\": %zu, "
               "\"timeout_ticks\": %llu, \"backoff\": %.2f}},\n",
               n, s, k, num_nodes, m, trials,
               static_cast<unsigned long long>(seed), base.retry.max_retries,
               static_cast<unsigned long long>(base.retry.timeout_ticks),
               base.retry.backoff);
  std::fprintf(out, "  \"zero_fault_bit_identical\": %s,\n",
               bit_identical ? "true" : "false");
  std::fprintf(out, "  \"drop_sweep\": [\n");
  for (size_t i = 0; i < drop_points.size(); ++i) {
    std::fprintf(out, "    {\"drop_percent\": %lld,\n",
                 static_cast<long long>(drop_list[i]));
    PrintJsonPoint(out, drop_points[i], "     ");
    std::fprintf(out, "}%s\n", i + 1 < drop_points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"crash_one_node\": {\"nodes\": %zu, "
               "\"excluded_reported\": %s,\n",
               num_nodes, crash_reported ? "true" : "false");
  PrintJsonPoint(out, crash, "   ");
  std::fprintf(out, "},\n");
  std::fprintf(out,
               "  \"collection_totals\": {\"runs\": %llu, \"retries\": %llu, "
               "\"excluded_nodes\": %llu}\n}\n",
               static_cast<unsigned long long>(total_runs),
               static_cast<unsigned long long>(total_retries),
               static_cast<unsigned long long>(total_excluded));
  std::fclose(out);
  std::printf("\nWrote %s\n", out_path.c_str());

  if (sink != nullptr) {
    const Status written = obs::WriteSnapshotJsonFile(*sink, telemetry_path);
    if (!written.ok()) {
      std::fprintf(stderr, "telemetry write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("Wrote %s\n", telemetry_path.c_str());
  }
  return 0;
}
