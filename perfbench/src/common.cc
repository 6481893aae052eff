#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "bench.h"
#include "common/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __VERSION__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace perfbench {
namespace {

// The contract metrics, in BENCHMARK.json order. Every workload reports
// every end-to-end metric; the traced run reports every per-layer metric,
// 0 for work the workload does not do.
struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"wire_bytes", "B"},      {"answer_cpu_ms", "ms"},
    {"updates_per_cpu_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"mapreduce.cs_job.map_ms", "ms"},
    {"mapreduce.cs_job.shuffle_ms", "ms"},
    {"mapreduce.cs_job.reduce_ms", "ms"},
    {"mapreduce.cs_job.pre_engine_ms", "ms"},
    {"mapreduce.trad_job.map_ms", "ms"},
    {"mapreduce.trad_job.shuffle_ms", "ms"},
    {"mapreduce.trad_job.reduce_ms", "ms"},
    {"mapreduce.trad_job.combine_ratio", "ratio"},
    {"mapreduce.shuffle_bytes", "B"},
    {"mapreduce.scatter_us", "us"},
    {"cs.sketch_each_ms", "ms"},
    {"cs.sketch_accumulate_ms", "ms"},
    {"cs.sketch_batch_us", "us"},
    {"cs.matrix_build_ms", "ms"},
    {"cs.matrix_cached", "count"},
    {"cs.bomp_ms", "ms"},
    {"cs.bomp_iterations", "count"},
    {"cs.correlate_ms", "ms"},
    {"la.lstsq_ms", "ms"},
    {"outlier.extract_us", "us"},
    {"dist.comm.bytes", "B"},
    {"dist.comm.messages", "count"},
    {"dist.wire.frame_decode_us", "us"},
    {"core.fold_us", "us"},
    {"query.parse_us", "us"},
    {"serve.net.encode_us", "us"},
    {"serve.net.handle_ingest_us", "us"},
    {"serve.net.server_overhead_us", "us"},
    {"serve.ingest_us", "us"},
    {"serve.ingest.other_us", "us"},
    {"serve.publish_us", "us"},
    {"serve.query.recover_ms", "ms"},
    {"serve.net.handle_query_ms", "ms"},
    {"serve.checkpoint.fetch_ms", "ms"},
    {"serve.checkpoint.bytes", "B"},
    {"serve.checkpoint.restore_ms", "ms"},
    {"serve.net.frames", "count"},
    {"serve.net.bytes_sent", "B"},
    {"serve.net.bytes_received", "B"},
    {"serve.net.retries", "count"},
    {"serve.net.pushbacks", "count"},
    {"serve.query.late_ms_max", "ms"},
    {"obs.overhead_pct", "%"},
    {"unattributed_pct", "%"},
    {"trace_overhead_pct", "%"},
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// All digits a double carries, so no two distinct timings print alike.
std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit});
}

void Report::Table(const std::string& name, double value,
                   const std::string& unit) {
  table.push_back(Metric{name, value, unit});
}

// ---------------------------------------------------------------- Tracer

namespace {
thread_local std::vector<int64_t> tls_open_spans;
}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Open(const char* name, uint64_t request) {
  const int64_t parent = tls_open_spans.empty() ? -1 : tls_open_spans.back();
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, request, now});
  const int64_t id = static_cast<int64_t>(spans_.size()) - 1;
  tls_open_spans.push_back(id);
  return id;
}

void Tracer::Close(int64_t id) {
  const int64_t now = Now();
  tls_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    id_ = tracer_->Open(name, request);
  }
}

Tracer::Scope::~Scope() {
  if (id_ >= 0) tracer_->Close(id_);
}

int64_t Tracer::AddChild(int64_t parent, const std::string& name, double ms) {
  if (!enabled_ || parent < 0) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  Span& p = spans_[static_cast<size_t>(parent)];
  const int64_t start = p.child_cursor_ns;
  const int64_t end = start + static_cast<int64_t>(std::llround(ms * 1e6));
  p.child_cursor_ns = end;
  const uint64_t request = p.request;
  spans_.push_back(Span{name, start, end, parent, request, start});
  return static_cast<int64_t>(spans_.size()) - 1;
}

Ledger Tracer::LedgerOf(const std::string& root_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t count = spans_.size();
  // Children are always recorded after their parent, so one forward pass
  // resolves each span's root.
  std::vector<size_t> root(count);
  std::vector<double> child_ms(count, 0.0);
  auto duration_ms = [&](size_t i) {
    return static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) / 1e6;
  };
  for (size_t i = 0; i < count; ++i) {
    const int64_t p = spans_[i].parent;
    root[i] = p < 0 ? i : root[static_cast<size_t>(p)];
    if (p >= 0) child_ms[static_cast<size_t>(p)] += duration_ms(i);
  }
  std::map<std::string, double> self_by_name;
  std::vector<std::string> order;
  double total = 0.0;
  Ledger ledger;
  ledger.op = root_name;
  for (size_t i = 0; i < count; ++i) {
    if (spans_[root[i]].name != root_name) continue;
    const bool is_root = spans_[i].parent < 0;
    if (is_root) {
      total += duration_ms(i);
      ++ledger.ops;
    }
    const std::string name = is_root ? "(unattributed)" : spans_[i].name;
    if (self_by_name.find(name) == self_by_name.end()) order.push_back(name);
    self_by_name[name] += duration_ms(i) - child_ms[i];
  }
  if (ledger.ops == 0) return ledger;
  ledger.op_ms = total / static_cast<double>(ledger.ops);
  for (const std::string& name : order) {
    const double self = self_by_name[name];
    ledger.rows.push_back(
        LedgerRow{name, self / static_cast<double>(ledger.ops),
                  total > 0 ? 100.0 * self / total : 0.0});
  }
  return ledger;
}

double Ledger::unattributed_pct() const {
  for (const LedgerRow& row : rows) {
    if (row.name == "(unattributed)") return row.pct_of_op;
  }
  return 0.0;
}

bool Tracer::Write(const std::string& path, const std::string& header) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "%s\n", header.c_str());
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"parent\": %" PRId64
                 ", \"request\": %" PRIu64 "}\n",
                 i, JsonEscape(s.name).c_str(), s.start_ns, s.end_ns, s.parent,
                 s.request);
  }
  return std::fclose(out) == 0;
}

std::vector<int64_t> Tracer::RootsNamed(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> ids;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0 && spans_[i].name == name) {
      ids.push_back(static_cast<int64_t>(i));
    }
  }
  return ids;
}

// ---------------------------------------------------------------- stats

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MB
}

std::string Provenance(const RunOptions& options) {
  double load[1] = {0.0};
  if (getloadavg(load, 1) != 1) load[0] = -1.0;
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"provenance\": {\"nproc\": %ld, \"simd\": \"%s\", \"build_type\": "
      "\"%s\", \"compiler\": \"%s\", \"git_commit\": \"%s\", "
      "\"loadavg_1m\": %.2f, \"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d}}",
      sysconf(_SC_NPROCESSORS_ONLN),
      csod::simd::LevelName(csod::simd::ActiveLevel()), PERFBENCH_BUILD_TYPE,
      JsonEscape(PERFBENCH_COMPILER).c_str(), JsonEscape(options.git_commit).c_str(),
      load[0], JsonEscape(options.workload).c_str(), options.seed,
      options.seconds, options.trace ? 1 : 0);
  return buf;
}

void PrintReport(const RunOptions& options, const std::string& provenance,
                 const Report& report) {
  std::printf("%s\n", provenance.c_str());
  std::printf("workload %s  seed %" PRIu64 "  attempted %" PRIu64
              "  failed %" PRIu64 "  digest 0x%016" PRIx64 "\n",
              options.workload.c_str(), options.seed, report.attempted,
              report.failed, report.digest);
  for (const std::string& f : report.failures) {
    std::printf("  FAILED: %s\n", f.c_str());
  }
  if (!report.table.empty()) {
    std::printf("%-28s %18s  %s\n", "end-to-end", "value", "unit");
    for (const Metric& m : report.table) {
      std::printf("%-28s %18.4f  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : report.metrics) by_name[m.name] = &m;
  for (const Ledger& ledger : report.ledgers) {
    std::printf("ledger: self time per %s (%zu ops, %.4f ms per op)\n",
                ledger.op.c_str(), ledger.ops, ledger.op_ms);
    for (const LedgerRow& row : ledger.rows) {
      std::printf("  %-36s %12.4f ms  %7.2f %%\n", row.name.c_str(),
                  row.self_ms_per_op, row.pct_of_op);
    }
  }
  if (options.trace) {
    for (const char* name :
         {"unattributed_pct", "trace_overhead_pct", "obs.overhead_pct"}) {
      const auto it = by_name.find(name);
      if (it != by_name.end()) {
        std::printf("%-28s %18.4f  %%\n", name, it->second->value);
      }
    }
  }

  // The contract line: exactly the declared metrics, in declared order.
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    const auto it = by_name.find(spec.name);
    const double value = it == by_name.end() ? 0.0 : it->second->value;
    if (!first) json += ", ";
    first = false;
    json += std::string("\"") + spec.name + "\": {\"value\": " + Num(value) +
            ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      if (by_name.find(spec.name) == by_name.end()) {
        std::fprintf(stderr, "perfbench: workload did not report %s\n",
                     spec.name);
        std::exit(3);
      }
      emit(spec);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool RunWorkload(const RunOptions& options, const std::string& provenance,
                 Report* report) {
  Tracer tracer(options.trace);
  if (options.workload == "batch-mapreduce") {
    *report = RunBatchMapReduce(options, &tracer);
  } else if (options.workload == "batch-protocol") {
    *report = RunBatchProtocol(options, &tracer);
  } else if (options.workload == "serve-mixed") {
    *report = RunServeMixed(options, &tracer);
  } else {
    return false;
  }
  if (options.trace && !options.trace_out.empty()) {
    if (!tracer.Write(options.trace_out, provenance)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   options.trace_out.c_str());
    }
  }
  return true;
}

}  // namespace perfbench
