// Shared pieces of the CSOD benchmark: run options, the result report, the
// in-memory span tracer, the answer digest and small statistics helpers.
//
// The benchmark measures the program only through its public headers; every
// span below is recorded from this directory around a call into src/.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// What one invocation runs.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs, set only by the smoke test: same code paths, sizes cut
  /// to seconds.
  bool tiny = false;
  /// Test hook: perturb every reference answer so each check must fail.
  bool corrupt_reference = false;
  /// Where the traced run writes its spans; empty = do not write.
  std::string trace_out;
  /// Build provenance passed in by the launcher.
  std::string git_commit = "unknown";
};

/// FNV-1a over raw bytes: the one answer digest of the benchmark.
class Fnv1a {
 public:
  void Add(const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  void AddU64(uint64_t v) { Add(&v, sizeof(v)); }
  void AddDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    AddU64(bits);
  }
  void AddString(const std::string& s) {
    AddU64(s.size());
    Add(s.data(), s.size());
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One row of the layer ledger: a span name and its self time per op.
struct LedgerRow {
  std::string name;
  double self_ms_per_op = 0.0;
  double pct_of_op = 0.0;
};

/// Self times of every span under one kind of root span (one "op").
struct Ledger {
  std::string op;
  size_t ops = 0;
  double op_ms = 0.0;  ///< Mean root duration.
  std::vector<LedgerRow> rows;
  /// Share of root time no child span covers.
  double unattributed_pct() const;
};

/// Everything a workload hands back to main().
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Answer digest; identical across repetitions and runs of one seed.
  uint64_t digest = 0;
  /// The contract metrics (end-to-end, or per-layer when traced).
  std::vector<Metric> metrics;
  /// The workload's own end-to-end figures (wall times among them),
  /// printed as a table.
  std::vector<Metric> table;
  /// Traced run only.
  std::vector<Ledger> ledgers;
  /// Failure descriptions (the first few are printed).
  std::vector<std::string> failures;

  void Fail(const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  /// Adds another report's operation and failure counts (a load thread's).
  void Merge(const Report& other) {
    attempted += other.attempted;
    for (const std::string& f : other.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
    failed += other.failed;
  }
  void Set(const std::string& name, double value, const std::string& unit);
  void Table(const std::string& name, double value, const std::string& unit);
};

/// \brief In-memory span recorder: name, start, end, parent, request id.
///
/// Spans are opened and closed on one thread (Scope); the parent is the
/// innermost open span of that thread. `AddChild` records a span whose
/// duration was measured elsewhere (a replay of the same call), laid out
/// after the parent's previous children — this is how a phase that the
/// program times internally (JobStats) or a call it makes internally
/// (measured by replaying it) enters the ledger. Disabled tracers record
/// nothing and cost one branch.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;
    uint64_t request = 0;
    /// Where AddChild places this span's next child.
    int64_t child_cursor_ns = 0;
  };

  explicit Tracer(bool enabled);
  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Index of the span, or -1 when disabled.
    int64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    int64_t id_ = -1;
  };

  /// Records a child of `parent` lasting `ms`, placed after the previous
  /// laid-out child. Returns its index (-1 when disabled).
  int64_t AddChild(int64_t parent, const std::string& name, double ms);

  /// Self time (duration minus time covered by children) summed by name,
  /// over every span whose root ancestor is named `root_name`; the roots'
  /// own self time is the "(unattributed)" row.
  perfbench::Ledger LedgerOf(const std::string& root_name) const;

  /// Calls `fn(index)` for every root span named `name` (without holding
  /// the tracer's lock, so `fn` may add children).
  template <typename Fn>
  void ForEachRoot(const std::string& name, Fn&& fn) {
    for (int64_t id : RootsNamed(name)) fn(id);
  }

  /// Writes every span as JSON lines, preceded by `header`.
  bool Write(const std::string& path, const std::string& header) const;


 private:
  std::vector<int64_t> RootsNamed(const std::string& name) const;
  int64_t Now() const;
  int64_t Open(const char* name, uint64_t request);
  void Close(int64_t id);

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Wall-clock helper in milliseconds.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double Us() const { return Ms() * 1e3; }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// CPU time of a clock in milliseconds: the whole process's (all threads)
/// by default, or one thread's (CLOCK_THREAD_CPUTIME_ID, or a clock from
/// pthread_getcpuclockid). Unlike wall time it does not grow while the
/// hypervisor runs other guests on this machine's vCPUs (the "steal"
/// column of /proc/stat), so the end-to-end time metrics are CPU times.
class CpuTimer {
 public:
  explicit CpuTimer(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID)
      : clock_(clock), start_(Now(clock)) {}
  double Ms() const { return Now(clock_) - start_; }
  static double Now(clockid_t clock) {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  }

 private:
  clockid_t clock_;
  double start_;
};

double Median(std::vector<double> values);
/// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p);
/// Process peak resident set size so far, in MB.
double PeakRssMb();

/// One-line JSON provenance header: nproc, SIMD level, build type,
/// compiler, git commit, load average at start.
std::string Provenance(const RunOptions& options);

/// Prints the human-readable result (provenance, table, ledger) and the
/// final contract JSON line.
void PrintReport(const RunOptions& options, const std::string& provenance,
                 const Report& report);

// Workloads. Each generates its inputs from options.seed, measures for
// options.seconds, checks every answer and fills the report.
Report RunBatchMapReduce(const RunOptions& options, Tracer* tracer);
Report RunBatchProtocol(const RunOptions& options, Tracer* tracer);
Report RunServeMixed(const RunOptions& options, Tracer* tracer);

/// Dispatches on options.workload; false if the name is unknown. The
/// traced run writes its spans, headed by `provenance`, to trace_out.
bool RunWorkload(const RunOptions& options, const std::string& provenance,
                 Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
