// Answer checks and small helpers shared by the workloads.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/status.h"
#include "cs/measurement_matrix.h"
#include "outlier/outlier.h"

namespace perfbench {

/// Set-up repeats per run (see TimedSetup); setup_s is their median.
inline constexpr int kMinSetupRepeats = 3;
inline constexpr int kMaxSetupRepeats = 50;
inline constexpr double kMinSetupSeconds = 1.0;
/// Live-sink vs disabled-sink pairs behind obs.overhead_pct.
inline constexpr int kObsPairs = 3;
/// A run that keeps failing stops at this multiple of --seconds.
inline constexpr double kMaxRunFactor = 3.0;
/// A batch answer's value error must stay at or below this.
inline constexpr double kMaxErrorOnValue = 1e-9;

/// The consensus seed of Φ0, derived from the workload seed.
uint64_t ConsensusSeed(uint64_t seed);

/// Test hook: moves the reference's first key to a neighbouring key, so
/// a correct answer no longer matches it.
void CorruptReference(csod::outlier::OutlierSet* truth, size_t n);

/// Fails the report unless `answer` has EK = 0 and EV <= 1e-9 against
/// the generator's exact k-outliers.
void CheckBatchAnswer(const csod::outlier::OutlierSet& truth,
                      const csod::outlier::OutlierSet& answer,
                      const std::string& what, Report* report);

/// Fails the report unless the traditional job's top-k has the exact
/// top-k values (relative error <= 1e-9), each under a key whose true
/// aggregate is that value.
void CheckTopK(const std::vector<csod::outlier::Outlier>& truth,
               const std::vector<double>& global,
               const std::vector<csod::outlier::Outlier>& answer,
               Report* report);

/// One recovery replayed call by call on the program's inputs.
struct RecoveryReplay {
  double matrix_build_ms = 0;  ///< Set by the caller, who builds Φ0.
  double bomp_ms = 0;
  double correlate_ms = 0;  ///< R fused correlate+argmax calls.
  double lstsq_ms = 0;      ///< QR append/projection per atom + final solve.
  double extract_us = 0;
  size_t iterations = 0;
  bool cached = false;
};

/// Times RunBomp on `y` with the paper's R = f(k), then its correlation
/// share (R calls of CorrelateArgmax, masked as BOMP calls it), its `la`
/// share (the IncrementalQr work OMP does per selected atom, and the
/// final least-squares solve) and KOutliersFromRecovery.
csod::Result<RecoveryReplay> ReplayRecovery(
    const csod::cs::MeasurementMatrix& matrix, const std::vector<double>& y,
    size_t k);

/// Sets cs.matrix_build_ms, cs.matrix_cached, cs.bomp_ms,
/// cs.bomp_iterations, cs.correlate_ms, la.lstsq_ms and outlier.extract_us
/// (medians over the replays).
void SetRecoveryMetrics(const std::vector<RecoveryReplay>& replays,
                        Report* report);

/// Adds the replayed calls as child spans of `parent`: the matrix build,
/// BOMP (its correlation and la shares as children) and the extraction.
void AddRecoverySpans(Tracer* tracer, int64_t parent,
                      const RecoveryReplay& replay);

/// Runs `setup` at least kMinSetupRepeats times, once on each CPU the
/// caller may use, and until kMinSetupSeconds were spent (at most
/// kMaxSetupRepeats), calling `release` untimed before each repeat after
/// the first. Repeat i is pinned to the i-th allowed CPU (cyclically); the
/// caller's CPU mask is restored on return. Returns the median process CPU
/// time of a set-up in seconds, or the first set-up error.
csod::Result<double> TimedSetup(const std::function<void()>& release,
                                const std::function<csod::Status()>& setup);

/// What one repetition of a batch workload hands back to RunRepetitions.
struct Rep {
  bool ok = false;      ///< False when it failed (already in the report).
  double wall_ms = 0;   ///< Wall time of the measured operations.
  double cpu_ms = 0;    ///< Process CPU time of the same operations.
  uint64_t digest = 0;  ///< Digest of its answers.
};

/// Wall times of the repetitions RunRepetitions made, and (`cpu`, parallel
/// to `all`) their CPU times.
struct RepWalls {
  std::vector<double> all, untraced, traced, cpu;
};

/// Calls `run_one(rep, live)` for options.seconds. `live` is null on
/// untraced repetitions; a traced run spends its first third untraced
/// (the tracing-overhead baseline) and then passes the tracer. At least
/// two repetitions of each kind run, and the loop stops at kMaxRunFactor
/// times options.seconds whatever happens. A digest that differs from
/// the first repetition's counts as a failed op; the first one becomes
/// the report's digest.
RepWalls RunRepetitions(
    const RunOptions& options, Tracer* tracer, Report* report,
    const std::function<Rep(uint64_t rep, Tracer* live)>& run_one);

/// 100 * (median(with) - median(without)) / median(without).
double OverheadPct(const std::vector<double>& with,
                   const std::vector<double>& without);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
