#include "checks.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "cs/bomp.h"
#include "la/incremental_qr.h"
#include "outlier/metrics.h"

namespace perfbench {

using namespace csod;

uint64_t ConsensusSeed(uint64_t seed) { return seed * 7919 + 17; }

void CorruptReference(outlier::OutlierSet* truth, size_t n) {
  if (truth->outliers.empty()) return;
  size_t& key = truth->outliers.front().key_index;
  key = (key + 1) % n;
}

void CheckBatchAnswer(const outlier::OutlierSet& truth,
                      const outlier::OutlierSet& answer,
                      const std::string& what, Report* report) {
  const double ek = outlier::ErrorOnKey(truth, answer);
  const double ev = outlier::ErrorOnValue(truth, answer);
  if (ek != 0.0 || !(ev <= kMaxErrorOnValue)) {
    report->Fail(what + ": EK " + std::to_string(ek) + ", EV " +
                 std::to_string(ev));
  }
}

void CheckTopK(const std::vector<outlier::Outlier>& truth,
               const std::vector<double>& global,
               const std::vector<outlier::Outlier>& answer, Report* report) {
  auto close = [](double a, double b) {
    return std::fabs(a - b) <= kMaxErrorOnValue * std::max(1.0, std::fabs(b));
  };
  bool ok = answer.size() == truth.size();
  for (size_t i = 0; ok && i < answer.size(); ++i) {
    ok = answer[i].key_index < global.size() &&
         close(answer[i].value, truth[i].value) &&
         close(answer[i].value, global[answer[i].key_index]);
  }
  if (!ok) report->Fail("traditional top-k differs from the exact top-k");
}

namespace {

double ReplayCorrelate(const cs::MeasurementMatrix& matrix,
                       const std::vector<double>& y, size_t iterations) {
  // Atom 0 of BOMP's dictionary is the bias column, so its selection mask
  // over matrix columns starts at offset 1.
  const std::vector<bool> selected(matrix.n() + 1, false);
  Timer t;
  for (size_t i = 0; i < iterations; ++i) {
    auto best = matrix.CorrelateArgmax(y, &selected, /*skip_offset=*/1);
    if (!best.ok()) break;
  }
  return t.Ms();
}

double ReplayLeastSquares(const cs::MeasurementMatrix& matrix,
                          const std::vector<double>& y,
                          const cs::BompResult& recovery) {
  std::vector<std::vector<double>> atoms;
  if (recovery.bias_selected) atoms.push_back(matrix.CachedBiasColumn());
  for (const cs::RecoveredEntry& e : recovery.entries) {
    atoms.push_back(matrix.Column(e.index));
  }
  std::vector<double> qty, projection;
  la::IncrementalQr qr(matrix.m());
  Timer t;
  for (const std::vector<double>& atom : atoms) {
    if (!qr.AppendColumn(atom).ok()) break;
    if (!qr.ProjectInto(y, &qty, &projection).ok()) break;
  }
  const auto coefficients = qr.SolveLeastSquares(y);
  const double ms = t.Ms();
  return coefficients.ok() ? ms : 0.0;
}

}  // namespace

Result<RecoveryReplay> ReplayRecovery(const cs::MeasurementMatrix& matrix,
                                      const std::vector<double>& y,
                                      size_t k) {
  RecoveryReplay r;
  r.cached = matrix.cached();
  cs::BompOptions bomp;
  bomp.max_iterations = cs::DefaultIterationsForK(k);
  Timer solve;
  CSOD_ASSIGN_OR_RETURN(cs::BompResult rec, cs::RunBomp(matrix, y, bomp));
  r.bomp_ms = solve.Ms();
  r.iterations = rec.iterations;
  r.correlate_ms = ReplayCorrelate(matrix, y, rec.iterations);
  r.lstsq_ms = ReplayLeastSquares(matrix, y, rec);
  Timer extract;
  const outlier::OutlierSet set = outlier::KOutliersFromRecovery(rec, k);
  r.extract_us = extract.Us();
  if (set.outliers.empty()) return Status::Internal("replay recovered nothing");
  return r;
}

void SetRecoveryMetrics(const std::vector<RecoveryReplay>& replays,
                        Report* report) {
  std::vector<double> build, bomp, correlate, lstsq, extract;
  for (const RecoveryReplay& r : replays) {
    build.push_back(r.matrix_build_ms);
    bomp.push_back(r.bomp_ms);
    correlate.push_back(r.correlate_ms);
    lstsq.push_back(r.lstsq_ms);
    extract.push_back(r.extract_us);
  }
  const RecoveryReplay last =
      replays.empty() ? RecoveryReplay{} : replays.back();
  report->Set("cs.matrix_build_ms", Median(build), "ms");
  report->Set("cs.matrix_cached", last.cached ? 1.0 : 0.0, "count");
  report->Set("cs.bomp_ms", Median(bomp), "ms");
  report->Set("cs.bomp_iterations", static_cast<double>(last.iterations),
              "count");
  report->Set("cs.correlate_ms", Median(correlate), "ms");
  report->Set("la.lstsq_ms", Median(lstsq), "ms");
  report->Set("outlier.extract_us", Median(extract), "us");
}

void AddRecoverySpans(Tracer* tracer, int64_t parent,
                      const RecoveryReplay& replay) {
  tracer->AddChild(parent, "cs.matrix_build", replay.matrix_build_ms);
  const int64_t bomp = tracer->AddChild(parent, "cs.bomp", replay.bomp_ms);
  tracer->AddChild(bomp, "cs.correlate", replay.correlate_ms);
  tracer->AddChild(bomp, "la.lstsq", replay.lstsq_ms);
  tracer->AddChild(parent, "outlier.extract", replay.extract_us / 1e3);
}

namespace {

// Restores the calling thread's CPU mask when it goes out of scope.
class AffinityGuard {
 public:
  AffinityGuard() {
    CPU_ZERO(&saved_);
    pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  ~AffinityGuard() {
    pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  AffinityGuard(const AffinityGuard&) = delete;
  AffinityGuard& operator=(const AffinityGuard&) = delete;

  std::vector<int> cpus() const {
    std::vector<int> out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) out.push_back(c);
    }
    return out;
  }

 private:
  cpu_set_t saved_;
};

void PinCallerTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

Result<double> TimedSetup(const std::function<void()>& release,
                          const std::function<Status()>& setup) {
  // Each repeat runs on the next CPU in turn: on a shared host one vCPU ran
  // the same single-threaded set-up up to 1.5x slower than another for tens
  // of seconds, so a median over the CPUs is steadier than the time on
  // whichever CPU the process started. The thread pool is started first so
  // that its workers do not inherit a one-CPU mask.
  ParallelForEach(GetParallelismLimit(), [](size_t) {});
  AffinityGuard guard;
  const std::vector<int> cpus = guard.cpus();
  const int min_repeats =
      std::max(kMinSetupRepeats, static_cast<int>(cpus.size()));
  std::vector<double> setup_s;
  double spent = 0.0;
  for (int done = 0; done < min_repeats ||
                     (spent < kMinSetupSeconds && done < kMaxSetupRepeats);
       ++done) {
    if (done > 0) release();
    if (!cpus.empty()) PinCallerTo(cpus[done % cpus.size()]);
    Timer t;
    CpuTimer cpu;
    CSOD_RETURN_NOT_OK(setup());
    setup_s.push_back(cpu.Ms() / 1e3);
    spent += t.Ms() / 1e3;
  }
  return Median(setup_s);
}

RepWalls RunRepetitions(
    const RunOptions& options, Tracer* tracer, Report* report,
    const std::function<Rep(uint64_t rep, Tracer* live)>& run_one) {
  RepWalls walls;
  bool have_digest = false;
  const double budget_ms = options.seconds * 1e3;
  const double untraced_budget_ms = options.trace ? budget_ms / 3 : budget_ms;
  Timer run;
  for (uint64_t rep = 0;; ++rep) {
    const bool traced = options.trace && run.Ms() >= untraced_budget_ms &&
                        walls.untraced.size() >= 2;
    const bool done =
        walls.all.size() >= 2 && (!options.trace || walls.traced.size() >= 2);
    if ((done && run.Ms() >= budget_ms) ||
        run.Ms() >= kMaxRunFactor * budget_ms) {
      break;
    }
    const uint64_t failed_before = report->failed;
    const Rep r = run_one(rep, traced ? tracer : nullptr);
    if (!r.ok) continue;
    if (!have_digest) {
      report->digest = r.digest;
      have_digest = true;
    } else if (r.digest != report->digest && report->failed == failed_before) {
      report->Fail("answer digest changed between repetitions");
    }
    walls.all.push_back(r.wall_ms);
    walls.cpu.push_back(r.cpu_ms);
    (traced ? walls.traced : walls.untraced).push_back(r.wall_ms);
  }
  return walls;
}

double OverheadPct(const std::vector<double>& with,
                   const std::vector<double>& without) {
  const double base = Median(without);
  return base > 0 ? 100.0 * (Median(with) - base) / base : 0.0;
}

}  // namespace perfbench
