#ifndef CSOD_OUTLIER_ANSWER_H_
#define CSOD_OUTLIER_ANSWER_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "cs/bomp.h"
#include "cs/measurement_matrix.h"
#include "cs/solver.h"
#include "obs/telemetry.h"
#include "outlier/outlier.h"

namespace csod::outlier {

/// What a query asks of a recovery (the SELECT of the paper's query
/// template, Section 6.1.2).
enum class QueryKind {
  kOutlier,  ///< k keys furthest from the (unknown) mode.
  kTop,      ///< k keys with the largest aggregates (zero-mode extension).
};

/// What the answer path needs besides the measurement — values every
/// surface already holds in its own options.
struct AnswerSpec {
  QueryKind kind = QueryKind::kOutlier;
  size_t k = 0;
  cs::RecoverySolver solver = cs::RecoverySolver::kOmp;
  /// Configured iteration budget R; 0 selects the paper's f(k).
  size_t iterations = 0;
  /// Telemetry sink forwarded to the recovery engine (null = disabled).
  obs::Telemetry* telemetry = nullptr;
};

/// A ranked answer and the recovery it was read from.
struct RecoveredAnswer {
  /// kOutlier: `KOutliersFromRecovery(recovery, k)`. kTop: the recovered
  /// entries ranked by `RankTopK`, each with divergence == value, and
  /// mode 0.
  OutlierSet ranked;
  cs::BompResult recovery;
};

/// The iteration budget R = f(k) ∈ [2k, 5k] (Section 5): the configured
/// `spec.iterations`, or `cs::DefaultIterationsForK(spec.k)` when it is 0.
size_t IterationBudget(const AnswerSpec& spec);

/// \brief Step 5 of every CSOD surface: recovers `y = Φ0 x` with the
/// spec's engine for `IterationBudget(spec)` iterations and ranks the
/// recovered candidates (Section 3.2).
///
/// Every Detect/Query surface — detectors, streaming leader and follower,
/// the CS protocols and the CS MapReduce reducer — answers through this
/// one function, so the same (matrix, y, spec) gives the same bits
/// everywhere.
Result<RecoveredAnswer> Answer(const cs::MeasurementMatrix& matrix,
                               const std::vector<double>& y,
                               const AnswerSpec& spec);

}  // namespace csod::outlier

#endif  // CSOD_OUTLIER_ANSWER_H_
