#include "outlier/answer.h"

namespace csod::outlier {

size_t IterationBudget(const AnswerSpec& spec) {
  return spec.iterations == 0 ? cs::DefaultIterationsForK(spec.k)
                              : spec.iterations;
}

Result<RecoveredAnswer> Answer(const cs::MeasurementMatrix& matrix,
                               const std::vector<double>& y,
                               const AnswerSpec& spec) {
  cs::SolverOptions solve;
  solve.solver = spec.solver;
  solve.iterations = IterationBudget(spec);
  solve.telemetry = spec.telemetry;
  RecoveredAnswer out;
  CSOD_ASSIGN_OR_RETURN(out.recovery, cs::RecoverBiased(matrix, y, solve));
  if (spec.kind == QueryKind::kOutlier) {
    out.ranked = KOutliersFromRecovery(out.recovery, spec.k);
    return out;
  }
  out.ranked.outliers.reserve(out.recovery.entries.size());
  for (const cs::RecoveredEntry& e : out.recovery.entries) {
    out.ranked.outliers.push_back(Outlier{e.index, e.value, e.value});
  }
  RankTopK(&out.ranked.outliers, spec.k);
  return out;
}

}  // namespace csod::outlier
