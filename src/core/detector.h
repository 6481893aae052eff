#ifndef CSOD_CORE_DETECTOR_H_
#define CSOD_CORE_DETECTOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "cs/bomp.h"
#include "cs/compressor.h"
#include "cs/measurement_matrix.h"
#include "cs/solver.h"
#include "outlier/answer.h"
#include "outlier/outlier.h"

namespace csod::core {

/// Configuration of a DistributedOutlierDetector.
struct DetectorOptions {
  /// Global key-space size N (the global key dictionary length).
  size_t n = 0;
  /// Measurement size M — the per-node communication budget. The theory
  /// (Theorem 1) asks for M = O(s^a log N) for s-sparse-like data.
  size_t m = 0;
  /// Consensus seed from which every node derives the same Φ0.
  uint64_t seed = 1;
  /// BOMP iteration budget R; 0 selects the paper's f(k) ∈ [2k, 5k] at
  /// detection time.
  size_t iterations = 0;
  /// Recovery engine for Detect / DetectTopK / Recover (see cs/solver.h for
  /// the per-engine budget mapping of `iterations`). A query-time
  /// preference: it is NOT serialized by Save/Load — sketches are
  /// engine-agnostic, so a checkpoint can be recovered with any solver.
  cs::RecoverySolver solver = cs::RecoverySolver::kOmp;
  /// Dense-cache budget for Φ0.
  size_t cache_budget_bytes = cs::MeasurementMatrix::kDefaultCacheBudgetBytes;
  /// Telemetry sink (sketch + recovery instrumentation). Not serialized by
  /// Save/Load. Null or disabled is free.
  obs::Telemetry* telemetry = nullptr;
};

/// Identifier of a registered data source (node / data center).
using SourceId = uint64_t;

/// \brief The library's main entry point: maintains compressed sketches of
/// many distributed data slices and answers k-outlier / mode / top-k
/// queries on their *aggregate*.
///
/// Because the CS measurement is linear (Equation 1), the detector
/// supports exactly the three production requirements of Section 1:
///  1. global answers from per-node sketches (local ≠ global outliers),
///  2. incremental data arrival (`ApplyDelta` adds `Φ0·Δx` to a sketch),
///  3. node addition/removal (`AddSource` / `RemoveSource` add or subtract
///     the node's sketch from the global measurement).
///
/// All operations are O(M) or O(nnz·M); nothing ever touches the full
/// key space except recovery itself.
class DistributedOutlierDetector {
 public:
  /// Validates options (n, m > 0, m <= n and m·n·8 fits size_t) and
  /// builds the shared measurement matrix.
  static Result<std::unique_ptr<DistributedOutlierDetector>> Create(
      const DetectorOptions& options);

  /// Registers a data source holding `slice`; returns its id.
  /// Communication-equivalent cost: M measurement tuples.
  Result<SourceId> AddSource(const cs::SparseSlice& slice);

  /// Registers a data source from an already-compressed local measurement
  /// `y_l` (what a remote node actually transmits).
  Result<SourceId> AddSourceMeasurement(std::vector<double> y_l);

  /// Removes a source, subtracting its sketch from the global measurement.
  Status RemoveSource(SourceId id);

  /// Applies new data arriving at a source: `y_l += Φ0 · Δx`.
  Status ApplyDelta(SourceId id, const cs::SparseSlice& delta);

  /// Answers a k-outlier (kOutlier) or top-k-by-recovered-value (kTop;
  /// the Section 6.2 extension, meaningful when the data's mode is 0)
  /// query on the current global aggregate, through outlier::Answer.
  Result<outlier::OutlierSet> Answer(outlier::QueryKind kind, size_t k) const;

  /// Detects the k-outliers and mode of the current global aggregate
  /// (Answer(kOutlier, k)).
  Result<outlier::OutlierSet> Detect(size_t k) const;

  /// Degraded-mode detection: answers from the partial sum
  /// `Σ_{l ∉ excluded} y_l`, i.e. as if the excluded sources were
  /// unreachable. Sound by CS linearity — the partial sum is exactly
  /// Φ0 times the partial aggregate (docs/FAULT_MODEL.md). Every id in
  /// `excluded` must be registered; sources stay registered afterwards.
  Result<outlier::OutlierSet> DetectExcluding(
      const std::vector<SourceId>& excluded, size_t k) const;

  /// Top-k by recovered value (Answer(kTop, k)'s rows).
  Result<std::vector<outlier::Outlier>> DetectTopK(size_t k) const;

  /// Full recovery (mode, all recovered entries, diagnostics).
  Result<cs::BompResult> Recover(size_t iterations) const;

  /// The current global measurement y = Σ_l y_l.
  const std::vector<double>& global_measurement() const { return global_y_; }

  size_t num_sources() const { return sketches_.size(); }
  const DetectorOptions& options() const { return options_; }
  const cs::MeasurementMatrix& matrix() const { return *matrix_; }

  /// Checkpoints the detector (options + every source sketch, by id) as
  /// one checksummed dist::kDetectorCheckpointFrameKind frame. State is
  /// tiny — O(sources · M) — because only sketches are retained, never
  /// data.
  Result<std::string> Save() const;

  /// Restores a detector from a frame written by Save, keeping every
  /// source id. DataLoss on torn/corrupted bytes, InvalidArgument on a
  /// structurally inconsistent payload.
  static Result<std::unique_ptr<DistributedOutlierDetector>> Load(
      const std::string& frame);

 private:
  explicit DistributedOutlierDetector(const DetectorOptions& options);

  // outlier::Answer on measurement `y` with this detector's engine/budget.
  Result<outlier::OutlierSet> AnswerFrom(const std::vector<double>& y,
                                         outlier::QueryKind kind,
                                         size_t k) const;

  DetectorOptions options_;
  std::unique_ptr<cs::MeasurementMatrix> matrix_;
  std::unique_ptr<cs::Compressor> compressor_;
  SourceId next_id_ = 0;
  std::map<SourceId, std::vector<double>> sketches_;
  std::vector<double> global_y_;
};

}  // namespace csod::core

#endif  // CSOD_CORE_DETECTOR_H_
