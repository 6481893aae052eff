#ifndef CSOD_DIST_CS_PROTOCOL_H_
#define CSOD_DIST_CS_PROTOCOL_H_

#include <cstdint>
#include <memory>

#include "cs/bomp.h"
#include "cs/measurement_matrix.h"
#include "dist/fault.h"
#include "dist/protocol.h"

namespace csod::dist {

/// Configuration of the CS-based protocol.
struct CsProtocolOptions {
  /// Measurement size M (the per-node communication budget, in tuples).
  size_t m = 0;
  /// The consensus seed all nodes derive Φ0 from.
  uint64_t seed = 1;
  /// BOMP iteration budget R; 0 selects the paper's default f(k) ∈ [2k,5k].
  size_t iterations = 0;
  /// Dense-cache budget for the measurement matrix (Gaussian kind only).
  size_t cache_budget_bytes = cs::MeasurementMatrix::kDefaultCacheBudgetBytes;
  /// Fault plan applied to the measurement transmissions. The default is a
  /// perfect network: no injector is attached and the run is bit-identical
  /// to the pre-fault protocol.
  FaultPlan faults;
  /// Coordinator retry/timeout policy for missing measurements. A retry
  /// re-requests only the missing y_l — M tuples, not the node's data.
  RetryPolicy retry;
  /// When true (default), nodes that exhaust the retry budget are excluded
  /// and the answer is recovered from the partial sum Σ_{alive} y_l (sound
  /// by CS linearity; the excluded set is reported in last_collection()).
  /// When false such a run fails with FailedPrecondition instead.
  bool allow_degraded = true;
};

/// \brief The paper's CS-based single-round protocol (Figure 2):
/// local compression → measurement transmission → global measurement →
/// BOMP recovery → k-outlier extraction.
class CsOutlierProtocol final : public OutlierProtocol {
 public:
  explicit CsOutlierProtocol(CsProtocolOptions options)
      : options_(options) {}

  Result<outlier::OutlierSet> Run(const Cluster& cluster, size_t k,
                                  CommStats* comm) override;
  std::string name() const override { return "BOMP"; }

  /// Full recovery diagnostics of the last Run() (mode trace, iterations).
  const cs::BompResult& last_recovery() const { return last_recovery_; }

  /// Fault-tolerance outcome of the last Run(): excluded slices, retry
  /// count, degraded flag. All-empty on a fault-free run.
  const CollectionReport& last_collection() const { return last_collection_; }

 private:
  CsProtocolOptions options_;
  cs::BompResult last_recovery_;
  CollectionReport last_collection_;
};

}  // namespace csod::dist

#endif  // CSOD_DIST_CS_PROTOCOL_H_
