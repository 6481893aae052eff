#ifndef CSOD_SERVE_SNAPSHOT_H_
#define CSOD_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <vector>

#include "cs/measurement_matrix.h"

namespace csod::serve {

/// \brief An immutable, epoch-versioned window sketch published by a
/// `StreamingDetector` at an epoch boundary.
///
/// This is the unit of isolation between ingestion and queries: the
/// detector builds a fresh snapshot while closing an epoch and swaps it in
/// atomically (a `shared_ptr` exchange), so a query holds a consistent
/// window measurement for as long as it needs without ever blocking — or
/// being blocked by — concurrent ingestion. Because CS measurements are
/// linear, the whole window is one M-vector (`y = Σ_epochs y_epoch`), so a
/// snapshot costs O(M) to build and O(1) to publish regardless of how many
/// events the window absorbed.
///
/// Staleness contract (docs/STREAMING.md): a snapshot covers every event
/// ingested into epochs `[first_epoch, last_epoch]` on non-stalled shards;
/// events of the in-progress epoch `last_epoch + 1` are *never* visible.
/// Queries against the latest snapshot are therefore stale by less than
/// one epoch of ingestion (exactly the current epoch's partial data).
struct SketchSnapshot {
  /// The Φ0 ensemble `y` was sketched under: a replica answers from it
  /// only with a matrix of the same kind.
  cs::MatrixKind matrix_kind = cs::MatrixKind::kSign;
  /// Publish counter, strictly increasing per detector (1 = first).
  uint64_t version = 0;
  /// Newest epoch whose data is included.
  uint64_t last_epoch = 0;
  /// Oldest epoch whose data is included.
  uint64_t first_epoch = 0;
  /// Number of epoch sketches summed into `y` (== last - first + 1).
  size_t epochs_covered = 0;
  /// The window measurement `y = Σ_{e ∈ window} y_e`, length M, folded in
  /// ascending epoch order.
  std::vector<double> y;
  /// Events folded into the covered epochs (excludes deferred events of
  /// stalled shards).
  uint64_t events = 0;
  /// Shards that were stalled when this snapshot was published: their
  /// deferred events are missing from `y` (degraded mode; the linearity
  /// argument of docs/THEORY.md §7 bounds the induced error).
  std::vector<uint32_t> stalled_shards;
};

}  // namespace csod::serve

#endif  // CSOD_SERVE_SNAPSHOT_H_
