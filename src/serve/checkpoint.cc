#include "serve/checkpoint.h"

#include <utility>

#include "dist/wire_format.h"
#include "sim/buggify.h"

namespace csod::serve {

namespace {

using dist::AppendU64;
using dist::AppendU8;

// Payload layout (after the generic [magic][kind][count] envelope header;
// count = retained epochs):
//   u64 n, m, seed, window_epochs, num_shards, epoch_ticks
//   u8  window_kind, matrix_kind, started, has_snapshot
//   u64 current_epoch, version, last_tick
//   u64 num_epochs
//   per epoch: u64 events, u32 len, EncodeMeasurement bytes (own checksum)
//   per shard: u8 stalled
//   per shard: u64 num_slices; per slice: u32 len, EncodeKeyValues bytes
//   if has_snapshot: the snapshot section (AppendSnapshotSection)

Status AppendMessage(std::string* out, const Result<std::string>& message) {
  CSOD_RETURN_NOT_OK(message.status());
  if (message.Value().size() > UINT32_MAX) {
    return Status::InvalidArgument(
        "checkpoint: embedded message exceeds 4 GiB");
  }
  dist::AppendBytes(out, message.Value());
  return Status::OK();
}

}  // namespace

Status AppendSnapshotSection(std::string* out, const SketchSnapshot& snapshot) {
  AppendU8(out, static_cast<uint8_t>(snapshot.matrix_kind));
  AppendU64(out, snapshot.version);
  AppendU64(out, snapshot.last_epoch);
  AppendU64(out, snapshot.first_epoch);
  AppendU64(out, snapshot.epochs_covered);
  AppendU64(out, snapshot.events);
  dist::AppendU32List(out, snapshot.stalled_shards);
  // The window measurement travels as an embedded measurement message with
  // its own checksum — the same bytes a protocol node would transmit.
  return AppendMessage(out, dist::EncodeMeasurement(snapshot.y));
}

Status ReadSnapshotSection(dist::PayloadReader* reader,
                           SketchSnapshot* snapshot) {
  uint8_t kind = 0;
  CSOD_RETURN_NOT_OK(reader->U8(&kind));
  CSOD_ASSIGN_OR_RETURN(snapshot->matrix_kind, cs::MatrixKindFromByte(kind));
  CSOD_RETURN_NOT_OK(reader->U64(&snapshot->version));
  CSOD_RETURN_NOT_OK(reader->U64(&snapshot->last_epoch));
  CSOD_RETURN_NOT_OK(reader->U64(&snapshot->first_epoch));
  uint64_t covered = 0;
  CSOD_RETURN_NOT_OK(reader->U64(&covered));
  snapshot->epochs_covered = static_cast<size_t>(covered);
  CSOD_RETURN_NOT_OK(reader->U64(&snapshot->events));
  CSOD_RETURN_NOT_OK(reader->U32List(&snapshot->stalled_shards));
  std::string y;
  CSOD_RETURN_NOT_OK(reader->Bytes(&y));
  CSOD_ASSIGN_OR_RETURN(snapshot->y, dist::DecodeMeasurement(y));
  return Status::OK();
}

Result<std::string> EncodeCheckpoint(const StreamingDetectorOptions& options,
                                     const DetectorCheckpoint& checkpoint) {
  std::string payload;
  AppendU64(&payload, options.n);
  AppendU64(&payload, options.m);
  AppendU64(&payload, options.seed);
  AppendU64(&payload, options.window_epochs);
  AppendU64(&payload, options.num_shards);
  AppendU64(&payload, options.epoch_ticks);
  AppendU8(&payload, options.window == WindowKind::kTumbling ? 1 : 0);
  AppendU8(&payload,
           static_cast<uint8_t>(cs::MatrixKindFor(options.m, options.n)));
  AppendU8(&payload, checkpoint.started ? 1 : 0);
  AppendU8(&payload, checkpoint.snapshot != nullptr ? 1 : 0);
  AppendU64(&payload, checkpoint.current_epoch);
  AppendU64(&payload, checkpoint.version);
  AppendU64(&payload, checkpoint.last_tick);

  if (checkpoint.epoch_events.size() != checkpoint.epoch_sketches.size()) {
    return Status::InvalidArgument(
        "checkpoint: epoch events/sketches size mismatch");
  }
  const uint64_t num_epochs = checkpoint.epoch_sketches.size();
  AppendU64(&payload, num_epochs);
  for (uint64_t e = 0; e < num_epochs; ++e) {
    AppendU64(&payload, checkpoint.epoch_events[e]);
    CSOD_RETURN_NOT_OK(AppendMessage(
        &payload, dist::EncodeMeasurement(checkpoint.epoch_sketches[e])));
  }

  if (checkpoint.stalled.size() != options.num_shards ||
      checkpoint.backlogs.size() != options.num_shards) {
    return Status::InvalidArgument("checkpoint: shard state size mismatch");
  }
  for (uint8_t flag : checkpoint.stalled) AppendU8(&payload, flag ? 1 : 0);
  for (const std::vector<cs::SparseSlice>& backlog : checkpoint.backlogs) {
    AppendU64(&payload, backlog.size());
    for (const cs::SparseSlice& slice : backlog) {
      CSOD_RETURN_NOT_OK(AppendMessage(&payload, dist::EncodeKeyValues(slice)));
    }
  }

  if (checkpoint.snapshot != nullptr) {
    CSOD_RETURN_NOT_OK(AppendSnapshotSection(&payload, *checkpoint.snapshot));
  }

  std::string frame =
      dist::EncodeFrame(kCheckpointFrameKind, num_epochs, payload);
  // Buggify: crash mid-checkpoint — the writer dies partway through, so
  // the reader sees a torn frame. Keyed on the checkpointed epoch: the
  // same epoch's checkpoint is torn on every attempt (a crashed writer
  // stays crashed), the next epoch's succeeds. Decoding must reject the
  // torn bytes via the outer checksum, never restore from them.
  if (CSOD_BUGGIFY_AT("serve.net.mid_checkpoint_crash",
                      checkpoint.current_epoch)) {
    frame.resize(frame.size() / 2);
  }
  return frame;
}

Result<DecodedCheckpoint> DecodeCheckpoint(const std::string& frame) {
  CSOD_ASSIGN_OR_RETURN(dist::FrameView view, dist::DecodeFrame(frame));
  if (view.kind != kCheckpointFrameKind) {
    return Status::InvalidArgument(
        "checkpoint: unexpected frame kind " + std::to_string(view.kind));
  }
  dist::PayloadReader reader(view);
  DecodedCheckpoint decoded;
  DetectorCheckpoint& state = decoded.state;
  uint64_t u = 0;
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  decoded.n = static_cast<size_t>(u);
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  decoded.m = static_cast<size_t>(u);
  CSOD_RETURN_NOT_OK(reader.U64(&decoded.seed));
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  decoded.window_epochs = static_cast<size_t>(u);
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  decoded.num_shards = static_cast<size_t>(u);
  CSOD_RETURN_NOT_OK(reader.U64(&decoded.epoch_ticks));
  uint8_t window_kind = 0, matrix_kind = 0, started = 0, has_snapshot = 0;
  CSOD_RETURN_NOT_OK(reader.U8(&window_kind));
  CSOD_RETURN_NOT_OK(reader.U8(&matrix_kind));
  CSOD_ASSIGN_OR_RETURN(decoded.matrix_kind,
                        cs::MatrixKindFromByte(matrix_kind));
  CSOD_RETURN_NOT_OK(reader.U8(&started));
  CSOD_RETURN_NOT_OK(reader.U8(&has_snapshot));
  decoded.window =
      window_kind != 0 ? WindowKind::kTumbling : WindowKind::kSliding;
  state.started = started != 0;
  CSOD_RETURN_NOT_OK(reader.U64(&state.current_epoch));
  CSOD_RETURN_NOT_OK(reader.U64(&state.version));
  CSOD_RETURN_NOT_OK(reader.U64(&state.last_tick));

  uint64_t num_epochs = 0;
  // Each epoch is at least its u64 event count plus a length-prefixed
  // empty measurement message.
  CSOD_RETURN_NOT_OK(
      reader.Count(&num_epochs, 8 + 4 + dist::MeasurementWireSize(0)));
  if (num_epochs != view.count) {
    return Status::InvalidArgument(
        "checkpoint: epoch count disagrees with the frame envelope");
  }
  if (num_epochs > decoded.window_epochs + 1) {
    return Status::InvalidArgument("checkpoint: more epochs than the ring");
  }
  state.epoch_events.resize(num_epochs);
  state.epoch_sketches.resize(num_epochs);
  std::string message;
  for (uint64_t e = 0; e < num_epochs; ++e) {
    CSOD_RETURN_NOT_OK(reader.U64(&state.epoch_events[e]));
    CSOD_RETURN_NOT_OK(reader.Bytes(&message));
    CSOD_ASSIGN_OR_RETURN(state.epoch_sketches[e],
                          dist::DecodeMeasurement(message));
    if (state.epoch_sketches[e].size() != decoded.m) {
      return Status::InvalidArgument(
          "checkpoint: epoch sketch size " +
          std::to_string(state.epoch_sketches[e].size()) + " != M " +
          std::to_string(decoded.m));
    }
  }

  // Each shard is at least its u8 stall flag plus its u64 slice count.
  CSOD_RETURN_NOT_OK(reader.CheckCount(decoded.num_shards, 1 + 8));
  state.stalled.resize(decoded.num_shards);
  for (uint8_t& flag : state.stalled) CSOD_RETURN_NOT_OK(reader.U8(&flag));
  state.backlogs.resize(decoded.num_shards);
  for (std::vector<cs::SparseSlice>& backlog : state.backlogs) {
    uint64_t num_slices = 0;
    CSOD_RETURN_NOT_OK(
        reader.Count(&num_slices, 4 + dist::KeyValueWireSize(0)));
    backlog.resize(num_slices);
    for (cs::SparseSlice& slice : backlog) {
      CSOD_RETURN_NOT_OK(reader.Bytes(&message));
      CSOD_ASSIGN_OR_RETURN(slice, dist::DecodeKeyValues(message));
    }
  }

  if (has_snapshot != 0) {
    auto snapshot = std::make_shared<SketchSnapshot>();
    CSOD_RETURN_NOT_OK(ReadSnapshotSection(&reader, snapshot.get()));
    if (snapshot->y.size() != decoded.m) {
      return Status::InvalidArgument("checkpoint: snapshot y size mismatch");
    }
    if (snapshot->matrix_kind != decoded.matrix_kind) {
      return Status::InvalidArgument("checkpoint: snapshot matrix kind " +
                                     std::string(cs::MatrixKindName(
                                         snapshot->matrix_kind)) +
                                     " != checkpoint matrix kind");
    }
    state.snapshot = std::move(snapshot);
  }
  CSOD_RETURN_NOT_OK(reader.ExpectEnd());
  return decoded;
}

Result<std::unique_ptr<StreamingDetector>> RestoreDetector(
    const std::string& frame, const StreamingDetectorOptions& options) {
  CSOD_ASSIGN_OR_RETURN(DecodedCheckpoint decoded, DecodeCheckpoint(frame));
  if (decoded.n != options.n || decoded.m != options.m ||
      decoded.seed != options.seed ||
      decoded.matrix_kind != cs::MatrixKindFor(options.m, options.n) ||
      decoded.window_epochs != options.window_epochs ||
      decoded.num_shards != options.num_shards ||
      decoded.epoch_ticks != options.epoch_ticks ||
      decoded.window != options.window) {
    return Status::InvalidArgument(
        "RestoreDetector: checkpoint geometry (n=" + std::to_string(decoded.n) +
        " m=" + std::to_string(decoded.m) +
        " seed=" + std::to_string(decoded.seed) +
        " matrix=" + cs::MatrixKindName(decoded.matrix_kind) +
        " window=" + std::to_string(decoded.window_epochs) +
        " shards=" + std::to_string(decoded.num_shards) +
        ") does not match the detector options");
  }
  return StreamingDetector::Restore(options, decoded.state);
}

}  // namespace csod::serve
