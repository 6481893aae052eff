#include "core/detector.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "dist/wire_format.h"
#include "la/vector_ops.h"

namespace csod::core {

DistributedOutlierDetector::DistributedOutlierDetector(
    const DetectorOptions& options)
    : options_(options),
      matrix_(std::make_unique<cs::MeasurementMatrix>(
          options.m, options.n, options.seed, options.cache_budget_bytes)),
      compressor_(std::make_unique<cs::Compressor>(matrix_.get())),
      global_y_(options.m, 0.0) {
  compressor_->set_telemetry(options.telemetry);
}

Result<std::unique_ptr<DistributedOutlierDetector>>
DistributedOutlierDetector::Create(const DetectorOptions& options) {
  if (options.n == 0) {
    return Status::InvalidArgument("DetectorOptions.n must be > 0");
  }
  if (options.m == 0) {
    return Status::InvalidArgument("DetectorOptions.m must be > 0");
  }
  if (options.m > SIZE_MAX / sizeof(double) / options.n) {
    return Status::InvalidArgument(
        "DetectorOptions: m*n*8 bytes overflows size_t (m=" +
        std::to_string(options.m) + ", n=" + std::to_string(options.n) + ")");
  }
  return std::unique_ptr<DistributedOutlierDetector>(
      new DistributedOutlierDetector(options));
}

Result<SourceId> DistributedOutlierDetector::AddSource(
    const cs::SparseSlice& slice) {
  CSOD_ASSIGN_OR_RETURN(std::vector<double> y_l,
                        compressor_->Compress(slice));
  return AddSourceMeasurement(std::move(y_l));
}

Result<SourceId> DistributedOutlierDetector::AddSourceMeasurement(
    std::vector<double> y_l) {
  if (y_l.size() != options_.m) {
    return Status::InvalidArgument(
        "AddSourceMeasurement: measurement size " +
        std::to_string(y_l.size()) + " != M " + std::to_string(options_.m));
  }
  la::Axpy(1.0, y_l, &global_y_);
  const SourceId id = next_id_++;
  sketches_.emplace(id, std::move(y_l));
  return id;
}

Status DistributedOutlierDetector::RemoveSource(SourceId id) {
  auto it = sketches_.find(id);
  if (it == sketches_.end()) {
    return Status::NotFound("RemoveSource: no source " + std::to_string(id));
  }
  la::Axpy(-1.0, it->second, &global_y_);
  sketches_.erase(it);
  return Status::OK();
}

Status DistributedOutlierDetector::ApplyDelta(SourceId id,
                                              const cs::SparseSlice& delta) {
  auto it = sketches_.find(id);
  if (it == sketches_.end()) {
    return Status::NotFound("ApplyDelta: no source " + std::to_string(id));
  }
  CSOD_ASSIGN_OR_RETURN(std::vector<double> dy, compressor_->Compress(delta));
  la::Axpy(1.0, dy, &it->second);
  la::Axpy(1.0, dy, &global_y_);
  return Status::OK();
}

Result<outlier::OutlierSet> DistributedOutlierDetector::Answer(
    outlier::QueryKind kind, size_t k) const {
  if (k == 0) {
    return Status::InvalidArgument("Answer: k must be > 0");
  }
  if (sketches_.empty()) {
    return Status::FailedPrecondition("Answer: no sources registered");
  }
  return AnswerFrom(global_y_, kind, k);
}

Result<outlier::OutlierSet> DistributedOutlierDetector::Detect(
    size_t k) const {
  return Answer(outlier::QueryKind::kOutlier, k);
}

Result<outlier::OutlierSet> DistributedOutlierDetector::DetectExcluding(
    const std::vector<SourceId>& excluded, size_t k) const {
  if (k == 0) {
    return Status::InvalidArgument("DetectExcluding: k must be > 0");
  }
  std::vector<double> partial_y = global_y_;
  size_t remaining = sketches_.size();
  std::set<SourceId> seen;
  for (SourceId id : excluded) {
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("DetectExcluding: duplicate source " +
                                     std::to_string(id));
    }
    auto it = sketches_.find(id);
    if (it == sketches_.end()) {
      return Status::NotFound("DetectExcluding: no source " +
                              std::to_string(id));
    }
    la::Axpy(-1.0, it->second, &partial_y);
    --remaining;
  }
  if (remaining == 0) {
    return Status::FailedPrecondition(
        "DetectExcluding: every source excluded — nothing to aggregate");
  }
  return AnswerFrom(partial_y, outlier::QueryKind::kOutlier, k);
}

Result<std::vector<outlier::Outlier>> DistributedOutlierDetector::DetectTopK(
    size_t k) const {
  CSOD_ASSIGN_OR_RETURN(outlier::OutlierSet top,
                        Answer(outlier::QueryKind::kTop, k));
  return std::move(top.outliers);
}

Result<outlier::OutlierSet> DistributedOutlierDetector::AnswerFrom(
    const std::vector<double>& y, outlier::QueryKind kind, size_t k) const {
  CSOD_ASSIGN_OR_RETURN(
      outlier::RecoveredAnswer answer,
      outlier::Answer(*matrix_, y,
                      {.kind = kind,
                       .k = k,
                       .solver = options_.solver,
                       .iterations = options_.iterations,
                       .telemetry = options_.telemetry}));
  return std::move(answer.ranked);
}

// Checkpoint payload (count = number of sources):
//   u64 n, m, seed, iterations
//   per source, ascending id: u64 id, u32 len, EncodeMeasurement bytes
Result<std::string> DistributedOutlierDetector::Save() const {
  std::string payload;
  dist::AppendU64(&payload, options_.n);
  dist::AppendU64(&payload, options_.m);
  dist::AppendU64(&payload, options_.seed);
  dist::AppendU64(&payload, options_.iterations);
  for (const auto& [id, sketch] : sketches_) {
    CSOD_ASSIGN_OR_RETURN(const std::string message,
                          dist::EncodeMeasurement(sketch));
    dist::AppendU64(&payload, id);
    dist::AppendBytes(&payload, message);
  }
  return dist::EncodeFrame(dist::kDetectorCheckpointFrameKind,
                           sketches_.size(), payload);
}

Result<std::unique_ptr<DistributedOutlierDetector>>
DistributedOutlierDetector::Load(const std::string& frame) {
  CSOD_ASSIGN_OR_RETURN(const dist::FrameView view, dist::DecodeFrame(frame));
  if (view.kind != dist::kDetectorCheckpointFrameKind) {
    return Status::InvalidArgument("Load: not a detector checkpoint (kind " +
                                   std::to_string(view.kind) + ")");
  }
  dist::PayloadReader reader(view);
  DetectorOptions options;
  uint64_t u = 0;
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  options.n = static_cast<size_t>(u);
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  options.m = static_cast<size_t>(u);
  CSOD_RETURN_NOT_OK(reader.U64(&options.seed));
  CSOD_RETURN_NOT_OK(reader.U64(&u));
  options.iterations = static_cast<size_t>(u);
  // A source is at least its u64 id and a length-prefixed empty message.
  CSOD_RETURN_NOT_OK(
      reader.CheckCount(view.count, 8 + 4 + dist::MeasurementWireSize(0)));
  CSOD_ASSIGN_OR_RETURN(auto detector, Create(options));

  std::string message;
  for (uint64_t i = 0; i < view.count; ++i) {
    SourceId id = 0;
    CSOD_RETURN_NOT_OK(reader.U64(&id));
    CSOD_RETURN_NOT_OK(reader.Bytes(&message));
    CSOD_ASSIGN_OR_RETURN(std::vector<double> sketch,
                          dist::DecodeMeasurement(message));
    if (sketch.size() != options.m) {
      return Status::InvalidArgument(
          "Load: sketch size " + std::to_string(sketch.size()) + " != M " +
          std::to_string(options.m));
    }
    if (detector->sketches_.count(id) != 0) {
      return Status::InvalidArgument("Load: duplicate source " +
                                     std::to_string(id));
    }
    // The original ids are kept so RemoveSource/ApplyDelta keep working
    // across a checkpoint.
    la::Axpy(1.0, sketch, &detector->global_y_);
    detector->sketches_.emplace(id, std::move(sketch));
    detector->next_id_ = std::max(detector->next_id_, id + 1);
  }
  CSOD_RETURN_NOT_OK(reader.ExpectEnd());
  return detector;
}

Result<cs::BompResult> DistributedOutlierDetector::Recover(
    size_t iterations) const {
  if (sketches_.empty()) {
    return Status::FailedPrecondition("Recover: no sources registered");
  }
  cs::SolverOptions solver_options;
  solver_options.solver = options_.solver;
  solver_options.iterations = iterations;
  solver_options.telemetry = options_.telemetry;
  return cs::RecoverBiased(*matrix_, global_y_, solver_options);
}

}  // namespace csod::core
