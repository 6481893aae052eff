#include "core/detector.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/wire_format.h"
#include "la/vector_ops.h"
#include "outlier/metrics.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace csod::core {
namespace {

DetectorOptions SmallOptions(size_t n = 500, size_t m = 180) {
  DetectorOptions options;
  options.n = n;
  options.m = m;
  options.seed = 11;
  options.iterations = 24;
  return options;
}

std::vector<cs::SparseSlice> MakeSlices(const std::vector<double>& global,
                                        size_t num_nodes, uint64_t seed) {
  workload::PartitionOptions part;
  part.num_nodes = num_nodes;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.seed = seed;
  return workload::PartitionAdditive(global, part).Value();
}

std::vector<double> TestGlobal(size_t n = 500, size_t s = 12,
                               uint64_t seed = 5) {
  workload::MajorityDominatedOptions gen;
  gen.n = n;
  gen.sparsity = s;
  gen.seed = seed;
  return workload::GenerateMajorityDominated(gen).Value();
}

TEST(DetectorTest, CreateValidatesOptions) {
  DetectorOptions bad;
  EXPECT_FALSE(DistributedOutlierDetector::Create(bad).ok());
  bad.n = 10;
  EXPECT_FALSE(DistributedOutlierDetector::Create(bad).ok());
  bad.m = 11;  // M <= N is the paper's regime.
  EXPECT_FALSE(DistributedOutlierDetector::Create(bad).ok());
  bad.m = 4;
  EXPECT_TRUE(DistributedOutlierDetector::Create(bad).ok());
}

// m·n·8 past size_t used to wrap to a zero-byte cache that the column
// fill then wrote through.
TEST(DetectorTest, CreateRejectsOverflowingDimensions) {
  DetectorOptions huge = SmallOptions();
  huge.n = uint64_t{1} << 40;
  huge.m = uint64_t{1} << 40;
  EXPECT_EQ(DistributedOutlierDetector::Create(huge).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DetectorTest, DetectsPlantedOutliers) {
  const std::vector<double> global = TestGlobal();
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  for (const auto& slice : MakeSlices(global, 6, 3)) {
    ASSERT_TRUE(detector->AddSource(slice).ok());
  }
  EXPECT_EQ(detector->num_sources(), 6u);

  const size_t k = 5;
  auto result = detector->Detect(k);
  ASSERT_TRUE(result.ok());
  auto truth = outlier::ExactKOutliers(global, k);
  EXPECT_DOUBLE_EQ(outlier::ErrorOnKey(truth, result.Value()), 0.0);
  EXPECT_NEAR(result.Value().mode, 5000.0, 1e-3);
}

TEST(DetectorTest, DetectRequiresSources) {
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  EXPECT_FALSE(detector->Detect(3).ok());
  EXPECT_FALSE(detector->Detect(0).ok());
}

TEST(DetectorTest, RemoveSourceEqualsNeverAdding) {
  const std::vector<double> global = TestGlobal();
  auto slices = MakeSlices(global, 4, 9);

  auto with_removal =
      DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  std::vector<SourceId> ids;
  for (const auto& slice : slices) {
    ids.push_back(with_removal->AddSource(slice).MoveValue());
  }
  ASSERT_TRUE(with_removal->RemoveSource(ids[2]).ok());

  auto without =
      DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  for (size_t l = 0; l < slices.size(); ++l) {
    if (l == 2) continue;
    ASSERT_TRUE(without->AddSource(slices[l]).ok());
  }

  EXPECT_LT(la::DistanceL2(with_removal->global_measurement(),
                           without->global_measurement()),
            1e-9);
}

TEST(DetectorTest, RemoveUnknownSourceFails) {
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  EXPECT_FALSE(detector->RemoveSource(42).ok());
}

TEST(DetectorTest, ApplyDeltaEqualsRecompression) {
  const std::vector<double> global = TestGlobal();
  auto slices = MakeSlices(global, 3, 17);

  auto incremental =
      DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  std::vector<SourceId> ids;
  for (const auto& slice : slices) {
    ids.push_back(incremental->AddSource(slice).MoveValue());
  }
  // New data arrives at node 1: a fresh outlier and a mode shift on one key.
  cs::SparseSlice delta;
  delta.indices = {42, 260};
  delta.values = {30000.0, -4.0};
  ASSERT_TRUE(incremental->ApplyDelta(ids[1], delta).ok());

  // Reference: recompute from scratch with the delta folded into slice 1.
  auto fresh = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  for (size_t l = 0; l < slices.size(); ++l) {
    cs::SparseSlice slice = slices[l];
    if (l == 1) {
      slice.indices.insert(slice.indices.end(), delta.indices.begin(),
                           delta.indices.end());
      slice.values.insert(slice.values.end(), delta.values.begin(),
                          delta.values.end());
    }
    ASSERT_TRUE(fresh->AddSource(slice).ok());
  }

  EXPECT_LT(la::DistanceL2(incremental->global_measurement(),
                           fresh->global_measurement()),
            1e-9);

  // The new outlier at key 42 must now be detected.
  auto result = incremental->Detect(5);
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const auto& o : result.Value().outliers) {
    if (o.key_index == 42) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DetectorTest, ApplyDeltaUnknownSourceFails) {
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  cs::SparseSlice delta;
  EXPECT_FALSE(detector->ApplyDelta(7, delta).ok());
}

TEST(DetectorTest, AddSourceMeasurementMatchesAddSource) {
  const std::vector<double> global = TestGlobal();
  auto slices = MakeSlices(global, 2, 23);

  auto by_slice = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  ASSERT_TRUE(by_slice->AddSource(slices[0]).ok());

  // Simulate the remote node: compress with its own copy of the matrix.
  cs::MeasurementMatrix remote_matrix(SmallOptions().m, SmallOptions().n,
                                      SmallOptions().seed);
  auto y = remote_matrix.MultiplySparse(slices[0].indices, slices[0].values);
  ASSERT_TRUE(y.ok());
  auto by_measurement =
      DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  ASSERT_TRUE(by_measurement->AddSourceMeasurement(y.MoveValue()).ok());

  EXPECT_EQ(by_slice->global_measurement(),
            by_measurement->global_measurement());
}

TEST(DetectorTest, AddSourceMeasurementSizeChecked) {
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  EXPECT_FALSE(detector->AddSourceMeasurement({1.0, 2.0}).ok());
}

TEST(DetectorTest, SaveLoadRoundTrip) {
  const std::vector<double> global = TestGlobal();
  auto original = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  std::vector<SourceId> ids;
  for (const auto& slice : MakeSlices(global, 4, 31)) {
    ids.push_back(original->AddSource(slice).MoveValue());
  }

  const std::string checkpoint = original->Save().MoveValue();
  EXPECT_EQ(dist::DecodeFrame(checkpoint).MoveValue().kind,
            dist::kDetectorCheckpointFrameKind);
  auto restored = DistributedOutlierDetector::Load(checkpoint).MoveValue();

  EXPECT_EQ(restored->num_sources(), original->num_sources());
  EXPECT_EQ(restored->options().n, original->options().n);
  EXPECT_EQ(restored->options().m, original->options().m);
  EXPECT_EQ(restored->options().seed, original->options().seed);
  EXPECT_EQ(restored->global_measurement(), original->global_measurement());

  // Detection agrees bitwise.
  auto a = original->Detect(5).MoveValue();
  auto b = restored->Detect(5).MoveValue();
  ASSERT_EQ(a.outliers.size(), b.outliers.size());
  for (size_t i = 0; i < a.outliers.size(); ++i) {
    EXPECT_EQ(a.outliers[i].key_index, b.outliers[i].key_index);
    EXPECT_EQ(a.outliers[i].value, b.outliers[i].value);
  }

  // Source ids survive: removing an original id works on the restored
  // detector too.
  ASSERT_TRUE(restored->RemoveSource(ids[2]).ok());
  ASSERT_TRUE(original->RemoveSource(ids[2]).ok());
  EXPECT_EQ(restored->global_measurement(), original->global_measurement());
}

TEST(DetectorTest, LoadRefusesAnotherMatrixKind) {
  // The matrix kind is geometry: a sketch taken under one Φ0 means nothing
  // under the other, so a frame whose kind byte is not the one its m and n
  // derive is refused — in both directions, and for an unknown byte.
  const std::vector<double> global = TestGlobal();
  for (size_t m : {size_t{180}, size_t{300}}) {
    const DetectorOptions options = SmallOptions(500, m);
    auto original = DistributedOutlierDetector::Create(options).MoveValue();
    EXPECT_EQ(original->matrix().kind(), cs::MatrixKindFor(m, 500));
    for (const auto& slice : MakeSlices(global, 3, 7)) {
      ASSERT_TRUE(original->AddSource(slice).ok());
    }
    const std::string frame = original->Save().MoveValue();

    auto restored = DistributedOutlierDetector::Load(frame).MoveValue();
    EXPECT_EQ(restored->matrix().kind(), original->matrix().kind());
    EXPECT_EQ(restored->Detect(5).Value().outliers[0].value,
              original->Detect(5).Value().outliers[0].value);
    ASSERT_TRUE(DistributedOutlierDetector::Load(frame, &options).ok());
    DetectorOptions other = options;
    other.seed = 12;
    EXPECT_EQ(DistributedOutlierDetector::Load(frame, &other).status().code(),
              StatusCode::kInvalidArgument);

    // The kind byte follows n, m, seed and iterations.
    const dist::FrameView view = dist::DecodeFrame(frame).MoveValue();
    for (uint8_t byte : {uint8_t{0}, uint8_t{1}, uint8_t{7}}) {
      if (byte == static_cast<uint8_t>(original->matrix().kind())) continue;
      std::string payload(view.payload, view.payload_size);
      payload[4 * sizeof(uint64_t)] = static_cast<char>(byte);
      const std::string mutant =
          dist::EncodeFrame(view.kind, view.count, payload);
      EXPECT_EQ(DistributedOutlierDetector::Load(mutant).status().code(),
                StatusCode::kInvalidArgument);
      EXPECT_EQ(
          DistributedOutlierDetector::Load(mutant, &options).status().code(),
          StatusCode::kInvalidArgument);
    }
  }
}

// Header of a detector-checkpoint payload: n, m, seed, iterations, kind.
std::string CheckpointHeader(uint64_t n, uint64_t m) {
  std::string payload;
  for (uint64_t v : {n, m, uint64_t{11}, uint64_t{24}}) {
    dist::AppendU64(&payload, v);
  }
  dist::AppendU8(&payload, static_cast<uint8_t>(cs::MatrixKindFor(m, n)));
  return payload;
}

TEST(DetectorTest, LoadRejectsGarbage) {
  EXPECT_FALSE(DistributedOutlierDetector::Load("hello world").ok());

  // A valid one-source checkpoint, then torn: the frame checksum fails.
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  ASSERT_TRUE(
      detector->AddSource(cs::SparseSlice::FromDense({3.0, 0.0, 7.0})).ok());
  const std::string saved = detector->Save().MoveValue();
  ASSERT_TRUE(DistributedOutlierDetector::Load(saved).ok());
  EXPECT_EQ(DistributedOutlierDetector::Load(saved.substr(0, saved.size() / 2))
                .status()
                .code(),
            StatusCode::kDataLoss);

  // Truncated: the envelope claims three sources, the payload holds none.
  const std::string truncated = dist::EncodeFrame(
      dist::kDetectorCheckpointFrameKind, 3, CheckpointHeader(500, 180));
  EXPECT_EQ(DistributedOutlierDetector::Load(truncated).status().code(),
            StatusCode::kInvalidArgument);

  // A length far beyond the bytes that follow it.
  std::string lying = CheckpointHeader(500, 180);
  dist::AppendU64(&lying, 0);
  dist::AppendU32(&lying, UINT32_MAX);
  EXPECT_EQ(DistributedOutlierDetector::Load(
                dist::EncodeFrame(dist::kDetectorCheckpointFrameKind, 1, lying))
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // The same source block twice.
  std::string source;
  dist::AppendU64(&source, 0);
  dist::AppendBytes(&source, dist::EncodeMeasurement(
                                 detector->global_measurement())
                                 .MoveValue());
  const std::string repeated_id =
      dist::EncodeFrame(dist::kDetectorCheckpointFrameKind, 2,
                        CheckpointHeader(500, 180) + source + source);
  EXPECT_EQ(DistributedOutlierDetector::Load(repeated_id).status().code(),
            StatusCode::kInvalidArgument);

  // Another frame kind is not a detector checkpoint.
  EXPECT_FALSE(DistributedOutlierDetector::Load(
                   dist::EncodeMeasurement({1.0}).MoveValue())
                   .ok());
}

TEST(DetectorTest, LoadRejectsOverflowingDimensions) {
  const std::string frame = dist::EncodeFrame(
      dist::kDetectorCheckpointFrameKind, 0,
      CheckpointHeader(uint64_t{1} << 40, uint64_t{1} << 40));
  EXPECT_EQ(DistributedOutlierDetector::Load(frame).status().code(),
            StatusCode::kInvalidArgument);

  // m·n·8 fits size_t, but m > n: a sourceless frame must not size the
  // global measurement from its header.
  const std::string wide =
      dist::EncodeFrame(dist::kDetectorCheckpointFrameKind, 0,
                        CheckpointHeader(1, uint64_t{1} << 60));
  EXPECT_EQ(DistributedOutlierDetector::Load(wide).status().code(),
            StatusCode::kInvalidArgument);

  // m·n·8 fits and m <= n, but M = 2^30 is past kMaxM: the header may not
  // size an 8 GiB measurement.
  const std::string huge =
      dist::EncodeFrame(dist::kDetectorCheckpointFrameKind, 0,
                        CheckpointHeader(uint64_t{1} << 30, uint64_t{1} << 30));
  EXPECT_EQ(DistributedOutlierDetector::Load(huge).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DetectorTest, AccessorsExposeConfiguration) {
  auto detector = DistributedOutlierDetector::Create(SmallOptions()).MoveValue();
  EXPECT_EQ(detector->options().n, 500u);
  EXPECT_EQ(detector->options().m, 180u);
  EXPECT_EQ(detector->matrix().n(), 500u);
  EXPECT_EQ(detector->matrix().m(), 180u);
  EXPECT_EQ(detector->global_measurement().size(), 180u);
  EXPECT_EQ(detector->num_sources(), 0u);
}

TEST(DetectorTest, DefaultIterationsUsedWhenUnset) {
  // iterations = 0 selects the paper's f(k) at detection time; detection
  // still succeeds on easy data.
  DetectorOptions options = SmallOptions();
  options.iterations = 0;
  auto detector = DistributedOutlierDetector::Create(options).MoveValue();
  std::vector<double> global(500, 100.0);
  global[17] = 90000.0;
  ASSERT_TRUE(detector->AddSource(cs::SparseSlice::FromDense(global)).ok());
  auto result = detector->Detect(1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.Value().outliers.size(), 1u);
  EXPECT_EQ(result.Value().outliers[0].key_index, 17u);
}

TEST(DetectorTest, DetectTopKOnZeroModeData) {
  // Section 6.2 extension: with mode 0 the recovered entries rank as top-k.
  const size_t n = 400;
  std::vector<double> global(n, 0.0);
  global[10] = 900.0;
  global[20] = 700.0;
  global[30] = 500.0;
  global[40] = -800.0;

  auto detector =
      DistributedOutlierDetector::Create(SmallOptions(n, 120)).MoveValue();
  ASSERT_TRUE(detector->AddSource(cs::SparseSlice::FromDense(global)).ok());
  auto top = detector->DetectTopK(3);
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top.Value().size(), 3u);
  EXPECT_EQ(top.Value()[0].key_index, 10u);
  EXPECT_EQ(top.Value()[1].key_index, 20u);
  EXPECT_EQ(top.Value()[2].key_index, 30u);
}

}  // namespace
}  // namespace csod::core
