// One data set through every surface that answers via outlier::Answer:
// each surface's rows and mode must be bit-identical to a direct call of
// the answer function on the same measurement.
//
// Every key arrives as its own unit (one source, node, split or batch per
// key, in key order), so every surface folds y as the same left-to-right
// sum of single-column products: the measurements agree bit for bit and any
// answer difference is the answer path's.

#include "outlier/answer.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/detector.h"
#include "core/windowed_detector.h"
#include "cs/compressor.h"
#include "dist/cluster.h"
#include "dist/comm.h"
#include "dist/cs_protocol.h"
#include "mapreduce/jobs.h"
#include "serve/net.h"
#include "serve/streaming_detector.h"

namespace csod {
namespace {

using outlier::QueryKind;

constexpr size_t kN = 240;
constexpr size_t kM = 110;
constexpr uint64_t kSeed = 17;
constexpr size_t kK = 4;
constexpr size_t kIterations = 14;

// Mode 5 with a handful of planted outliers on both sides of it.
std::vector<double> Data() {
  std::vector<double> x(kN, 5.0);
  x[3] = 90.0;
  x[41] = -60.0;
  x[97] = 75.5;
  x[150] = 33.0;
  x[201] = -20.25;
  x[233] = 61.0;
  return x;
}

cs::SparseSlice KeySlice(size_t key, double value) {
  cs::SparseSlice slice;
  slice.indices.push_back(key);
  slice.values.push_back(value);
  return slice;
}

// The shared measurement: y = Σ_key x_key·φ_key, summed in key order.
std::vector<double> ReferenceY(const cs::MeasurementMatrix& matrix) {
  const std::vector<double> x = Data();
  cs::Compressor compressor(&matrix);
  std::vector<std::vector<double>> parts;
  for (size_t key = 0; key < kN; ++key) {
    parts.push_back(compressor.Compress(KeySlice(key, x[key])).MoveValue());
  }
  return cs::Compressor::AggregateMeasurements(parts).MoveValue();
}

outlier::OutlierSet Direct(const cs::MeasurementMatrix& matrix,
                           const std::vector<double>& y, QueryKind kind,
                           cs::RecoverySolver solver) {
  outlier::AnswerSpec spec;
  spec.kind = kind;
  spec.k = kK;
  spec.solver = solver;
  spec.iterations = kIterations;
  return outlier::Answer(matrix, y, spec).MoveValue().ranked;
}

void ExpectSameAnswer(const outlier::OutlierSet& got,
                      const outlier::OutlierSet& want) {
  ASSERT_FALSE(want.outliers.empty());
  EXPECT_EQ(got.mode, want.mode);
  ASSERT_EQ(got.outliers.size(), want.outliers.size());
  for (size_t i = 0; i < want.outliers.size(); ++i) {
    EXPECT_EQ(got.outliers[i].key_index, want.outliers[i].key_index) << i;
    EXPECT_EQ(got.outliers[i].value, want.outliers[i].value) << i;
    EXPECT_EQ(got.outliers[i].divergence, want.outliers[i].divergence) << i;
  }
}

class AnswerPathTest : public ::testing::TestWithParam<cs::RecoverySolver> {
 protected:
  AnswerPathTest() : matrix_(kM, kN, kSeed), y_(ReferenceY(matrix_)) {}

  outlier::OutlierSet Want(QueryKind kind) const {
    return Direct(matrix_, y_, kind, GetParam());
  }

  cs::MeasurementMatrix matrix_;
  std::vector<double> y_;
};

TEST_P(AnswerPathTest, DetectorSurfaces) {
  core::DetectorOptions options;
  options.n = kN;
  options.m = kM;
  options.seed = kSeed;
  options.iterations = kIterations;
  options.solver = GetParam();
  auto detector = core::DistributedOutlierDetector::Create(options).MoveValue();
  const std::vector<double> x = Data();
  for (size_t key = 0; key < kN; ++key) {
    ASSERT_TRUE(detector->AddSource(KeySlice(key, x[key])).ok());
  }
  // A registered all-zero source leaves the sum untouched when excluded.
  const core::SourceId empty =
      detector->AddSourceMeasurement(std::vector<double>(kM, 0.0)).MoveValue();
  ASSERT_EQ(detector->global_measurement(), y_);

  for (QueryKind kind : {QueryKind::kOutlier, QueryKind::kTop}) {
    ExpectSameAnswer(detector->Answer(kind, kK).MoveValue(), Want(kind));
  }
  ExpectSameAnswer(detector->Detect(kK).MoveValue(), Want(QueryKind::kOutlier));
  ExpectSameAnswer(detector->DetectExcluding({empty}, kK).MoveValue(),
                   Want(QueryKind::kOutlier));
  outlier::OutlierSet top;
  top.outliers = detector->DetectTopK(kK).MoveValue();
  ExpectSameAnswer(top, Want(QueryKind::kTop));
}

TEST_P(AnswerPathTest, WindowedDetector) {
  core::WindowedDetectorOptions options;
  options.n = kN;
  options.m = kM;
  options.seed = kSeed;
  options.iterations = kIterations;
  options.solver = GetParam();
  options.window_epochs = 2;
  auto windowed = core::WindowedOutlierDetector::Create(options).MoveValue();
  windowed->AdvanceEpoch();
  const std::vector<double> x = Data();
  for (size_t key = 0; key < kN; ++key) {
    ASSERT_TRUE(windowed->Ingest(KeySlice(key, x[key])).ok());
  }
  // Closing the epoch adds an empty in-progress one: the window sum is
  // unchanged bit for bit.
  windowed->AdvanceEpoch();
  ASSERT_EQ(windowed->ClosedWindowMeasurement().MoveValue(), y_);
  ExpectSameAnswer(windowed->Detect(kK).MoveValue(), Want(QueryKind::kOutlier));
}

TEST_P(AnswerPathTest, StreamingLeaderAndFollower) {
  serve::StreamingDetectorOptions options;
  options.n = kN;
  options.m = kM;
  options.seed = kSeed;
  options.iterations = kIterations;
  options.solver = GetParam();
  options.window_epochs = 1;
  options.num_shards = 3;
  auto leader = serve::StreamingDetector::Create(options).MoveValue();
  leader->AdvanceEpoch();
  const std::vector<double> x = Data();
  for (size_t key = 0; key < kN; ++key) {
    ASSERT_TRUE(leader->IngestBatch({key}, {x[key]}).ok());
  }
  leader->AdvanceEpoch();
  const std::shared_ptr<const serve::SketchSnapshot> snapshot =
      leader->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  ASSERT_EQ(snapshot->y, y_);

  serve::SnapshotFollowerOptions follower_options;
  follower_options.n = kN;
  follower_options.m = kM;
  follower_options.seed = kSeed;
  follower_options.iterations = kIterations;
  follower_options.solver = GetParam();
  auto follower =
      serve::SnapshotFollower::Create(follower_options).MoveValue();
  ASSERT_TRUE(follower->ApplySnapshot(*snapshot).ok());

  for (QueryKind kind : {QueryKind::kOutlier, QueryKind::kTop}) {
    const serve::SnapshotAnswer answer = leader->Answer(kind, kK).MoveValue();
    EXPECT_EQ(answer.snapshot, snapshot);
    EXPECT_EQ(answer.current_epoch, snapshot->last_epoch + 1);
    ExpectSameAnswer(answer.ranked, Want(kind));
    ExpectSameAnswer(follower->Answer(kind, kK).MoveValue(), Want(kind));
  }
  ExpectSameAnswer(leader->QueryOutliers(kK).MoveValue(),
                   Want(QueryKind::kOutlier));
  outlier::OutlierSet top;
  top.outliers = leader->QueryTopK(kK).MoveValue();
  ExpectSameAnswer(top, Want(QueryKind::kTop));
  EXPECT_FALSE(leader->Answer(QueryKind::kOutlier, 0).ok());
  EXPECT_FALSE(follower->Answer(QueryKind::kTop, 0).ok());
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, AnswerPathTest,
    ::testing::Values(cs::RecoverySolver::kOmp, cs::RecoverySolver::kCosamp,
                      cs::RecoverySolver::kAmp),
    [](const ::testing::TestParamInfo<cs::RecoverySolver>& info) {
      return std::string(cs::SolverName(info.param));
    });

// The CS protocol and the CS MapReduce job recover with BOMP only.
TEST(AnswerPathBompTest, ProtocolAndMapReduceJob) {
  const cs::MeasurementMatrix matrix(kM, kN, kSeed);
  const std::vector<double> y = ReferenceY(matrix);
  outlier::AnswerSpec spec;
  spec.k = kK;
  spec.iterations = kIterations;
  const outlier::RecoveredAnswer want =
      outlier::Answer(matrix, y, spec).MoveValue();
  EXPECT_FALSE(want.recovery.entries.empty());

  const std::vector<double> x = Data();
  dist::Cluster cluster(kN);
  std::vector<std::vector<mr::ScoreEvent>> splits;
  for (size_t key = 0; key < kN; ++key) {
    ASSERT_TRUE(cluster.AddNode(KeySlice(key, x[key])).ok());
    splits.push_back({mr::ScoreEvent{key, x[key]}});
  }

  dist::CsProtocolOptions protocol_options;
  protocol_options.m = kM;
  protocol_options.seed = kSeed;
  protocol_options.iterations = kIterations;
  dist::CsOutlierProtocol protocol(protocol_options);
  dist::CommStats comm;
  ExpectSameAnswer(protocol.Run(cluster, kK, &comm).MoveValue(), want.ranked);
  EXPECT_EQ(protocol.last_recovery().entries.size(),
            want.recovery.entries.size());

  mr::CsJobOptions job_options;
  job_options.n = kN;
  job_options.m = kM;
  job_options.k = kK;
  job_options.seed = kSeed;
  job_options.iterations = kIterations;
  const mr::CsJobResult job =
      mr::RunCsOutlierJob(splits, job_options).MoveValue();
  ExpectSameAnswer(job.outliers, want.ranked);
  EXPECT_EQ(job.recovery.mode, want.recovery.mode);
}

}  // namespace
}  // namespace csod
