#include "serve/service.h"
#include "serve/streaming_detector.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/windowed_detector.h"
#include "obs/telemetry.h"

namespace csod::serve {
namespace {

struct ScopedParallelismLimit {
  explicit ScopedParallelismLimit(size_t limit)
      : previous_(GetParallelismLimit()) {
    SetParallelismLimit(limit);
  }
  ~ScopedParallelismLimit() { SetParallelismLimit(previous_); }
  size_t previous_;
};

StreamingDetectorOptions SmallOptions(size_t window = 3, size_t shards = 4) {
  StreamingDetectorOptions options;
  options.n = 400;
  options.m = 150;
  options.seed = 5;
  options.iterations = 12;
  options.window_epochs = window;
  options.num_shards = shards;
  return options;
}

/// One seeded batch of keyed deltas: a quiet baseline plus one spike.
struct Batch {
  std::vector<size_t> keys;
  std::vector<double> deltas;
};

std::vector<Batch> SeededBatches(size_t num_batches, size_t n,
                                 uint64_t seed) {
  std::minstd_rand rng(static_cast<unsigned>(seed));
  std::vector<Batch> batches(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    Batch& batch = batches[b];
    const size_t events = 20 + rng() % 40;
    for (size_t i = 0; i < events; ++i) {
      batch.keys.push_back(rng() % n);
      batch.deltas.push_back(1.0 + static_cast<double>(rng() % 8));
    }
    // A recurring heavy key so detection has a stable answer.
    batch.keys.push_back(7);
    batch.deltas.push_back(5000.0);
  }
  return batches;
}

/// The reference ingestion of one batch: partitioned into per-shard slices
/// by ShardOfKey and ingested shard-by-shard in shard order — including
/// empty shards — exactly as documented in the determinism contract.
/// Shards in `stalled` are withheld and appended to `withheld` instead.
void ReferenceIngest(core::WindowedOutlierDetector* detector,
                     const Batch& batch, size_t num_shards,
                     const std::vector<bool>* stalled = nullptr,
                     std::vector<cs::SparseSlice>* withheld = nullptr) {
  std::vector<cs::SparseSlice> slices(num_shards);
  for (size_t i = 0; i < batch.keys.size(); ++i) {
    const uint32_t shard =
        StreamingDetector::ShardOfKey(batch.keys[i], num_shards);
    slices[shard].indices.push_back(batch.keys[i]);
    slices[shard].values.push_back(batch.deltas[i]);
  }
  for (size_t s = 0; s < num_shards; ++s) {
    if (stalled != nullptr && (*stalled)[s]) {
      if (slices[s].nnz() > 0 && withheld != nullptr) {
        withheld->push_back(std::move(slices[s]));
      }
      continue;
    }
    ASSERT_TRUE(detector->Ingest(slices[s]).ok());
  }
}

TEST(StreamingDetectorTest, CreateValidates) {
  StreamingDetectorOptions bad;
  EXPECT_FALSE(StreamingDetector::Create(bad).ok());
  bad.n = 10;
  EXPECT_FALSE(StreamingDetector::Create(bad).ok());
  bad.m = 4;
  EXPECT_FALSE(StreamingDetector::Create(bad).ok());
  bad.window_epochs = 2;
  EXPECT_TRUE(StreamingDetector::Create(bad).ok());
  bad.num_shards = 0;
  EXPECT_FALSE(StreamingDetector::Create(bad).ok());
  bad.num_shards = 2;
  bad.epoch_ticks = 0;
  EXPECT_FALSE(StreamingDetector::Create(bad).ok());
}

TEST(StreamingDetectorTest, IngestBeforeFirstEpochFails) {
  auto detector = StreamingDetector::Create(SmallOptions()).MoveValue();
  std::vector<size_t> keys = {1};
  std::vector<double> deltas = {2.0};
  EXPECT_FALSE(detector->IngestBatch(keys, deltas).ok());
  detector->AdvanceEpoch();
  EXPECT_TRUE(detector->IngestBatch(keys, deltas).ok());
}

TEST(StreamingDetectorTest, IngestValidatesKeysAndSizes) {
  auto detector = StreamingDetector::Create(SmallOptions()).MoveValue();
  detector->AdvanceEpoch();
  std::vector<size_t> keys = {400};  // == N, out of range.
  std::vector<double> deltas = {1.0};
  EXPECT_FALSE(detector->IngestBatch(keys, deltas).ok());
  EXPECT_FALSE(detector->IngestBatch({1, 2}, {1.0}).ok());
  EXPECT_TRUE(detector->IngestBatch({}, {}).ok());  // Empty batch is fine.
}

TEST(StreamingDetectorTest, NoSnapshotBeforeFirstClosedEpoch) {
  auto detector = StreamingDetector::Create(SmallOptions()).MoveValue();
  EXPECT_EQ(detector->Snapshot(), nullptr);
  EXPECT_FALSE(detector->QueryOutliers(2).ok());

  detector->AdvanceEpoch();  // Opens epoch 0; nothing closed yet.
  EXPECT_EQ(detector->Snapshot(), nullptr);
  EXPECT_FALSE(detector->QueryOutliers(2).ok());

  detector->AdvanceEpoch();  // Closes epoch 0 -> first publication.
  auto snapshot = detector->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(snapshot->first_epoch, 0u);
  EXPECT_EQ(snapshot->last_epoch, 0u);
  EXPECT_EQ(snapshot->epochs_covered, 1u);
  EXPECT_TRUE(detector->QueryOutliers(2).ok());
}

TEST(StreamingDetectorTest, SnapshotWindowSlidesAndCountsEvents) {
  auto detector =
      StreamingDetector::Create(SmallOptions(/*window=*/2)).MoveValue();
  detector->AdvanceEpoch();  // Epoch 0.
  ASSERT_TRUE(detector->IngestBatch({1, 2, 3}, {1.0, 1.0, 1.0}).ok());
  detector->AdvanceEpoch();  // Epoch 1; snapshot v1 covers {0}.
  ASSERT_TRUE(detector->IngestBatch({4, 5}, {1.0, 1.0}).ok());
  detector->AdvanceEpoch();  // Epoch 2; snapshot v2 covers {0, 1}.
  detector->AdvanceEpoch();  // Epoch 3; snapshot v3 covers {1, 2}.

  auto snapshot = detector->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version, 3u);
  EXPECT_EQ(snapshot->first_epoch, 1u);
  EXPECT_EQ(snapshot->last_epoch, 2u);
  EXPECT_EQ(snapshot->epochs_covered, 2u);
  EXPECT_EQ(snapshot->events, 2u);  // Epoch 0's three events slid out.
  EXPECT_TRUE(snapshot->stalled_shards.empty());
}

// The tentpole contract: the published window measurement and the
// detection answers are bit-identical to a WindowedOutlierDetector fed
// the same per-(batch, shard) slices, at every parallelism limit.
TEST(StreamingDetectorTest, BitIdenticalToWindowedReferenceAcrossLimits) {
  constexpr size_t kWindow = 3;
  constexpr size_t kShards = 4;
  constexpr size_t kEpochs = 5;
  constexpr size_t kBatchesPerEpoch = 3;
  const auto batches =
      SeededBatches(kEpochs * kBatchesPerEpoch, 400, /*seed=*/99);

  std::vector<std::vector<double>> snapshot_y_per_limit;
  std::vector<outlier::OutlierSet> answers_per_limit;

  for (size_t limit : {size_t{1}, size_t{2}, size_t{8}}) {
    ScopedParallelismLimit scoped(limit);

    auto streaming =
        StreamingDetector::Create(SmallOptions(kWindow, kShards)).MoveValue();
    // Lockstep reference ring: W closed epochs + the in-progress one.
    core::WindowedDetectorOptions wopts;
    wopts.n = 400;
    wopts.m = 150;
    wopts.seed = 5;
    wopts.iterations = 12;
    wopts.window_epochs = kWindow + 1;
    auto lockstep = core::WindowedOutlierDetector::Create(wopts).MoveValue();
    // Lagging reference: window = W, left un-advanced at the end so its
    // ring is exactly the window the final snapshot covers — the "batch
    // Detect over the same window" of the acceptance criterion.
    wopts.window_epochs = kWindow;
    auto lagging = core::WindowedOutlierDetector::Create(wopts).MoveValue();

    size_t next_batch = 0;
    for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
      streaming->AdvanceEpoch();
      lockstep->AdvanceEpoch();
      lagging->AdvanceEpoch();
      for (size_t b = 0; b < kBatchesPerEpoch; ++b) {
        const Batch& batch = batches[next_batch++];
        ASSERT_TRUE(streaming->IngestBatch(batch.keys, batch.deltas).ok());
        ReferenceIngest(lockstep.get(), batch, kShards);
        ReferenceIngest(lagging.get(), batch, kShards);
      }
    }
    streaming->AdvanceEpoch();  // Close the last epoch -> final snapshot.
    lockstep->AdvanceEpoch();   // Lockstep mirrors; lagging stays put.

    auto snapshot = streaming->Snapshot();
    ASSERT_NE(snapshot, nullptr);
    // Window measurement: bitwise equal to the lockstep reference's closed
    // window.
    auto reference_y = lockstep->ClosedWindowMeasurement().MoveValue();
    EXPECT_EQ(snapshot->y, reference_y);

    // Detection: bitwise equal to batch Detect over the same window.
    auto streamed = streaming->QueryOutliers(3).MoveValue();
    auto batch_detect = lagging->Detect(3).MoveValue();
    EXPECT_EQ(streamed.mode, batch_detect.mode);
    ASSERT_EQ(streamed.outliers.size(), batch_detect.outliers.size());
    for (size_t i = 0; i < streamed.outliers.size(); ++i) {
      EXPECT_EQ(streamed.outliers[i].key_index,
                batch_detect.outliers[i].key_index);
      EXPECT_EQ(streamed.outliers[i].value, batch_detect.outliers[i].value);
      EXPECT_EQ(streamed.outliers[i].divergence,
                batch_detect.outliers[i].divergence);
    }

    snapshot_y_per_limit.push_back(snapshot->y);
    answers_per_limit.push_back(streamed);
  }

  // Bit-identical across thread limits.
  for (size_t i = 1; i < snapshot_y_per_limit.size(); ++i) {
    EXPECT_EQ(snapshot_y_per_limit[i], snapshot_y_per_limit[0]);
    ASSERT_EQ(answers_per_limit[i].outliers.size(),
              answers_per_limit[0].outliers.size());
    EXPECT_EQ(answers_per_limit[i].mode, answers_per_limit[0].mode);
    for (size_t j = 0; j < answers_per_limit[i].outliers.size(); ++j) {
      EXPECT_EQ(answers_per_limit[i].outliers[j].value,
                answers_per_limit[0].outliers[j].value);
    }
  }
}

TEST(StreamingDetectorTest, StalledShardDefersThenReplays) {
  constexpr size_t kShards = 4;
  const auto batches = SeededBatches(4, 400, /*seed=*/11);

  auto streaming =
      StreamingDetector::Create(SmallOptions(/*window=*/3, kShards))
          .MoveValue();
  core::WindowedDetectorOptions wopts;
  wopts.n = 400;
  wopts.m = 150;
  wopts.seed = 5;
  wopts.iterations = 12;
  wopts.window_epochs = 4;  // W + 1.
  auto reference = core::WindowedOutlierDetector::Create(wopts).MoveValue();

  streaming->AdvanceEpoch();
  reference->AdvanceEpoch();

  // Stall shard 2; ingest with its share withheld on both sides.
  ASSERT_TRUE(streaming->SetShardStalled(2, true).ok());
  std::vector<bool> stalled = {false, false, true, false};
  std::vector<cs::SparseSlice> withheld;
  for (const Batch& batch : batches) {
    ASSERT_TRUE(streaming->IngestBatch(batch.keys, batch.deltas).ok());
    ReferenceIngest(reference.get(), batch, kShards, &stalled, &withheld);
  }
  EXPECT_GT(streaming->backlog_events(), 0u);

  streaming->AdvanceEpoch();
  reference->AdvanceEpoch();
  auto degraded = streaming->Snapshot();
  ASSERT_NE(degraded, nullptr);
  ASSERT_EQ(degraded->stalled_shards.size(), 1u);
  EXPECT_EQ(degraded->stalled_shards[0], 2u);
  // Degraded snapshot == reference without the stalled shard's slices.
  EXPECT_EQ(degraded->y, reference->ClosedWindowMeasurement().MoveValue());

  // Unstall: the backlog replays into the current epoch, in arrival
  // order; the reference ingests the withheld slices at the same point.
  ASSERT_TRUE(streaming->SetShardStalled(2, false).ok());
  EXPECT_EQ(streaming->backlog_events(), 0u);
  for (const cs::SparseSlice& slice : withheld) {
    ASSERT_TRUE(reference->Ingest(slice).ok());
  }
  streaming->AdvanceEpoch();
  reference->AdvanceEpoch();
  auto healed = streaming->Snapshot();
  ASSERT_NE(healed, nullptr);
  EXPECT_TRUE(healed->stalled_shards.empty());
  EXPECT_EQ(healed->y, reference->ClosedWindowMeasurement().MoveValue());
}

TEST(StreamingDetectorTest, SetShardStalledValidatesAndIsIdempotent) {
  auto detector =
      StreamingDetector::Create(SmallOptions(/*window=*/2, /*shards=*/2))
          .MoveValue();
  EXPECT_FALSE(detector->SetShardStalled(2, true).ok());
  EXPECT_TRUE(detector->SetShardStalled(1, true).ok());
  EXPECT_TRUE(detector->SetShardStalled(1, true).ok());   // No-op.
  EXPECT_TRUE(detector->SetShardStalled(1, false).ok());
  EXPECT_TRUE(detector->SetShardStalled(1, false).ok());  // No-op.
}

TEST(StreamingDetectorTest, TumblingPublishesDisjointFullWindows) {
  auto options = SmallOptions(/*window=*/2);
  options.window = WindowKind::kTumbling;
  auto detector = StreamingDetector::Create(options).MoveValue();

  detector->AdvanceEpoch();  // Epoch 0.
  ASSERT_TRUE(detector->IngestBatch({1}, {10.0}).ok());
  detector->AdvanceEpoch();  // Epoch 1: only one closed epoch, no publish.
  EXPECT_EQ(detector->Snapshot(), nullptr);
  ASSERT_TRUE(detector->IngestBatch({2}, {20.0}).ok());
  detector->AdvanceEpoch();  // Epoch 2: window {0, 1} completes.
  auto first = detector->Snapshot();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->version, 1u);
  EXPECT_EQ(first->first_epoch, 0u);
  EXPECT_EQ(first->last_epoch, 1u);
  EXPECT_EQ(first->events, 2u);

  detector->AdvanceEpoch();  // Epoch 3: mid-window, no publish.
  EXPECT_EQ(detector->Snapshot()->version, 1u);
  detector->AdvanceEpoch();  // Epoch 4: window {2, 3} completes.
  auto second = detector->Snapshot();
  EXPECT_EQ(second->version, 2u);
  EXPECT_EQ(second->first_epoch, 2u);
  EXPECT_EQ(second->last_epoch, 3u);
  EXPECT_EQ(second->events, 0u);  // Epochs 2 and 3 were quiet.
}

TEST(StreamingDetectorTest, AdvanceToDrivesEpochsFromTicks) {
  auto options = SmallOptions(/*window=*/3);
  options.epoch_ticks = 10;
  auto detector = StreamingDetector::Create(options).MoveValue();

  EXPECT_FALSE(detector->started());
  EXPECT_EQ(detector->AdvanceTo(0).MoveValue(), 0u);  // Opens epoch 0.
  EXPECT_TRUE(detector->started());
  EXPECT_EQ(detector->AdvanceTo(9).MoveValue(), 0u);   // Same epoch.
  EXPECT_EQ(detector->AdvanceTo(10).MoveValue(), 1u);  // Boundary.
  EXPECT_EQ(detector->AdvanceTo(35).MoveValue(), 3u);  // Crosses two.
  EXPECT_EQ(detector->snapshot_version(), 3u);  // Published per close.
  EXPECT_FALSE(detector->AdvanceTo(34).ok());   // Clock went backwards.
}

TEST(StreamingDetectorTest, ShardOfKeyIsMixedAndInRange) {
  constexpr size_t kShards = 8;
  std::vector<size_t> counts(kShards, 0);
  for (size_t key = 0; key < 4096; ++key) {
    const uint32_t shard = StreamingDetector::ShardOfKey(key, kShards);
    ASSERT_LT(shard, kShards);
    ++counts[shard];
  }
  // SplitMix64 mixing: nothing close to the identity hash's striping —
  // every shard sees a reasonable share of consecutive keys.
  for (size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(counts[s], 4096 / kShards / 2);
    EXPECT_LT(counts[s], 4096 / kShards * 2);
  }
}

TEST(StreamingDetectorTest, DetectsInjectedOutlierEndToEnd) {
  auto detector = StreamingDetector::Create(SmallOptions()).MoveValue();
  detector->AdvanceEpoch();
  std::vector<size_t> keys;
  std::vector<double> deltas;
  for (size_t i = 0; i < 400; ++i) {
    keys.push_back(i);
    deltas.push_back(100.0);
  }
  ASSERT_TRUE(detector->IngestBatch(keys, deltas).ok());
  ASSERT_TRUE(detector->IngestBatch({42}, {50000.0}).ok());
  detector->AdvanceEpoch();

  auto outliers = detector->QueryOutliers(1).MoveValue();
  ASSERT_EQ(outliers.outliers.size(), 1u);
  EXPECT_EQ(outliers.outliers[0].key_index, 42u);
  EXPECT_NEAR(outliers.mode, 100.0, 1e-3);

  auto top = detector->QueryTopK(1).MoveValue();
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].key_index, 42u);
}

TEST(StreamingDetectorTest, ConcurrentQueriesNeverBlockIngestion) {
  auto detector =
      StreamingDetector::Create(SmallOptions(/*window=*/2)).MoveValue();
  detector->AdvanceEpoch();
  ASSERT_TRUE(detector->IngestBatch({1, 2, 3}, {5.0, 5.0, 5.0}).ok());
  detector->AdvanceEpoch();  // First snapshot exists before readers start.

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&]() {
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto snapshot = detector->Snapshot();
        ASSERT_NE(snapshot, nullptr);
        // Versions only move forward under concurrent publication.
        ASSERT_GE(snapshot->version, last_version);
        last_version = snapshot->version;
        auto answer = detector->QueryOutliers(2);
        ASSERT_TRUE(answer.ok());
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  const auto batches = SeededBatches(20, 400, /*seed=*/3);
  for (const Batch& batch : batches) {
    ASSERT_TRUE(detector->IngestBatch(batch.keys, batch.deltas).ok());
    detector->AdvanceEpoch();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(queries.load(), 0u);

  // Staleness: the final snapshot is exactly one epoch behind ingestion.
  auto snapshot = detector->Snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(detector->current_epoch() - snapshot->last_epoch, 1u);
}

// Provenance under a racing clock: one thread advances thousands of epochs
// while service queries run. Each epoch holds one planted key, so with a
// one-epoch sliding window the answer's top key names the epoch it came
// from — every reported version/epoch must be that snapshot's, and the
// staleness exactly 1 (never a new epoch paired with the old snapshot).
TEST(StalenessStressTest, QueriesReportTheSnapshotThatAnswered) {
  constexpr uint64_t kEpochs = 4000;
  auto key_of_epoch = [](uint64_t epoch) {
    return static_cast<size_t>((epoch * 37) % 400);
  };
  StreamingService service;
  ASSERT_TRUE(service.AddTenant("s", SmallOptions(/*window=*/1)).ok());
  ASSERT_TRUE(service.AdvanceTo("s", 0).ok());
  ASSERT_TRUE(service.Ingest("s", {key_of_epoch(0)}, {1000.0}).ok());
  ASSERT_TRUE(service.AdvanceTo("s", 1).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        auto result =
            service.Query("SELECT Top 1 SUM(score), key FROM s GROUP BY key");
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const StreamingQueryResult& r = result.Value();
        ASSERT_EQ(r.staleness_epochs, 1u);
        ASSERT_EQ(r.snapshot_first_epoch, r.snapshot_last_epoch);
        ASSERT_EQ(r.snapshot_version, r.snapshot_last_epoch + 1);
        ASSERT_EQ(r.rows.size(), 1u);
        ASSERT_EQ(r.rows[0].group_key,
                  std::to_string(key_of_epoch(r.snapshot_last_epoch)));
        queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  bool advanced = true;
  for (uint64_t epoch = 1; epoch < kEpochs && advanced; ++epoch) {
    advanced = service.Ingest("s", {key_of_epoch(epoch)}, {1000.0}).ok() &&
               service.AdvanceTo("s", epoch + 1).ok();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_TRUE(advanced);
  EXPECT_GT(queries.load(), 0u);
}

TEST(StreamingDetectorTest, TelemetryCountsAndNeverChangesResults) {
  obs::Telemetry telemetry;
  auto options = SmallOptions(/*window=*/2);
  options.telemetry = &telemetry;
  auto traced = StreamingDetector::Create(options).MoveValue();
  auto plain = StreamingDetector::Create(SmallOptions(/*window=*/2))
                   .MoveValue();

  const auto batches = SeededBatches(4, 400, /*seed=*/21);
  traced->AdvanceEpoch();
  plain->AdvanceEpoch();
  for (const Batch& batch : batches) {
    ASSERT_TRUE(traced->IngestBatch(batch.keys, batch.deltas).ok());
    ASSERT_TRUE(plain->IngestBatch(batch.keys, batch.deltas).ok());
  }
  traced->AdvanceEpoch();
  plain->AdvanceEpoch();
  auto traced_answer = traced->QueryOutliers(2).MoveValue();
  auto plain_answer = plain->QueryOutliers(2).MoveValue();

  // Telemetry is observability, never behavior: identical bits either way.
  EXPECT_EQ(traced->Snapshot()->y, plain->Snapshot()->y);
  EXPECT_EQ(traced_answer.mode, plain_answer.mode);
  ASSERT_EQ(traced_answer.outliers.size(), plain_answer.outliers.size());
  for (size_t i = 0; i < traced_answer.outliers.size(); ++i) {
    EXPECT_EQ(traced_answer.outliers[i].value,
              plain_answer.outliers[i].value);
  }

  uint64_t total_events = 0;
  for (const Batch& batch : batches) total_events += batch.keys.size();
  EXPECT_EQ(telemetry.counter("serve.epochs"), 2u);
  EXPECT_EQ(telemetry.counter("serve.snapshots"), 1u);
  // Ingest telemetry reaches the registry at epoch close: the 4 batches
  // were flushed as one counter add and one accumulated ingest span when
  // epoch 0 closed, and "serve.epoch.events" histograms the closed epoch.
  EXPECT_EQ(telemetry.counter("serve.ingest.batches"), 4u);
  EXPECT_EQ(telemetry.counter("serve.ingest.events"), total_events);
  EXPECT_EQ(telemetry.counter("serve.queries"), 1u);
  EXPECT_EQ(telemetry.value("serve.epoch.events").count, 1u);
  EXPECT_EQ(telemetry.value("serve.epoch.events").max,
            static_cast<double>(total_events));
  EXPECT_EQ(telemetry.value("serve.query.age_epochs").max, 1.0);
  EXPECT_EQ(telemetry.span("serve.ingest").count, 1u);
  EXPECT_EQ(telemetry.span("serve.epoch.advance").count, 2u);
  EXPECT_EQ(telemetry.span("serve.snapshot.publish").count, 1u);
  EXPECT_EQ(telemetry.span("serve.query").count, 1u);
}

TEST(StreamingServiceTest, TenantLifecycle) {
  StreamingService service;
  EXPECT_FALSE(service.AddTenant("", SmallOptions()).ok());
  ASSERT_TRUE(service.AddTenant("clicks", SmallOptions()).ok());
  EXPECT_EQ(service.AddTenant("clicks", SmallOptions()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(service.Tenant("nope").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(service.AddTenant("latency", SmallOptions()).ok());
  EXPECT_EQ(service.TenantNames().size(), 2u);
  ASSERT_TRUE(service.RemoveTenant("latency").ok());
  EXPECT_EQ(service.RemoveTenant("latency").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.TenantNames().size(), 1u);
}

TEST(StreamingServiceTest, QueryTemplateAgainstTenantSnapshot) {
  StreamingService service;
  ASSERT_TRUE(service.AddTenant("clicks", SmallOptions()).ok());
  ASSERT_TRUE(service.AdvanceTo("clicks", 0).ok());
  std::vector<size_t> keys;
  std::vector<double> deltas;
  for (size_t i = 0; i < 400; ++i) {
    keys.push_back(i);
    deltas.push_back(10.0);
  }
  ASSERT_TRUE(service.Ingest("clicks", keys, deltas).ok());
  ASSERT_TRUE(service.Ingest("clicks", {9}, {90000.0}).ok());
  ASSERT_TRUE(service.AdvanceTo("clicks", 1).ok());

  auto outliers =
      service.Query("SELECT Outlier 1 SUM(score), key FROM clicks GROUP BY key")
          .MoveValue();
  ASSERT_EQ(outliers.rows.size(), 1u);
  EXPECT_EQ(outliers.rows[0].group_key, "9");
  EXPECT_NEAR(outliers.mode, 10.0, 1e-3);
  EXPECT_EQ(outliers.key_space, 400u);
  EXPECT_EQ(outliers.snapshot_version, 1u);
  EXPECT_EQ(outliers.snapshot_last_epoch, 0u);
  EXPECT_EQ(outliers.staleness_epochs, 1u);
  EXPECT_TRUE(outliers.stalled_shards.empty());

  auto top =
      service.Query("SELECT Top 1 SUM(score), key FROM clicks GROUP BY key")
          .MoveValue();
  ASSERT_EQ(top.rows.size(), 1u);
  EXPECT_EQ(top.rows[0].group_key, "9");
  EXPECT_EQ(top.mode, 0.0);

  // Unknown tenant in FROM and malformed text both fail cleanly.
  EXPECT_EQ(service.Query("SELECT Top 1 SUM(s), key FROM ghost GROUP BY key")
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(service.Query("SELECT nonsense").ok());
}

// Regression (tenant-lifetime race): Tenant() used to hand out a raw
// pointer after dropping the service mutex, so a concurrent RemoveTenant
// destroyed the detector under an in-flight Ingest/Query (use-after-free
// under TSan/ASan). The handle is now a shared_ptr: removal only detaches
// the tenant, and the last in-flight caller finishes safely. This test runs
// queries and ingests against a tenant while another thread removes and
// re-adds it; sanitizer runs (scripts/run_sanitizers.sh) make any revival
// of the race fail loudly.
TEST(StreamingServiceTest, RemoveTenantWhileQueryingIsSafe) {
  StreamingService service;
  ASSERT_TRUE(service.AddTenant("churn", SmallOptions()).ok());
  ASSERT_TRUE(service.AdvanceTo("churn", 0).ok());
  ASSERT_TRUE(service.Ingest("churn", {7}, {5000.0}).ok());
  ASSERT_TRUE(service.AdvanceTo("churn", 1).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        // Grab a handle; whatever happens to the tenant map afterwards,
        // the handle must stay valid for the whole query.
        auto handle = service.Tenant("churn");
        if (!handle.ok()) continue;  // Between remove and re-add.
        std::shared_ptr<StreamingDetector> detector = handle.MoveValue();
        auto snapshot = detector->Snapshot();
        if (snapshot != nullptr) {
          auto answer = detector->QueryOutliers(1);
          if (answer.ok()) answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // At least 50 churn rounds, and on until a reader has answered once, so
  // the check below does not hinge on how the readers were scheduled.
  for (int round = 0; round < 50 || answered.load() == 0; ++round) {
    ASSERT_TRUE(service.RemoveTenant("churn").ok());
    ASSERT_TRUE(service.AddTenant("churn", SmallOptions()).ok());
    ASSERT_TRUE(service.AdvanceTo("churn", 0).ok());
    ASSERT_TRUE(service.Ingest("churn", {7}, {5000.0}).ok());
    ASSERT_TRUE(service.AdvanceTo("churn", 1).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();
  EXPECT_GT(answered.load(), 0u);
}

// Pins the tumbling-window staleness contract end to end: between
// publications queries answer from the previous full window, so
// `staleness_epochs` climbs to exactly `window_epochs` just before the
// next publication, drops back to 1 right after, and never underflows
// (current_epoch >= snapshot->last_epoch + 1 always).
TEST(StreamingServiceTest, TumblingStalenessReachesWindowAndNeverUnderflows) {
  constexpr size_t kWindow = 3;
  StreamingService service;
  auto options = SmallOptions(kWindow);
  options.window = WindowKind::kTumbling;
  ASSERT_TRUE(service.AddTenant("t", options).ok());
  const std::string query_text =
      "SELECT Top 1 SUM(score), key FROM t GROUP BY key";

  ASSERT_TRUE(service.AdvanceTo("t", 0).ok());  // Opens epoch 0.
  uint64_t max_staleness = 0;
  for (uint64_t tick = 1; tick <= 3 * kWindow; ++tick) {
    ASSERT_TRUE(service.Ingest("t", {1}, {10.0}).ok());
    ASSERT_TRUE(service.AdvanceTo("t", tick).ok());
    auto result = service.Query(query_text);
    if (tick < kWindow) {
      // No full window yet: nothing published, queries fail cleanly.
      EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
      continue;
    }
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const StreamingQueryResult& answer = result.Value();
    // staleness = current_epoch - snapshot_last_epoch, both unsigned: an
    // underflow would show up as a huge value, so the bounds pin both
    // directions.
    EXPECT_GE(answer.staleness_epochs, 1u);
    EXPECT_LE(answer.staleness_epochs, kWindow);
    // A publication happens exactly at window-boundary ticks.
    EXPECT_EQ(answer.staleness_epochs,
              (tick - kWindow) % kWindow + 1);
    max_staleness = std::max(max_staleness, answer.staleness_epochs);
  }
  // The bound is tight: staleness actually reaches window_epochs.
  EXPECT_EQ(max_staleness, kWindow);
}

TEST(StreamingServiceTest, TenantsAreIsolated) {
  StreamingService service;
  auto clicks_options = SmallOptions();
  auto latency_options = SmallOptions();
  latency_options.seed = 77;  // Different consensus seed per tenant.
  ASSERT_TRUE(service.AddTenant("clicks", clicks_options).ok());
  ASSERT_TRUE(service.AddTenant("latency", latency_options).ok());

  ASSERT_TRUE(service.AdvanceAllTo(0).ok());
  ASSERT_TRUE(service.Ingest("clicks", {5}, {1000.0}).ok());
  ASSERT_TRUE(service.AdvanceAllTo(1).ok());

  // clicks sees its spike; latency saw nothing.
  auto clicks = service.Tenant("clicks").MoveValue()->Snapshot();
  auto latency = service.Tenant("latency").MoveValue()->Snapshot();
  ASSERT_NE(clicks, nullptr);
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(clicks->events, 1u);
  EXPECT_EQ(latency->events, 0u);
  EXPECT_EQ(latency->y, std::vector<double>(150, 0.0));
}

}  // namespace
}  // namespace csod::serve
