// Tests of the wire-facing deployment surface (serve/net.h): framed
// end-to-end exactness against the in-process detector, both transports,
// admission control / backpressure, torn-frame retry conservation, and
// snapshot-replicated followers.
#include "serve/net.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/digest.h"
#include "dist/comm.h"
#include "dist/wire_format.h"
#include "obs/telemetry.h"
#include "serve/checkpoint.h"
#include "serve/service.h"
#include "serve/streaming_detector.h"
#include "sim/buggify.h"

namespace csod::serve {
namespace {

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

// A deterministic keyed batch with one heavy key so queries have answers.
void SeededBatch(uint64_t seed, size_t n, std::vector<size_t>* keys,
                 std::vector<double>* deltas) {
  keys->clear();
  deltas->clear();
  uint64_t x = seed;
  for (size_t i = 0; i < 60; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    keys->push_back((x >> 33) % n);
    deltas->push_back(1.0 + static_cast<double>((x >> 20) % 8));
  }
  keys->push_back(7);
  deltas->push_back(5000.0);
}

// Service + tenant + server + loopback client, ready to drive.
struct Rig {
  explicit Rig(StreamingDetectorOptions options = SmallOptions(),
               NetServerOptions net = {})
      : server(&service, net), transport(&server), client(&transport) {
    EXPECT_TRUE(service.AddTenant("t", options).ok());
  }
  std::shared_ptr<StreamingDetector> tenant() {
    return service.Tenant("t").MoveValue();
  }

  StreamingService service;
  NetServer server;
  LoopbackTransport transport;
  NetClient client;
};

TEST(NetCodecTest, SnapshotResponseRoundTripsExactly) {
  SketchSnapshot snapshot;
  snapshot.version = 42;
  snapshot.first_epoch = 3;
  snapshot.last_epoch = 6;
  snapshot.epochs_covered = 4;
  snapshot.events = 12345;
  snapshot.y = {1.5, -2.25, 0.0, 3.0e-17};
  snapshot.stalled_shards = {1, 3};

  const std::string frame = EncodeSnapshotResponse(snapshot).MoveValue();
  const SketchSnapshot decoded = DecodeSnapshotResponse(frame).MoveValue();
  EXPECT_EQ(decoded.version, snapshot.version);
  EXPECT_EQ(decoded.first_epoch, snapshot.first_epoch);
  EXPECT_EQ(decoded.last_epoch, snapshot.last_epoch);
  EXPECT_EQ(decoded.epochs_covered, snapshot.epochs_covered);
  EXPECT_EQ(decoded.events, snapshot.events);
  EXPECT_EQ(decoded.y, snapshot.y);  // Bitwise: doubles travel by bits.
  EXPECT_EQ(decoded.stalled_shards, snapshot.stalled_shards);
}

TEST(NetCodecTest, CorruptionAnywhereIsDataLoss) {
  SketchSnapshot snapshot;
  snapshot.version = 1;
  snapshot.y = {1.0, 2.0};
  const std::string frame = EncodeSnapshotResponse(snapshot).MoveValue();
  for (size_t at : {size_t{0}, size_t{5}, frame.size() / 2,
                    frame.size() - 1}) {
    std::string bad = frame;
    bad[at] = static_cast<char>(bad[at] ^ 0x20);
    EXPECT_EQ(DecodeSnapshotResponse(bad).status().code(),
              StatusCode::kDataLoss)
        << "flipped byte " << at;
  }
  std::string torn = frame.substr(0, frame.size() - 3);
  EXPECT_EQ(DecodeSnapshotResponse(torn).status().code(),
            StatusCode::kDataLoss);
}

TEST(NetServerTest, RejectsGarbageAndUnknownKinds) {
  Rig rig;
  // Garbage bytes: the response is a kError frame carrying DataLoss.
  const std::string response = rig.server.HandleFrame("not a frame");
  const dist::FrameView view = dist::DecodeFrame(response).MoveValue();
  EXPECT_EQ(view.kind, static_cast<uint8_t>(NetFrameKind::kError));
  EXPECT_EQ(rig.server.frames_rejected(), 1u);

  // A checksummed frame of a kind the server does not speak.
  const std::string unknown = dist::EncodeFrame(99, 0, "");
  const dist::FrameView bad =
      dist::DecodeFrame(rig.server.HandleFrame(unknown)).MoveValue();
  EXPECT_EQ(bad.kind, static_cast<uint8_t>(NetFrameKind::kError));

  // Oversized frames are refused before decoding.
  NetServerOptions tiny;
  tiny.max_frame_bytes = 16;
  StreamingService service;
  NetServer small(&service, tiny);
  const std::string refused =
      small.HandleFrame(dist::EncodeFrame(17, 0, std::string(64, 'x')));
  EXPECT_EQ(dist::DecodeFrame(refused).MoveValue().kind,
            static_cast<uint8_t>(NetFrameKind::kError));
}

// A 34-byte advance frame to tick 2^62 is answered promptly: the clock
// jumps over the empty epochs instead of closing each one under the
// tenant's ingest mutex.
TEST(NetServerTest, HugeAdvanceTickIsAnsweredPromptly) {
  Rig rig;
  const std::string advance =
      EncodeAdvanceRequest("t", uint64_t{1} << 62).MoveValue();
  EXPECT_EQ(advance.size(), 34u);
  const auto start = std::chrono::steady_clock::now();
  const std::string response = rig.server.HandleFrame(advance);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(dist::DecodeFrame(response).MoveValue().kind,
            static_cast<uint8_t>(NetFrameKind::kAck));
  EXPECT_EQ(rig.tenant()->current_epoch(),
            (uint64_t{1} << 62) / rig.tenant()->options().epoch_ticks);
}

// A checksum-valid ingest request whose embedded key-value message claims
// 2^62 events (12 · 2^62 wraps to its empty payload) gets an error frame
// instead of aborting the server, and the server keeps serving.
TEST(NetServerTest, WrappedIngestCountGetsErrorFrame) {
  Rig rig;
  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());
  std::string payload;
  dist::AppendBytes(&payload, "t");
  dist::AppendBytes(&payload, dist::EncodeFrame(2, uint64_t{1} << 62, ""));
  const std::string request = dist::EncodeFrame(
      static_cast<uint8_t>(NetFrameKind::kIngestBatch), 0, payload);
  ASSERT_EQ(request.size(), 51u);
  const dist::FrameView refused =
      dist::DecodeFrame(rig.server.HandleFrame(request)).MoveValue();
  EXPECT_EQ(refused.kind, static_cast<uint8_t>(NetFrameKind::kError));

  std::vector<size_t> keys;
  std::vector<double> deltas;
  SeededBatch(3, 400, &keys, &deltas);
  cs::SparseSlice batch;
  batch.indices = keys;
  batch.values = deltas;
  const dist::FrameView acked =
      dist::DecodeFrame(rig.server.HandleFrame(
                            EncodeIngestRequest("t", batch).MoveValue()))
          .MoveValue();
  EXPECT_EQ(acked.kind, static_cast<uint8_t>(NetFrameKind::kAck));
}

// The tentpole exactness gate: every answer served over the wire is
// bit-identical to the same calls made in-process.
TEST(NetEndToEndTest, LoopbackMatchesInProcessExactly) {
  Rig rig;
  auto reference = StreamingDetector::Create(SmallOptions()).MoveValue();

  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());
  reference->AdvanceEpoch();
  std::vector<size_t> keys;
  std::vector<double> deltas;
  for (uint64_t epoch = 0; epoch < 5; ++epoch) {
    for (uint64_t b = 0; b < 3; ++b) {
      SeededBatch(epoch * 17 + b, 400, &keys, &deltas);
      ASSERT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
      ASSERT_TRUE(reference->IngestBatch(keys, deltas).ok());
    }
    EXPECT_EQ(rig.client.AdvanceTo("t", epoch + 1).MoveValue(), epoch + 1);
    reference->AdvanceEpoch();
  }

  // Snapshot over the wire == the reference's, bit for bit.
  const SketchSnapshot fetched =
      rig.client.FetchSnapshot("t").MoveValue();
  auto want = reference->Snapshot();
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(fetched.version, want->version);
  EXPECT_EQ(fetched.first_epoch, want->first_epoch);
  EXPECT_EQ(fetched.last_epoch, want->last_epoch);
  EXPECT_EQ(fetched.y, want->y);
  EXPECT_EQ(fetched.events, want->events);

  // Query over the wire == QueryOutliers in-process, bit for bit.
  const StreamingQueryResult got =
      rig.client
          .Query("SELECT Outlier 3 SUM(score), key FROM t GROUP BY key")
          .MoveValue();
  const outlier::OutlierSet expect = reference->QueryOutliers(3).MoveValue();
  EXPECT_EQ(got.mode, expect.mode);
  ASSERT_EQ(got.rows.size(), expect.outliers.size());
  for (size_t i = 0; i < got.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].group_key,
              std::to_string(expect.outliers[i].key_index));
    EXPECT_EQ(got.rows[i].value, expect.outliers[i].value);
    EXPECT_EQ(got.rows[i].rank_score, expect.outliers[i].divergence);
  }
  EXPECT_EQ(got.staleness_epochs, 1u);
  EXPECT_EQ(rig.client.stats().retries, 0u);
  EXPECT_EQ(rig.server.frames_handled(), rig.client.stats().frames_sent);
}

TEST(NetEndToEndTest, SocketTransportServesSameAnswers) {
  StreamingService service;
  ASSERT_TRUE(service.AddTenant("t", SmallOptions()).ok());
  NetServer server(&service);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread serving([fd = fds[1], &server] {
    const Status served = ServeConnection(fd, &server);
    EXPECT_TRUE(served.ok()) << served.ToString();
    ::close(fd);
  });
  {
    SocketTransport transport(fds[0]);
    NetClient client(&transport);
    ASSERT_TRUE(client.AdvanceTo("t", 0).ok());
    std::vector<size_t> keys;
    std::vector<double> deltas;
    SeededBatch(1, 400, &keys, &deltas);
    ASSERT_TRUE(client.Ingest("t", keys, deltas).ok());
    EXPECT_EQ(client.AdvanceTo("t", 1).MoveValue(), 1u);

    const StreamingQueryResult over_socket =
        client.Query("SELECT Top 2 SUM(score), key FROM t GROUP BY key")
            .MoveValue();
    const StreamingQueryResult in_process =
        service.Query("SELECT Top 2 SUM(score), key FROM t GROUP BY key")
            .MoveValue();
    ASSERT_EQ(over_socket.rows.size(), in_process.rows.size());
    for (size_t i = 0; i < over_socket.rows.size(); ++i) {
      EXPECT_EQ(over_socket.rows[i].group_key,
                in_process.rows[i].group_key);
      EXPECT_EQ(over_socket.rows[i].value, in_process.rows[i].value);
    }
  }  // Transport destructor closes the client fd -> clean EOF server-side.
  serving.join();
}

TEST(NetEndToEndTest, SnapshotFetchBeforePublicationFailsCleanly) {
  Rig rig;
  EXPECT_EQ(rig.client.FetchSnapshot("t").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(rig.client.AdvanceTo("t", 0).MoveValue(), 0u);
  EXPECT_EQ(rig.client.FetchSnapshot("t").status().code(),
            StatusCode::kFailedPrecondition);
  // Unknown tenants are NotFound end to end.
  EXPECT_EQ(rig.client.FetchSnapshot("ghost").status().code(),
            StatusCode::kNotFound);
}

// Admission control: once the tenant's deferred backlog exceeds the
// per-tenant byte bound, ingest frames get a pushback (ResourceExhausted)
// and nothing is ingested; draining the backlog re-admits.
TEST(NetBackpressureTest, PushbackRefusesThenDrainReadmits) {
  NetServerOptions net;
  // Room for ~200 deferred 12-byte tuples.
  net.max_tenant_backlog_bytes = 200 * dist::kKeyValueBytes;
  Rig rig(SmallOptions(/*window=*/3, /*shards=*/2), net);
  auto detector = rig.tenant();

  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());
  // Stall both shards: every ingested event is deferred.
  ASSERT_TRUE(detector->SetShardStalled(0, true).ok());
  ASSERT_TRUE(detector->SetShardStalled(1, true).ok());

  std::vector<size_t> keys(61);
  std::vector<double> deltas(61);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i % 400;
    deltas[i] = 1.0;
  }
  // 61 events -> 732 B per refused-later batch; three fit under 2400 B.
  for (int b = 0; b < 3; ++b) {
    ASSERT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
  }
  const uint64_t backlog_before = detector->backlog_events();
  EXPECT_EQ(backlog_before, 3u * keys.size());

  // The fourth batch would cross the bound: pushback, nothing ingested.
  const Status refused = rig.client.Ingest("t", keys, deltas);
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(detector->backlog_events(), backlog_before);
  EXPECT_EQ(rig.client.stats().pushbacks, 1u);
  EXPECT_EQ(rig.server.pushbacks(), 1u);

  // Drain (unstall both shards) -> queued bytes fall to zero -> admitted.
  ASSERT_TRUE(detector->SetShardStalled(0, false).ok());
  ASSERT_TRUE(detector->SetShardStalled(1, false).ok());
  EXPECT_EQ(detector->backlog_events(), 0u);
  EXPECT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
}

// A torn frame is detected by the checksum, surfaced as DataLoss, and
// healed by exactly one client retry — with nothing ingested twice.
TEST(NetTornFrameTest, SingleRetryRecoversWithoutDoubleIngest) {
  obs::Telemetry telemetry;
  auto options = SmallOptions();
  options.telemetry = &telemetry;
  Rig rig(options);

  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());
  std::vector<size_t> keys;
  std::vector<double> deltas;
  SeededBatch(9, 400, &keys, &deltas);

  rig.transport.TearNextFrame();
  ASSERT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
  EXPECT_EQ(rig.transport.frames_torn(), 1u);
  EXPECT_EQ(rig.client.stats().retries, 1u);
  EXPECT_EQ(rig.server.frames_rejected(), 1u);

  // Conservation: the batch landed exactly once.
  ASSERT_TRUE(rig.client.AdvanceTo("t", 1).ok());
  EXPECT_EQ(telemetry.counter("serve.ingest.events"), keys.size());
  EXPECT_EQ(telemetry.counter("serve.ingest.batches"), 1u);

  // A torn *query* response also heals on retry.
  rig.transport.TearNextFrame();
  const StreamingQueryResult result =
      rig.client.Query("SELECT Top 1 SUM(score), key FROM t GROUP BY key")
          .MoveValue();
  EXPECT_FALSE(result.rows.empty());
  EXPECT_EQ(rig.client.stats().retries, 2u);
}

// Under Buggify the torn-frame section fires on deterministic ordinals but
// never twice in a row, so the one-retry policy always recovers and event
// conservation holds through a storm of corrupted frames.
TEST(NetTornFrameTest, BuggifyStormNeverNeedsASecondRetry) {
  sim::BuggifyOptions buggify;
  buggify.seed = 77;
  buggify.activation_probability = 1.0;
  buggify.fire_probability = 1.0;
  sim::BuggifyEnable(buggify);

  obs::Telemetry telemetry;
  auto options = SmallOptions();
  options.telemetry = &telemetry;
  Rig rig(options);
  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());

  std::vector<size_t> keys;
  std::vector<double> deltas;
  uint64_t sent_events = 0;
  for (uint64_t b = 0; b < 20; ++b) {
    SeededBatch(b, 400, &keys, &deltas);
    ASSERT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
    sent_events += keys.size();
  }
  ASSERT_TRUE(rig.client.AdvanceTo("t", 1).ok());
  sim::BuggifyDisable();

  EXPECT_GT(rig.transport.frames_torn(), 0u);
  EXPECT_EQ(rig.client.stats().retries, rig.transport.frames_torn());
  // Conservation across retries AND the concurrent Buggify stall storm
  // inside the detector: folded + replayed events account for every event
  // sent, exactly once.
  EXPECT_EQ(telemetry.counter("serve.ingest.events") +
                telemetry.counter("serve.ingest.replayed_events"),
            sent_events);
}

TEST(SnapshotFollowerTest, ReplicaAnswersBitIdenticallyToLeader) {
  Rig rig;
  ASSERT_TRUE(rig.client.AdvanceTo("t", 0).ok());
  std::vector<size_t> keys;
  std::vector<double> deltas;
  for (uint64_t b = 0; b < 4; ++b) {
    SeededBatch(b + 100, 400, &keys, &deltas);
    ASSERT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
  }
  ASSERT_TRUE(rig.client.AdvanceTo("t", 1).ok());

  SnapshotFollowerOptions fopts;
  fopts.n = 400;
  fopts.m = 150;
  fopts.seed = 5;
  fopts.iterations = 12;
  auto follower = SnapshotFollower::Create(fopts).MoveValue();
  EXPECT_EQ(follower->Snapshot(), nullptr);
  EXPECT_FALSE(follower->QueryOutliers(2).ok());  // Nothing applied yet.

  ASSERT_TRUE(follower->ReplicateOnce(&rig.client, "t").ok());
  auto leader = rig.tenant();
  const outlier::OutlierSet from_replica =
      follower->QueryOutliers(2).MoveValue();
  const outlier::OutlierSet from_leader =
      leader->QueryOutliers(2).MoveValue();
  EXPECT_EQ(from_replica.mode, from_leader.mode);
  ASSERT_EQ(from_replica.outliers.size(), from_leader.outliers.size());
  for (size_t i = 0; i < from_replica.outliers.size(); ++i) {
    EXPECT_EQ(from_replica.outliers[i].key_index,
              from_leader.outliers[i].key_index);
    EXPECT_EQ(from_replica.outliers[i].value,
              from_leader.outliers[i].value);
    EXPECT_EQ(from_replica.outliers[i].divergence,
              from_leader.outliers[i].divergence);
  }
  const std::vector<outlier::Outlier> top_replica =
      follower->QueryTopK(2).MoveValue();
  const std::vector<outlier::Outlier> top_leader =
      leader->QueryTopK(2).MoveValue();
  ASSERT_EQ(top_replica.size(), top_leader.size());
  for (size_t i = 0; i < top_replica.size(); ++i) {
    EXPECT_EQ(top_replica[i].key_index, top_leader[i].key_index);
    EXPECT_EQ(top_replica[i].value, top_leader[i].value);
  }
}

TEST(SnapshotFollowerTest, ApplyIsMonotoneAndValidates) {
  SnapshotFollowerOptions fopts;
  fopts.n = 400;
  fopts.m = 150;
  fopts.seed = 5;
  auto follower = SnapshotFollower::Create(fopts).MoveValue();

  SketchSnapshot v2;
  v2.version = 2;
  v2.y.assign(150, 1.0);
  ASSERT_TRUE(follower->ApplySnapshot(v2).ok());
  ASSERT_EQ(follower->Snapshot()->version, 2u);

  // Stale and duplicate deliveries are ignored (idempotent replication).
  SketchSnapshot v1;
  v1.version = 1;
  v1.y.assign(150, 9.0);
  ASSERT_TRUE(follower->ApplySnapshot(v1).ok());
  EXPECT_EQ(follower->Snapshot()->version, 2u);
  ASSERT_TRUE(follower->ApplySnapshot(v2).ok());
  EXPECT_EQ(follower->Snapshot()->version, 2u);

  // A measurement that does not match M is rejected.
  SketchSnapshot bad;
  bad.version = 3;
  bad.y.assign(10, 1.0);
  EXPECT_EQ(follower->ApplySnapshot(bad).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(follower->Snapshot()->version, 2u);
  // So is one sketched under the other matrix kind.
  SketchSnapshot other_kind = v1;
  other_kind.version = 4;
  other_kind.matrix_kind = cs::MatrixKind::kGaussian;
  EXPECT_EQ(follower->ApplySnapshot(other_kind).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(follower->Snapshot()->version, 2u);
}

// Byte-layout pin: a fixed instance of every request kind (16–20), every
// response kind (32–36) and a kind-24 checkpoint, each hashed with FNV-1a.
// The recorded digests are the layout; any drift in a payload field, its
// width or its order fails here by name.
TEST(NetCodecTest, GoldenFrameDigestsArePinned) {
  Rig rig;
  std::vector<size_t> keys;
  std::vector<double> deltas;
  cs::SparseSlice batch;
  SeededBatch(17, 400, &batch.indices, &batch.values);

  std::vector<std::pair<std::string, std::string>> frames;
  auto add = [&frames](const std::string& name, std::string frame) {
    frames.emplace_back(name, std::move(frame));
  };
  const std::string advance0 = EncodeAdvanceRequest("t", 0).MoveValue();
  const std::string ingest = EncodeIngestRequest("t", batch).MoveValue();
  add("ack-advance", rig.server.HandleFrame(advance0));
  add("ack-ingest", rig.server.HandleFrame(ingest));
  ASSERT_TRUE(rig.tenant()->SetShardStalled(1, true).ok());
  SeededBatch(18, 400, &keys, &deltas);
  ASSERT_TRUE(rig.client.Ingest("t", keys, deltas).ok());
  const std::string advance1 = EncodeAdvanceRequest("t", 1).MoveValue();
  ASSERT_EQ(dist::DecodeFrame(rig.server.HandleFrame(advance1))
                .MoveValue()
                .kind,
            static_cast<uint8_t>(NetFrameKind::kAck));
  const std::string query =
      EncodeQueryRequest("SELECT Outlier 3 SUM(score), key FROM t GROUP BY key")
          .MoveValue();
  const std::string snapshot = EncodeSnapshotRequest("t").MoveValue();
  const std::string checkpoint = EncodeCheckpointRequest("t").MoveValue();
  add("query-result", rig.server.HandleFrame(query));
  add("snapshot", rig.server.HandleFrame(snapshot));
  add("checkpoint", rig.server.HandleFrame(checkpoint));
  add("error", rig.server.HandleFrame(dist::EncodeFrame(99, 0, "")));
  NetServerOptions tight;
  tight.max_tenant_backlog_bytes = dist::kKeyValueBytes;
  NetServer refusing(&rig.service, tight);
  add("pushback", refusing.HandleFrame(ingest));
  add("req-ingest", ingest);
  add("req-advance", advance1);
  add("req-query", query);
  add("req-snapshot", snapshot);
  add("req-checkpoint", checkpoint);

  const std::vector<std::pair<uint8_t, uint64_t>> want = {
      {32, 0xbf004028eed234c2ULL}, {32, 0xece206cfbe86312dULL},
      {33, 0x430ee23344feed56ULL}, {34, 0xb357e131569c701cULL},
      {24, 0x8c2bd2a7de624d22ULL}, {35, 0x4c77933a0d63ef77ULL},
      {36, 0x72632feaef80b80eULL}, {16, 0x46671c4c424bca3aULL},
      {17, 0xd757344b33aee50dULL}, {18, 0x5b1df88e7ce52220ULL},
      {19, 0x6f27280ac7f7cff2ULL}, {20, 0x3563eb3d5effcaf5ULL},
  };
  ASSERT_EQ(frames.size(), want.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    const auto& [name, frame] = frames[i];
    Fnv1a digest;
    digest.AddString(frame);
    EXPECT_EQ(dist::DecodeFrame(frame).MoveValue().kind, want[i].first)
        << name;
    EXPECT_EQ(digest.hash(), want[i].second)
        << name << " (" << frame.size() << " bytes) digest 0x" << std::hex
        << digest.hash();
  }
}

}  // namespace
}  // namespace csod::serve
