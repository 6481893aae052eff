// Wire-facing deployment benchmark (BENCH_serve_net.json): the framed
// ingest/query path of src/serve/net.h over the in-process loopback
// transport.
//
// Three phases:
//
//  (a) Exactness: the same synthetic stream is replayed twice — once
//      through NetClient frames (encode → checksum → HandleFrame → decode)
//      into a StreamingService tenant, once into a bare StreamingDetector —
//      and every observable output (published window measurement bits,
//      framed Outlier/Top query rows, mode, snapshot provenance) is
//      FNV-1a-digested on both sides. The digests must match bit for bit:
//      the wire surface adds framing, never arithmetic. The binary exits
//      nonzero on any mismatch.
//
//  (b) Checkpoint round trip: the leader's checkpoint frame is fetched
//      over the wire, restored, and the restored detector's published
//      snapshot digested — must equal the leader's (restart ⇒ bit-identical
//      republish).
//
//  (c) Throughput: the stream is replayed again through frames (best of
//      --trials) and sustained framed key-updates/sec reported.
//      scripts/run_bench_serve_net.sh turns this into a core-count-aware
//      gate (>= 100k/s on an 8-core box) and re-runs the whole binary to
//      diff the digest lines across runs.
//
// Flags: --n --m --window --shards --epochs --batch --events-per-epoch
//        --k --seed --trials --out --quick

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/digest.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "serve/checkpoint.h"
#include "serve/net.h"
#include "serve/service.h"
#include "serve/streaming_detector.h"

namespace {

using namespace csod;

struct StreamConfig {
  size_t n = 0;
  size_t m = 0;
  size_t window = 0;
  size_t shards = 0;
  size_t epochs = 0;
  size_t batch = 0;
  size_t events_per_epoch = 0;
  size_t k = 0;
  uint64_t seed = 0;
};

// Deterministic synthetic stream, restarted (same seed) for every replay —
// the same generator shape as bench_streaming so both benches stress the
// same data path, one framed and one direct.
class StreamGen {
 public:
  explicit StreamGen(const StreamConfig& config)
      : config_(config),
        rng_(static_cast<std::minstd_rand::result_type>(
            config.seed ? config.seed : 1)) {}

  size_t NextBatch(size_t remaining_in_epoch, std::vector<size_t>* keys,
                   std::vector<double>* deltas) {
    const size_t count = std::min(config_.batch, remaining_in_epoch);
    keys->resize(count);
    deltas->resize(count);
    for (size_t i = 0; i < count; ++i) {
      (*keys)[i] = static_cast<size_t>(rng_()) % config_.n;
      (*deltas)[i] = 100.0 * (0.5 + static_cast<double>(rng_() % 1000) / 1e3);
    }
    (*keys)[0] = config_.n / 3;
    (*deltas)[0] = 5.0e5;
    return count;
  }

 private:
  StreamConfig config_;
  std::minstd_rand rng_;
};

serve::StreamingDetectorOptions DetectorOptions(const StreamConfig& config) {
  serve::StreamingDetectorOptions options;
  options.n = config.n;
  options.m = config.m;
  options.seed = config.seed + 7;
  options.window_epochs = config.window;
  options.num_shards = config.shards;
  return options;
}

// Replays the whole stream through framed ingest/advance calls. Returns
// ingest+advance wall ms.
Result<double> ReplayFramed(const StreamConfig& config,
                            serve::NetClient* client,
                            const std::string& tenant) {
  StreamGen gen(config);
  std::vector<size_t> keys;
  std::vector<double> deltas;
  Stopwatch watch;
  CSOD_RETURN_NOT_OK(client->AdvanceTo(tenant, 0).status());  // Open epoch 0.
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    size_t remaining = config.events_per_epoch;
    while (remaining > 0) {
      const size_t count = gen.NextBatch(remaining, &keys, &deltas);
      CSOD_RETURN_NOT_OK(client->Ingest(tenant, keys, deltas));
      remaining -= count;
    }
    CSOD_RETURN_NOT_OK(client->AdvanceTo(tenant, epoch + 1).status());
  }
  return watch.ElapsedMillis();
}

// Replays the same stream directly into a bare detector (the in-process
// reference the framed path must match bit for bit).
Result<double> ReplayDirect(const StreamConfig& config,
                            serve::StreamingDetector* detector) {
  StreamGen gen(config);
  std::vector<size_t> keys;
  std::vector<double> deltas;
  Stopwatch watch;
  detector->AdvanceEpoch();
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    size_t remaining = config.events_per_epoch;
    while (remaining > 0) {
      const size_t count = gen.NextBatch(remaining, &keys, &deltas);
      CSOD_RETURN_NOT_OK(
          detector->IngestBatch(keys.data(), deltas.data(), count));
      remaining -= count;
    }
    detector->AdvanceEpoch();
  }
  return watch.ElapsedMillis();
}

// Digest of everything the framed surface answers: snapshot measurement
// bits + provenance, then both query kinds' rows/mode/provenance.
Result<uint64_t> DigestFramedOutputs(const StreamConfig& config,
                                     serve::NetClient* client,
                                     const std::string& tenant) {
  Fnv1a digest(bench::kDigestBasis);
  CSOD_ASSIGN_OR_RETURN(auto snapshot, client->FetchSnapshot(tenant));
  for (double v : snapshot.y) digest.AddDouble(v);
  digest.AddU64(snapshot.version);
  digest.AddU64(snapshot.first_epoch);
  digest.AddU64(snapshot.last_epoch);
  for (const char* mode : {"Outlier", "Top"}) {
    CSOD_ASSIGN_OR_RETURN(
        auto result,
        client->Query(std::string("SELECT ") + mode + " " +
                      std::to_string(config.k) +
                      " SUM(score), key FROM " + tenant + " GROUP BY key"));
    digest.AddDouble(result.mode);
    digest.AddU64(result.snapshot_version);
    for (const auto& row : result.rows) {
      digest.AddString(row.group_key);
      digest.AddDouble(row.value);
      digest.AddDouble(row.rank_score);
    }
  }
  return digest.hash();
}

// The same digest computed against a bare detector through the service
// query path (identical grammar, no frames).
Result<uint64_t> DigestDirectOutputs(const StreamConfig& config,
                                     const serve::StreamingService& service,
                                     const std::string& tenant) {
  Fnv1a digest(bench::kDigestBasis);
  CSOD_ASSIGN_OR_RETURN(auto detector, service.Tenant(tenant));
  auto snapshot = detector->Snapshot();
  if (!snapshot) return Status::Internal("no snapshot published");
  for (double v : snapshot->y) digest.AddDouble(v);
  digest.AddU64(snapshot->version);
  digest.AddU64(snapshot->first_epoch);
  digest.AddU64(snapshot->last_epoch);
  for (const char* mode : {"Outlier", "Top"}) {
    CSOD_ASSIGN_OR_RETURN(
        auto result,
        service.Query(std::string("SELECT ") + mode + " " +
                      std::to_string(config.k) +
                      " SUM(score), key FROM " + tenant + " GROUP BY key"));
    digest.AddDouble(result.mode);
    digest.AddU64(result.snapshot_version);
    for (const auto& row : result.rows) {
      digest.AddString(row.group_key);
      digest.AddDouble(row.value);
      digest.AddDouble(row.rank_score);
    }
  }
  return digest.hash();
}

uint64_t SnapshotDigest(const serve::SketchSnapshot& snapshot) {
  Fnv1a digest(bench::kDigestBasis);
  for (double v : snapshot.y) digest.AddDouble(v);
  digest.AddU64(snapshot.version);
  return digest.hash();
}

void Die(const Status& status) {
  std::fprintf(stderr, "bench_serve_net: %s\n", status.ToString().c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).Check();
  const bool quick = flags.GetBool("quick", false);
  StreamConfig config;
  config.n = static_cast<size_t>(flags.GetInt("n", quick ? 5000 : 50000));
  config.m = static_cast<size_t>(flags.GetInt("m", quick ? 128 : 256));
  config.window = static_cast<size_t>(flags.GetInt("window", 4));
  config.shards = static_cast<size_t>(flags.GetInt("shards", 8));
  config.epochs = static_cast<size_t>(flags.GetInt("epochs", 8));
  config.batch = static_cast<size_t>(flags.GetInt("batch", 2048));
  config.events_per_epoch = static_cast<size_t>(
      flags.GetInt("events-per-epoch", quick ? 20000 : 250000));
  config.k = static_cast<size_t>(flags.GetInt("k", 5));
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const size_t trials =
      static_cast<size_t>(flags.GetInt("trials", quick ? 2 : 3));
  const std::string out_path = flags.GetString("out", "BENCH_serve_net.json");
  const std::string tenant = "bench";

  bench::Banner("Wire-facing serve surface",
                "framed ingest/query over loopback (src/serve/net)");
  const uint64_t total_events =
      static_cast<uint64_t>(config.epochs) * config.events_per_epoch;
  std::printf("N = %zu, M = %zu, window = %zu, %zu shards, %zu epochs x %zu "
              "events (%.2f M updates), batch %zu, k = %zu\n\n",
              config.n, config.m, config.window, config.shards, config.epochs,
              config.events_per_epoch, static_cast<double>(total_events) / 1e6,
              config.batch, config.k);

  // ---- (a) Exactness: framed replay vs direct replay, digested. ----
  serve::StreamingService service;
  auto added = service.AddTenant(tenant, DetectorOptions(config));
  if (!added.ok()) Die(added);
  serve::NetServer server(&service);
  serve::LoopbackTransport transport(&server);
  serve::NetClient client(&transport);
  auto framed_wall = ReplayFramed(config, &client, tenant);
  if (!framed_wall.ok()) Die(framed_wall.status());
  auto framed_digest = DigestFramedOutputs(config, &client, tenant);
  if (!framed_digest.ok()) Die(framed_digest.status());

  serve::StreamingService direct_service;
  added = direct_service.AddTenant(tenant, DetectorOptions(config));
  if (!added.ok()) Die(added);
  auto direct_detector = direct_service.Tenant(tenant);
  if (!direct_detector.ok()) Die(direct_detector.status());
  auto direct_wall = ReplayDirect(config, direct_detector.Value().get());
  if (!direct_wall.ok()) Die(direct_wall.status());
  auto direct_digest = DigestDirectOutputs(config, direct_service, tenant);
  if (!direct_digest.ok()) Die(direct_digest.status());

  const bool bit_identical = framed_digest.Value() == direct_digest.Value();
  std::printf("framed digest 0x%016" PRIx64 " vs in-process digest "
              "0x%016" PRIx64 " — bit-identical: %s\n",
              framed_digest.Value(), direct_digest.Value(),
              bit_identical ? "yes" : "NO");

  // ---- (b) Checkpoint round trip over the wire. ----
  auto ckpt_frame = client.FetchCheckpoint(tenant);
  if (!ckpt_frame.ok()) Die(ckpt_frame.status());
  auto restored = serve::RestoreDetector(ckpt_frame.Value(),
                                         DetectorOptions(config));
  if (!restored.ok()) Die(restored.status());
  auto leader_snapshot = direct_detector.Value()->Snapshot();
  auto restored_snapshot = restored.Value()->Snapshot();
  const bool restore_identical =
      leader_snapshot != nullptr && restored_snapshot != nullptr &&
      SnapshotDigest(*leader_snapshot) == SnapshotDigest(*restored_snapshot);
  std::printf("checkpoint %zu bytes over the wire, restored snapshot "
              "bit-identical: %s\n\n",
              ckpt_frame.Value().size(), restore_identical ? "yes" : "NO");

  // ---- (c) Framed throughput, best of trials. ----
  double best_framed_ms = framed_wall.Value();
  uint64_t frames_sent = client.stats().frames_sent;
  uint64_t bytes_sent = client.stats().bytes_sent;
  for (size_t trial = 1; trial < trials; ++trial) {
    serve::StreamingService trial_service;
    auto ok = trial_service.AddTenant(tenant, DetectorOptions(config));
    if (!ok.ok()) Die(ok);
    serve::NetServer trial_server(&trial_service);
    serve::LoopbackTransport trial_transport(&trial_server);
    serve::NetClient trial_client(&trial_transport);
    auto wall = ReplayFramed(config, &trial_client, tenant);
    if (!wall.ok()) Die(wall.status());
    best_framed_ms = std::min(best_framed_ms, wall.Value());
  }
  const double updates_per_sec = 1e3 * static_cast<double>(total_events) /
                                 std::max(best_framed_ms, 1e-9);
  const double direct_updates_per_sec =
      1e3 * static_cast<double>(total_events) /
      std::max(direct_wall.Value(), 1e-9);
  std::printf("framed throughput: %.0f updates/s (best of %zu; direct path "
              "%.0f updates/s), %llu frames, %.1f MB sent, %llu retries\n",
              updates_per_sec, trials, direct_updates_per_sec,
              static_cast<unsigned long long>(frames_sent),
              static_cast<double>(bytes_sent) / 1e6,
              static_cast<unsigned long long>(client.stats().retries));

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"serve_net\",\n");
  std::fprintf(out,
               "  \"config\": {\"n\": %zu, \"m\": %zu, \"window\": %zu, "
               "\"shards\": %zu, \"epochs\": %zu, \"events_per_epoch\": %zu, "
               "\"batch\": %zu, \"k\": %zu, \"seed\": %llu, \"trials\": "
               "%zu},\n",
               config.n, config.m, config.window, config.shards, config.epochs,
               config.events_per_epoch, config.batch, config.k,
               static_cast<unsigned long long>(config.seed), trials);
  std::fprintf(out, "  \"framed_digest\": \"0x%016" PRIx64 "\",\n",
               framed_digest.Value());
  std::fprintf(out, "  \"inprocess_digest\": \"0x%016" PRIx64 "\",\n",
               direct_digest.Value());
  std::fprintf(out, "  \"bit_identical\": %s,\n",
               bit_identical ? "true" : "false");
  std::fprintf(out,
               "  \"checkpoint\": {\"bytes\": %zu, "
               "\"restore_bit_identical\": %s},\n",
               ckpt_frame.Value().size(),
               restore_identical ? "true" : "false");
  std::fprintf(out,
               "  \"throughput\": {\"updates_per_sec\": %.0f, "
               "\"direct_updates_per_sec\": %.0f, \"frames_sent\": %llu, "
               "\"bytes_sent\": %llu, \"retries\": %llu}\n}\n",
               updates_per_sec, direct_updates_per_sec,
               static_cast<unsigned long long>(frames_sent),
               static_cast<unsigned long long>(bytes_sent),
               static_cast<unsigned long long>(client.stats().retries));
  std::fclose(out);
  std::printf("Wrote %s\n", out_path.c_str());
  return (bit_identical && restore_identical) ? 0 : 1;
}
