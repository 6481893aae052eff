// serve-mixed: the streaming service over its wire surface, with writes
// beside reads. Two socketpair connections, each served by a
// serve::ServeConnection thread, reach one StreamingService tenant:
//
//  - ingest connection, closed loop: one NetClient sends fixed-size
//    batches (uniform keys plus k planted hot keys of distinct magnitudes)
//    and waits for each ack; it closes an epoch after every pass over the
//    epoch's batches;
//  - query connection, open loop: `SELECT Outlier k ...` at a fixed rate,
//    timed from each query's due time, plus one checkpoint fetch per
//    closed epoch between queries.
//
// Threads: the two load threads and the two server threads, pinned in
// pairs that rotate over the CPUs (see PinToCpu). The measured phase runs
// at parallelism limit 1, so each connection's work stays on its server
// thread: four threads on four vCPUs, and each server thread's CPU clock
// holds only its own connection's work. The end-to-end times are those
// CPU times: per query, and per acked event on the ingest connection.
//
// Why this workload: wire framing, scatter/sketch/fold and publish carry
// the ingest, while query recovery runs beside it and competes for memory
// bandwidth and the last-level cache; the tenant's cached Φ0 is about as
// large as the last-level cache, so ingest is memory-bound — the cache
// side that batch-mapreduce's implicit mappers never exercise.

#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/arena.h"
#include "common/parallel.h"
#include "common/random.h"
#include "core/windowed_detector.h"
#include "cs/measurement_matrix.h"
#include "dist/wire_format.h"
#include "mapreduce/shuffle.h"
#include "obs/telemetry.h"
#include "outlier/outlier.h"
#include "query/query.h"
#include "serve/checkpoint.h"
#include "serve/net.h"
#include "serve/service.h"
#include "serve/streaming_detector.h"

namespace perfbench {
namespace {

using namespace csod;

struct Shape {
  size_t n, m, shards, window, batch, batches_per_epoch, k;
  double queries_per_s;
};

// 122 batches of 2048 events: one epoch per ~250k events.
constexpr Shape kFull{50000, 256, 8, 4, 2048, 122, 5, 3.4};
constexpr Shape kTiny{3000, 128, 4, 2, 256, 8, 5, 20.0};

// Every Nth ingest frame of the traced phase gets a span (keeps the span
// buffer small at thousands of frames per second).
constexpr uint64_t kFrameSampleEvery = 16;
const char* const kTenant = "live";

struct Stream {
  std::vector<std::vector<size_t>> keys;
  std::vector<std::vector<double>> deltas;
  std::set<size_t> planted;
};

// One epoch's batches. Every epoch replays the same batches, so once the
// window is full every published snapshot — and every answer — is the same
// bits, which makes the answer digest comparable across queries.
Stream MakeStream(const Shape& shape, uint64_t seed) {
  Stream s;
  Rng rng(seed);
  std::vector<size_t> hot;
  while (hot.size() < shape.k) {
    const size_t key = static_cast<size_t>(rng.NextBounded(shape.n));
    if (s.planted.insert(key).second) hot.push_back(key);
  }
  for (size_t b = 0; b < shape.batches_per_epoch; ++b) {
    std::vector<size_t> keys(shape.batch);
    std::vector<double> deltas(shape.batch);
    for (size_t i = 0; i < shape.batch; ++i) {
      if (i < hot.size()) {
        keys[i] = hot[i];
        deltas[i] = 5.0e4 * static_cast<double>(i + 1);
      } else {
        keys[i] = static_cast<size_t>(rng.NextBounded(shape.n));
        deltas[i] = 100.0 * (0.5 + rng.NextDouble());
      }
    }
    s.keys.push_back(std::move(keys));
    s.deltas.push_back(std::move(deltas));
  }
  return s;
}

serve::StreamingDetectorOptions TenantOptions(const Shape& shape,
                                              uint64_t seed) {
  serve::StreamingDetectorOptions o;
  o.n = shape.n;
  o.m = shape.m;
  o.seed = ConsensusSeed(seed);
  o.window_epochs = shape.window;
  o.num_shards = shape.shards;
  return o;
}

std::string QueryText(const Shape& shape) {
  return "SELECT Outlier " + std::to_string(shape.k) +
         " SUM(score), key FROM " + kTenant + " GROUP BY key";
}

// Each client thread shares one CPU with the server thread of its
// connection, and both pairs move on to the next CPUs whenever an epoch
// closes: connection c sits on CPU (placement + c * nproc / 2) mod nproc,
// where placement counts the epochs closed. Unpinned, the scheduler settled
// each run into a different placement of the four threads, and cross-CPU
// wake-ups on every frame made ingest throughput bimodal from run to run on
// a 4-vCPU VM. Pinned to fixed CPUs, throughput followed the speed of one
// vCPU, which on a shared host drifted by up to 1.5x for tens of seconds;
// rotating averages it over every CPU within a run.
void PinToCpu(pthread_t thread, size_t connection, uint64_t placement) {
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  if (cpus < 2) return;
  const uint64_t n = static_cast<uint64_t>(cpus);
  const uint64_t cpu = (placement + connection * (n / 2)) % n;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu), &set);
  pthread_setaffinity_np(thread, sizeof(set), &set);
}

// The deployment under test: service, server, two connections, each with
// its server thread.
class Deployment {
 public:
  Deployment(const Shape& shape, uint64_t seed) : server_(&service_) {
    status_ = service_.AddTenant(kTenant, TenantOptions(shape, seed));
    for (int c = 0; c < 2 && status_.ok(); ++c) {
      int fds[2];
      if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        status_ = Status::Internal("socketpair failed");
        break;
      }
      server_fds_.push_back(fds[0]);
      transports_.push_back(std::make_unique<serve::SocketTransport>(fds[1]));
      clients_.push_back(
          std::make_unique<serve::NetClient>(transports_.back().get()));
      serve_status_.push_back(Status::OK());
    }
    for (size_t c = 0; c < server_fds_.size(); ++c) {
      threads_.emplace_back([this, c] {
        PinToCpu(pthread_self(), c, 0);
        serve_status_[c] = serve::ServeConnection(server_fds_[c], &server_);
      });
    }
  }
  ~Deployment() { Close(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Closes the client ends (the server threads see EOF), joins the
  /// threads and returns the first server-side error.
  Status Close() {
    clients_.clear();
    transports_.clear();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    for (int fd : server_fds_) ::close(fd);
    server_fds_.clear();
    for (const Status& s : serve_status_) {
      if (!s.ok() && status_.ok()) status_ = s;
    }
    return status_;
  }

  /// Moves each server thread to its connection's CPU for `placement`.
  void Place(uint64_t placement) {
    for (size_t c = 0; c < threads_.size(); ++c) {
      PinToCpu(threads_[c].native_handle(), c, placement);
    }
  }

  const Status& status() const { return status_; }
  /// CPU clock of connection c's server thread.
  clockid_t ServerClock(size_t c) {
    clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
    pthread_getcpuclockid(threads_[c].native_handle(), &clock);
    return clock;
  }
  serve::NetClient* ingest() { return clients_[0].get(); }
  serve::NetClient* query() { return clients_[1].get(); }

 private:
  serve::StreamingService service_;
  serve::NetServer server_;
  Status status_;
  std::vector<int> server_fds_;
  std::vector<std::unique_ptr<serve::SocketTransport>> transports_;
  std::vector<std::unique_ptr<serve::NetClient>> clients_;
  std::vector<Status> serve_status_;
  std::vector<std::thread> threads_;
};

// Ingests one epoch's batches over `client` and closes the epoch.
Status IngestEpoch(serve::NetClient* client, const Stream& stream,
                   uint64_t tick) {
  for (size_t b = 0; b < stream.keys.size(); ++b) {
    CSOD_RETURN_NOT_OK(client->Ingest(kTenant, stream.keys[b],
                                      stream.deltas[b]));
  }
  return client->AdvanceTo(kTenant, tick).status();
}

uint64_t AnswerDigest(const serve::StreamingQueryResult& r) {
  Fnv1a d;
  for (const auto& row : r.rows) {
    d.AddString(row.group_key);
    d.AddDouble(row.value);
    d.AddDouble(row.rank_score);
  }
  d.AddDouble(r.mode);
  return d.hash();
}

uint64_t AnswerDigest(const outlier::OutlierSet& set) {
  Fnv1a d;
  for (const auto& o : set.outliers) {
    d.AddString(std::to_string(o.key_index));
    d.AddDouble(o.value);
    d.AddDouble(o.divergence);
  }
  d.AddDouble(set.mode);
  return d.hash();
}

// Shared between the ingest and query threads during the measured phase.
struct LiveState {
  std::atomic<bool> stop{false};
  std::atomic<bool> traced{false};
  std::atomic<uint64_t> epochs_closed{0};
};

struct IngestOutcome {
  std::vector<double> rtt_us_untraced, rtt_us_traced;
  uint64_t events = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of the client and server threads.
  Report ops;  ///< Frames attempted and failed.
};

struct QueryOutcome {
  std::vector<double> latency_ms;
  std::vector<double> cpu_ms;  ///< Client plus server thread, per query.
  std::vector<double> checkpoint_ms;
  std::vector<uint64_t> digests;
  uint64_t checkpoint_bytes = 0;
  double late_ms_max = 0.0;
  std::string last_checkpoint;
  Report ops;  ///< Queries and checkpoint fetches attempted and failed.
};

void RunIngest(const Stream& stream, uint64_t first_tick, double seconds,
               Deployment* deployment, LiveState* live, Tracer* tracer,
               IngestOutcome* out) {
  serve::NetClient* client = deployment->ingest();
  CpuTimer client_cpu(CLOCK_THREAD_CPUTIME_ID);
  CpuTimer server_cpu(deployment->ServerClock(0));
  Timer wall;
  uint64_t tick = first_tick;
  uint64_t frame = 0;
  while (!live->stop.load()) {
    for (size_t b = 0; b < stream.keys.size() && !live->stop.load(); ++b) {
      const bool traced = live->traced.load();
      const bool sampled = traced && frame % kFrameSampleEvery == 0;
      Timer t;
      Status st;
      {
        Tracer::Scope span(sampled ? tracer : nullptr, "serve.ingest_frame",
                           frame);
        st = client->Ingest(kTenant, stream.keys[b], stream.deltas[b]);
      }
      const double rtt = t.Us();
      ++frame;
      ++out->ops.attempted;
      if (!st.ok()) {
        out->ops.Fail("ingest: " + st.ToString());
        continue;
      }
      out->events += stream.keys[b].size();
      (traced ? out->rtt_us_traced : out->rtt_us_untraced).push_back(rtt);
      if (wall.Ms() >= seconds * 1e3) live->stop.store(true);
    }
    if (live->stop.load()) break;
    ++out->ops.attempted;
    auto reached = client->AdvanceTo(kTenant, tick++);
    if (!reached.ok()) {
      out->ops.Fail("advance: " + reached.status().ToString());
      continue;
    }
    const uint64_t placement = live->epochs_closed.fetch_add(1) + 1;
    PinToCpu(pthread_self(), 0, placement);
    deployment->Place(placement);
  }
  out->wall_s = wall.Ms() / 1e3;
  out->cpu_s = (client_cpu.Ms() + server_cpu.Ms()) / 1e3;
}

void RunQueries(const Shape& shape, const std::set<size_t>& planted,
                double seconds, serve::NetClient* client,
                clockid_t server_clock, LiveState* live, Tracer* tracer,
                QueryOutcome* out) {
  const std::string text = QueryText(shape);
  const auto start = std::chrono::steady_clock::now();
  const auto period = std::chrono::duration<double>(1.0 / shape.queries_per_s);
  uint64_t next = 0;
  uint64_t checkpointed_epochs = live->epochs_closed.load();
  uint64_t placement = checkpointed_epochs;
  PinToCpu(pthread_self(), 1, placement);
  while (true) {
    if (live->epochs_closed.load() != placement) {
      placement = live->epochs_closed.load();
      PinToCpu(pthread_self(), 1, placement);
    }
    const auto due =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    period * static_cast<double>(next));
    if (due - start >= std::chrono::duration<double>(seconds) ||
        live->stop.load()) {
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= due) {
      out->late_ms_max = std::max(
          out->late_ms_max,
          std::chrono::duration<double, std::milli>(now - due).count());
      ++out->ops.attempted;
      Result<serve::StreamingQueryResult> answer =
          Status::Internal("not run");
      CpuTimer client_cpu(CLOCK_THREAD_CPUTIME_ID);
      CpuTimer server_cpu(server_clock);
      {
        Tracer::Scope span(live->traced.load() ? tracer : nullptr,
                           "serve.query_op", next);
        answer = client->Query(text);
      }
      const double latency = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - due)
                                 .count();
      ++next;
      if (!answer.ok()) {
        out->ops.Fail("query: " + answer.status().ToString());
        continue;
      }
      out->latency_ms.push_back(latency);
      out->cpu_ms.push_back(client_cpu.Ms() + server_cpu.Ms());
      const serve::StreamingQueryResult& r = answer.Value();
      std::set<size_t> keys;
      for (const auto& row : r.rows) {
        keys.insert(std::strtoull(row.group_key.c_str(), nullptr, 10));
      }
      const uint64_t digest = AnswerDigest(r);
      if (keys != planted) {
        out->ops.Fail("query keys differ from the planted keys");
      } else if (r.staleness_epochs > 1) {
        out->ops.Fail("query staleness " + std::to_string(r.staleness_epochs));
      } else if (!out->digests.empty() && digest != out->digests.front()) {
        out->ops.Fail("answer digest changed between queries");
      }
      out->digests.push_back(digest);
      continue;
    }
    const uint64_t closed = live->epochs_closed.load();
    if (closed != checkpointed_epochs) {
      checkpointed_epochs = closed;
      ++out->ops.attempted;
      Timer t;
      Result<std::string> frame = Status::Internal("not run");
      {
        Tracer::Scope span(live->traced.load() ? tracer : nullptr,
                           "serve.checkpoint_fetch", closed);
        frame = client->FetchCheckpoint(kTenant);
      }
      if (!frame.ok()) {
        out->ops.Fail("checkpoint: " + frame.status().ToString());
        continue;
      }
      out->checkpoint_ms.push_back(t.Ms());
      out->checkpoint_bytes = frame.Value().size();
      if (!serve::DecodeCheckpoint(frame.Value()).ok()) {
        out->ops.Fail("checkpoint does not decode");
      }
      out->last_checkpoint = std::move(frame.Value());
      continue;
    }
    std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
        due - now, std::chrono::milliseconds(2)));
  }
}

// ---- Traced run: replays of the calls the server makes, on twins fed the
// same stream, so their time can be attributed inside each frame.

struct Samples {
  std::vector<double> encode_us, decode_us, handle_us, ingest_us, scatter_us,
      sketch_us, fold_us, publish_us;
};

Status ReplayIngest(const Shape& shape, uint64_t seed, const Stream& stream,
                    size_t epochs, serve::StreamingDetector* twin,
                    Samples* s) {
  serve::StreamingService framed_twin;
  CSOD_RETURN_NOT_OK(framed_twin.AddTenant(kTenant, TenantOptions(shape, seed)));
  serve::NetServer server(&framed_twin);
  core::WindowedDetectorOptions wopt;
  wopt.n = shape.n;
  wopt.m = shape.m;
  wopt.seed = ConsensusSeed(seed);
  wopt.window_epochs = shape.window;
  CSOD_ASSIGN_OR_RETURN(auto window, core::WindowedOutlierDetector::Create(wopt));
  const cs::MeasurementMatrix& matrix = twin->matrix();
  std::vector<double> per_slice;
  std::vector<double> shard_y;

  auto advance = [&](uint64_t tick) -> Status {
    CSOD_ASSIGN_OR_RETURN(std::string frame,
                          serve::EncodeAdvanceRequest(kTenant, tick));
    CSOD_RETURN_NOT_OK(dist::DecodeFrame(server.HandleFrame(frame)).status());
    Timer t;
    CSOD_RETURN_NOT_OK(twin->AdvanceTo(tick).status());
    s->publish_us.push_back(t.Us());
    window->AdvanceEpoch();
    return Status::OK();
  };
  CSOD_RETURN_NOT_OK(advance(0));
  for (size_t e = 0; e < epochs; ++e) {
    for (size_t b = 0; b < stream.keys.size(); ++b) {
      const std::vector<size_t>& keys = stream.keys[b];
      const std::vector<double>& deltas = stream.deltas[b];
      cs::SparseSlice slice;
      slice.indices = keys;
      slice.values = deltas;
      Timer te;
      CSOD_ASSIGN_OR_RETURN(std::string frame,
                            serve::EncodeIngestRequest(kTenant, slice));
      s->encode_us.push_back(te.Us());
      Timer td;
      CSOD_RETURN_NOT_OK(dist::DecodeFrame(frame).status());
      s->decode_us.push_back(td.Us());
      Timer th;
      const std::string response = server.HandleFrame(frame);
      s->handle_us.push_back(th.Us());
      CSOD_ASSIGN_OR_RETURN(dist::FrameView view, dist::DecodeFrame(response));
      if (view.kind != static_cast<uint8_t>(serve::NetFrameKind::kAck)) {
        return Status::Internal("twin server did not ack an ingest frame");
      }
      Timer ti;
      CSOD_RETURN_NOT_OK(twin->IngestBatch(keys, deltas));
      s->ingest_us.push_back(ti.Us());

      // The three public calls IngestBatch makes, on the same batch.
      Timer tsc;
      Arena arena;
      std::vector<ColumnChunks<size_t>> key_store;
      std::vector<ColumnChunks<double>> value_store;
      std::vector<mr::PartitionBlock<size_t, double>> blocks;
      std::vector<double> values = deltas;
      auto one_run = [&](auto&& fn) {
        fn(keys.data(), values.data(), keys.size());
      };
      mr::ScatterPartitions(
          keys.size(), shape.shards, &arena,
          [](size_t key) { return SplitMix64(static_cast<uint64_t>(key)); },
          one_run, &key_store, &value_store, &blocks);
      s->scatter_us.push_back(tsc.Us());
      std::vector<cs::SparseVectorView> views(shape.shards);
      for (size_t p = 0; p < shape.shards; ++p) {
        if (key_store[p].size() == 0) continue;
        views[p] = cs::SparseVectorView{key_store[p].chunk_data(0),
                                        value_store[p].chunk_data(0),
                                        key_store[p].size()};
      }
      Timer tsk;
      CSOD_RETURN_NOT_OK(matrix.MultiplySparseBatch(views, nullptr, &per_slice));
      s->sketch_us.push_back(tsk.Us());
      Timer tf;
      for (size_t p = 0; p < shape.shards; ++p) {
        const double* segment = per_slice.data() + p * shape.m;
        shard_y.assign(segment, segment + shape.m);
        CSOD_RETURN_NOT_OK(window->IngestMeasurement(shard_y));
      }
      s->fold_us.push_back(tf.Us());
    }
    CSOD_RETURN_NOT_OK(advance(e + 1));
  }
  return Status::OK();
}

// Live sink vs disabled sink on the same ingest calls: two twins, fed
// batch-by-batch alternately.
Result<double> TelemetryOverheadPct(const Shape& shape, uint64_t seed,
                                    const Stream& stream) {
  obs::Telemetry sink;
  serve::StreamingDetectorOptions with = TenantOptions(shape, seed);
  with.telemetry = &sink;
  CSOD_ASSIGN_OR_RETURN(auto on, serve::StreamingDetector::Create(with));
  CSOD_ASSIGN_OR_RETURN(auto off, serve::StreamingDetector::Create(
                                      TenantOptions(shape, seed)));
  CSOD_RETURN_NOT_OK(on->AdvanceTo(0).status());
  CSOD_RETURN_NOT_OK(off->AdvanceTo(0).status());
  std::vector<double> with_us, without_us;
  for (int pass = 0; pass < kObsPairs; ++pass) {
    for (size_t b = 0; b < stream.keys.size(); ++b) {
      Timer a;
      CSOD_RETURN_NOT_OK(on->IngestBatch(stream.keys[b], stream.deltas[b]));
      with_us.push_back(a.Us());
      Timer c;
      CSOD_RETURN_NOT_OK(off->IngestBatch(stream.keys[b], stream.deltas[b]));
      without_us.push_back(c.Us());
    }
    CSOD_RETURN_NOT_OK(on->AdvanceTo(pass + 1).status());
    CSOD_RETURN_NOT_OK(off->AdvanceTo(pass + 1).status());
  }
  return OverheadPct(with_us, without_us);
}

}  // namespace

Report RunServeMixed(const RunOptions& options, Tracer* tracer) {
  Report report;
  const Shape shape = options.tiny ? kTiny : kFull;

  // ---- Setup: stream generated, tenant (and its Φ0 cache) built, both
  // connections and their server threads up, and the window filled.
  std::unique_ptr<Deployment> deployment;
  Stream stream;
  uint64_t epoch_bytes = 0;
  const uint64_t warmup_epochs = shape.window + 1;
  auto setup_s = TimedSetup(
      [&] { deployment.reset(); },  // Joins the previous server threads.
      [&]() -> Status {
        stream = MakeStream(shape, options.seed);
        deployment = std::make_unique<Deployment>(shape, options.seed);
        CSOD_RETURN_NOT_OK(deployment->status());
        serve::NetClient* ingest = deployment->ingest();
        CSOD_RETURN_NOT_OK(ingest->AdvanceTo(kTenant, 0).status());
        for (uint64_t e = 1; e <= warmup_epochs; ++e) {
          const uint64_t before = ingest->stats().bytes_sent;
          CSOD_RETURN_NOT_OK(IngestEpoch(ingest, stream, e));
          epoch_bytes = ingest->stats().bytes_sent - before;
        }
        return Status::OK();
      });
  if (!setup_s.ok()) {
    report.Fail("setup: " + setup_s.status().ToString());
    return report;
  }
  std::set<size_t> planted = stream.planted;
  if (options.corrupt_reference) {
    const size_t moved = *planted.begin();
    planted.erase(planted.begin());
    planted.insert((moved + 1) % shape.n);
  }

  // ---- Measured phase: ingest (closed loop) beside queries (open loop).
  // Each connection's work runs on its own server thread (parallelism
  // limit 1), so the four load and server threads fit the four vCPUs and
  // each thread's CPU clock holds exactly its connection's work.
  const size_t parallelism = GetParallelismLimit();
  SetParallelismLimit(1);
  LiveState live;
  IngestOutcome ingest_out;
  QueryOutcome query_out;
  std::thread ingest_thread([&] {
    PinToCpu(pthread_self(), 0, 0);
    RunIngest(stream, warmup_epochs + 1, options.seconds, deployment.get(),
              &live, tracer, &ingest_out);
  });
  std::thread query_thread([&] {
    RunQueries(shape, planted, options.seconds, deployment->query(),
               deployment->ServerClock(1), &live, tracer, &query_out);
  });
  if (options.trace) {
    // First third untraced (the tracing-overhead baseline), then traced.
    Timer phase;
    while (!live.stop.load() && phase.Ms() < options.seconds * 1e3 / 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    live.traced.store(true);
  }
  ingest_thread.join();
  query_thread.join();
  SetParallelismLimit(parallelism);
  const serve::NetClient::Stats ingest_stats = deployment->ingest()->stats();
  const serve::NetClient::Stats query_stats = deployment->query()->stats();
  const Status closed = deployment->Close();
  if (!closed.ok()) report.Fail("server connection: " + closed.ToString());

  report.Merge(ingest_out.ops);
  report.Merge(query_out.ops);
  if (!query_out.digests.empty()) report.digest = query_out.digests.front();
  if (query_out.latency_ms.empty()) report.Fail("no query answered");

  std::vector<double> rtt = ingest_out.rtt_us_untraced;
  rtt.insert(rtt.end(), ingest_out.rtt_us_traced.begin(),
             ingest_out.rtt_us_traced.end());
  const double updates_per_s =
      static_cast<double>(ingest_out.events) / ingest_out.wall_s;
  const double updates_per_cpu_s =
      static_cast<double>(ingest_out.events) / ingest_out.cpu_s;
  const double query_cpu_ms = Median(query_out.cpu_ms);
  const double peak_rss = PeakRssMb();
  report.Table("setup_s", setup_s.Value(), "s");
  report.Table("peak_rss_mb", peak_rss, "MB");
  report.Table("wire_bytes", static_cast<double>(epoch_bytes), "B");
  report.Table("ingest_updates_per_s", updates_per_s, "1/s");
  report.Table("ingest_rtt_us_p50", Percentile(rtt, 50), "us");
  report.Table("ingest_rtt_us_p99", Percentile(rtt, 99), "us");
  report.Table("ingest_frames", static_cast<double>(rtt.size()), "count");
  report.Table("query_ms_p50", Percentile(query_out.latency_ms, 50), "ms");
  report.Table("query_ms_p90", Percentile(query_out.latency_ms, 90), "ms");
  report.Table("ingest_updates_per_cpu_s", updates_per_cpu_s, "1/s");
  report.Table("query_cpu_ms_p50", query_cpu_ms, "ms");
  report.Table("queries", static_cast<double>(query_out.latency_ms.size()),
               "count");
  report.Table("checkpoints", static_cast<double>(query_out.checkpoint_ms.size()),
               "count");

  if (!options.trace) {
    report.Set("setup_s", setup_s.Value(), "s");
    report.Set("peak_rss_mb", peak_rss, "MB");
    report.Set("wire_bytes", static_cast<double>(epoch_bytes), "B");
    report.Set("answer_cpu_ms", query_cpu_ms, "ms");
    report.Set("updates_per_cpu_s", updates_per_cpu_s, "1/s");
    return report;
  }

  // ---- Traced run: per-layer replays on twins fed the same stream.
  const serve::StreamingDetectorOptions twin_options =
      TenantOptions(shape, options.seed);
  auto twin_or = serve::StreamingDetector::Create(twin_options);
  if (!twin_or.ok()) {
    report.Fail("twin: " + twin_or.status().ToString());
    return report;
  }
  std::unique_ptr<serve::StreamingDetector> twin = twin_or.MoveValue();
  Samples s;
  Status replayed = ReplayIngest(shape, options.seed, stream, warmup_epochs,
                                 twin.get(), &s);
  if (!replayed.ok()) {
    report.Fail("ingest replay: " + replayed.ToString());
    return report;
  }

  // Query path: parse, twin recovery (checked bit for bit against every
  // framed answer), and the server's whole handling of a query frame.
  const std::string text = QueryText(shape);
  std::vector<double> parse_us, recover_ms, handle_query_ms;
  for (int i = 0; i < 100; ++i) {
    Timer t;
    auto parsed = query::ParseQuery(text);
    parse_us.push_back(t.Us());
    if (!parsed.ok()) report.Fail("parse: " + parsed.status().ToString());
  }
  serve::StreamingService query_twin;
  Status added = query_twin.AddTenant(kTenant, twin_options);
  if (!added.ok()) report.Fail("query twin: " + added.ToString());
  serve::NetServer query_server(&query_twin);
  for (uint64_t e = 0; added.ok() && e <= warmup_epochs; ++e) {
    if (e > 0) {
      for (size_t b = 0; b < stream.keys.size(); ++b) {
        Status st = query_twin.Ingest(kTenant, stream.keys[b], stream.deltas[b]);
        if (!st.ok()) report.Fail("query twin ingest: " + st.ToString());
      }
    }
    auto reached = query_twin.AdvanceTo(kTenant, e);
    if (!reached.ok()) report.Fail("query twin advance");
  }
  auto query_frame = serve::EncodeQueryRequest(text);
  for (int i = 0; i < 3; ++i) {
    Timer t;
    auto answer = twin->QueryOutliers(shape.k);
    recover_ms.push_back(t.Ms());
    ++report.attempted;
    if (!answer.ok()) {
      report.Fail("twin query: " + answer.status().ToString());
      continue;
    }
    if (AnswerDigest(answer.Value()) != report.digest) {
      report.Fail("framed answer differs from the twin detector's");
    }
    if (query_frame.ok()) {
      Timer h;
      const std::string response = query_server.HandleFrame(query_frame.Value());
      handle_query_ms.push_back(h.Ms());
      auto view = dist::DecodeFrame(response);
      if (!view.ok() ||
          view.Value().kind !=
              static_cast<uint8_t>(serve::NetFrameKind::kQueryResult)) {
        report.Fail("twin server did not answer the query frame");
      }
    }
  }

  // Recovery internals on the twin's snapshot, each with a fresh Φ0 built
  // the way the tenant builds it.
  std::vector<RecoveryReplay> recoveries;
  const auto snapshot = twin->Snapshot();
  for (int i = 0; snapshot != nullptr && i < 2; ++i) {
    Timer build;
    const cs::MeasurementMatrix matrix(shape.m, shape.n, twin_options.seed,
                                       twin_options.cache_budget_bytes);
    const double build_ms = build.Ms();
    auto replay = ReplayRecovery(matrix, snapshot->y, shape.k);
    if (!replay.ok()) {
      report.Fail("recovery replay: " + replay.status().ToString());
      break;
    }
    recoveries.push_back(replay.MoveValue());
    recoveries.back().matrix_build_ms = build_ms;
  }
  std::vector<double> restore_ms;
  if (!query_out.last_checkpoint.empty()) {
    Timer t;
    auto restored =
        serve::RestoreDetector(query_out.last_checkpoint, twin_options);
    restore_ms.push_back(t.Ms());
    if (!restored.ok()) report.Fail("restore: " + restored.status().ToString());
  }
  auto obs_pct = TelemetryOverheadPct(shape, options.seed, stream);
  if (!obs_pct.ok()) report.Fail("telemetry twin: " + obs_pct.status().ToString());

  const double encode = Median(s.encode_us), handle = Median(s.handle_us),
               ingest = Median(s.ingest_us), scatter = Median(s.scatter_us),
               sketch = Median(s.sketch_us), fold = Median(s.fold_us);
  report.Set("serve.net.encode_us", encode, "us");
  report.Set("dist.wire.frame_decode_us", Median(s.decode_us), "us");
  report.Set("serve.net.handle_ingest_us", handle, "us");
  report.Set("serve.ingest_us", ingest, "us");
  report.Set("serve.net.server_overhead_us", handle - ingest, "us");
  report.Set("mapreduce.scatter_us", scatter, "us");
  report.Set("cs.sketch_batch_us", sketch, "us");
  report.Set("core.fold_us", fold, "us");
  report.Set("serve.ingest.other_us", ingest - scatter - sketch - fold, "us");
  report.Set("serve.publish_us", Median(s.publish_us), "us");
  report.Set("query.parse_us", Median(parse_us), "us");
  report.Set("serve.query.recover_ms", Median(recover_ms), "ms");
  report.Set("serve.net.handle_query_ms", Median(handle_query_ms), "ms");
  report.Set("serve.checkpoint.fetch_ms", Median(query_out.checkpoint_ms), "ms");
  report.Set("serve.checkpoint.bytes",
             static_cast<double>(query_out.checkpoint_bytes), "B");
  report.Set("serve.checkpoint.restore_ms", Median(restore_ms), "ms");
  report.Set("serve.net.frames",
             static_cast<double>(ingest_stats.frames_sent +
                                 query_stats.frames_sent),
             "count");
  report.Set("serve.net.bytes_sent",
             static_cast<double>(ingest_stats.bytes_sent + query_stats.bytes_sent),
             "B");
  report.Set("serve.net.bytes_received",
             static_cast<double>(ingest_stats.bytes_received +
                                 query_stats.bytes_received),
             "B");
  report.Set("serve.net.retries",
             static_cast<double>(ingest_stats.retries + query_stats.retries),
             "count");
  report.Set("serve.net.pushbacks",
             static_cast<double>(ingest_stats.pushbacks + query_stats.pushbacks),
             "count");
  report.Set("serve.query.late_ms_max", query_out.late_ms_max, "ms");
  SetRecoveryMetrics(recoveries, &report);
  report.Set("obs.overhead_pct", obs_pct.ok() ? obs_pct.Value() : 0.0, "%");

  // Ledgers: every sampled live frame / query, split by the replay medians.
  // What no replay covers is transport and waiting (unattributed).
  const double parse_ms = Median(parse_us) / 1e3;
  const double recover = Median(recover_ms);
  const double handle_q = Median(handle_query_ms);
  tracer->ForEachRoot("serve.ingest_frame", [&](int64_t root) {
    tracer->AddChild(root, "serve.net.encode", encode / 1e3);
    const int64_t h = tracer->AddChild(root, "serve.net.handle_ingest",
                                       handle / 1e3);
    const int64_t in = tracer->AddChild(h, "serve.ingest", ingest / 1e3);
    tracer->AddChild(in, "mapreduce.scatter", scatter / 1e3);
    tracer->AddChild(in, "cs.sketch_batch", sketch / 1e3);
    tracer->AddChild(in, "core.fold", fold / 1e3);
  });
  tracer->ForEachRoot("serve.query_op", [&](int64_t root) {
    const int64_t h =
        tracer->AddChild(root, "serve.net.handle_query", handle_q);
    tracer->AddChild(h, "query.parse", parse_ms);
    tracer->AddChild(h, "serve.query.recover", recover);
  });
  Ledger frames = tracer->LedgerOf("serve.ingest_frame");
  report.Set("unattributed_pct", frames.unattributed_pct(), "%");
  report.Set("trace_overhead_pct",
             OverheadPct(ingest_out.rtt_us_traced, ingest_out.rtt_us_untraced),
             "%");
  report.ledgers.push_back(std::move(frames));
  report.ledgers.push_back(tracer->LedgerOf("serve.query_op"));
  return report;
}

}  // namespace perfbench
