// Property-based round-trip tests (ISSUE 4 satellite) for the binary wire
// format and the telemetry JSON snapshot:
//  - hundreds of seeded random payloads survive encode → decode → encode
//    bit-identically (the second encoding equals the first byte-for-byte,
//    which subsumes value equality including -0.0 and denormals),
//  - empty payloads round-trip,
//  - non-finite payload entries are rejected at encode time for both
//    message kinds (a NaN must never leave the node that produced it),
//  - the maximum representable 32-bit key id round-trips,
//  - two identical seeded protocol runs produce byte-identical
//    deterministic telemetry snapshots (the double-run diff contract the
//    bench scripts rely on).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cs/compressor.h"
#include "dist/cs_protocol.h"
#include "dist/wire_format.h"
#include "obs/telemetry.h"
#include "workload/generators.h"
#include "workload/partitioner.h"
#include "wire_mutant.h"

namespace csod::dist {
namespace {

// Random finite doubles spanning many magnitudes, signs, and the tricky
// special values (±0, denormals, extreme normals).
class DoubleFuzzer {
 public:
  explicit DoubleFuzzer(uint64_t seed) : rng_(seed) {}

  double Next() {
    switch (rng_() % 8) {
      case 0:
        return 0.0;
      case 1:
        return -0.0;
      case 2:
        return std::numeric_limits<double>::denorm_min() *
               static_cast<double>(1 + rng_() % 1000);
      case 3:
        return std::numeric_limits<double>::max() /
               static_cast<double>(1 + rng_() % 1000);
      case 4:
        return std::numeric_limits<double>::lowest() /
               static_cast<double>(1 + rng_() % 1000);
      default: {
        std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
        std::uniform_int_distribution<int> exponent(-300, 300);
        return std::ldexp(mantissa(rng_), exponent(rng_));
      }
    }
  }

  std::mt19937_64& rng() { return rng_; }

 private:
  std::mt19937_64 rng_;
};

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(WirePropertyTest, MeasurementEncodeDecodeEncodeIsBitIdentical) {
  DoubleFuzzer fuzz(0xC50Du);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t m = fuzz.rng()() % 64;  // Includes the empty message.
    std::vector<double> y(m);
    for (double& v : y) v = fuzz.Next();

    auto encoded = EncodeMeasurement(y);
    ASSERT_TRUE(encoded.ok());
    EXPECT_EQ(encoded.Value().size(), MeasurementWireSize(m));

    auto decoded = DecodeMeasurement(encoded.Value());
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.Value().size(), m);
    for (size_t i = 0; i < m; ++i) {
      EXPECT_EQ(Bits(decoded.Value()[i]), Bits(y[i])) << "row " << i;
    }

    auto reencoded = EncodeMeasurement(decoded.Value());
    ASSERT_TRUE(reencoded.ok());
    EXPECT_EQ(reencoded.Value(), encoded.Value());
  }
}

TEST(WirePropertyTest, KeyValueEncodeDecodeEncodeIsBitIdentical) {
  DoubleFuzzer fuzz(0xBEEFu);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const size_t nnz = fuzz.rng()() % 48;  // Includes the empty slice.
    cs::SparseSlice slice;
    slice.indices.resize(nnz);
    slice.values.resize(nnz);
    for (size_t i = 0; i < nnz; ++i) {
      slice.indices[i] = fuzz.rng()() % (uint64_t{UINT32_MAX} + 1);
      slice.values[i] = fuzz.Next();
    }

    auto encoded = EncodeKeyValues(slice);
    ASSERT_TRUE(encoded.ok());
    EXPECT_EQ(encoded.Value().size(), KeyValueWireSize(nnz));

    auto decoded = DecodeKeyValues(encoded.Value());
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded.Value().nnz(), nnz);
    for (size_t i = 0; i < nnz; ++i) {
      EXPECT_EQ(decoded.Value().indices[i], slice.indices[i]);
      EXPECT_EQ(Bits(decoded.Value().values[i]), Bits(slice.values[i]));
    }

    auto reencoded = EncodeKeyValues(decoded.Value());
    ASSERT_TRUE(reencoded.ok());
    EXPECT_EQ(reencoded.Value(), encoded.Value());
  }
}

TEST(WirePropertyTest, MaxKeyIdRoundTrips) {
  cs::SparseSlice slice;
  slice.indices = {0, UINT32_MAX};
  slice.values = {1.0, -2.5};
  auto encoded = EncodeKeyValues(slice);
  ASSERT_TRUE(encoded.ok());
  auto decoded = DecodeKeyValues(encoded.Value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.Value().indices[1], static_cast<size_t>(UINT32_MAX));

  // One past the 32-bit key space is rejected, not truncated — and with
  // InvalidArgument (a caller bug), never OutOfRange or a silent wrap.
  slice.indices[1] = uint64_t{UINT32_MAX} + 1;
  auto rejected = EncodeKeyValues(slice);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // Same verdict far past the boundary (the top size_t bit set).
  slice.indices[1] = size_t{1} << 63;
  rejected = EncodeKeyValues(slice);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(WirePropertyTest, NonFinitePayloadsRejectedAtEncodeTime) {
  const double bad[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (double v : bad) {
    std::vector<double> y = {1.0, v, 3.0};
    auto encoded = EncodeMeasurement(y);
    EXPECT_FALSE(encoded.ok());
    EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);

    cs::SparseSlice slice;
    slice.indices = {7, 8};
    slice.values = {2.0, v};
    auto kv = EncodeKeyValues(slice);
    EXPECT_FALSE(kv.ok());
    EXPECT_EQ(kv.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(WirePropertyTest, RandomCorruptionNeverDecodesSilently) {
  // Flipping any single byte must be caught by the checksum (or a size /
  // magic check) — decode never "succeeds" with different content.
  DoubleFuzzer fuzz(0xFACEu);
  std::vector<double> y(9);
  for (double& v : y) v = fuzz.Next();
  const std::string good = EncodeMeasurement(y).Value();
  for (int trial = 0; trial < 100; ++trial) {
    std::string bad = good;
    const size_t pos = fuzz.rng()() % bad.size();
    const char flip = static_cast<char>(1 + fuzz.rng()() % 255);
    bad[pos] = static_cast<char>(bad[pos] ^ flip);
    auto decoded = DecodeMeasurement(bad);
    if (decoded.ok()) {
      // Only acceptable if the flip somehow reproduced the original.
      EXPECT_EQ(bad, good);
    }
  }
}

// Checksum-valid envelopes whose count times the element size wraps
// size_t to exactly the payload length: the count must be checked by
// division before anything is sized from it, or these allocate 2^61+
// elements and abort.
TEST(WirePropertyTest, WrappedMeasurementCountIsRejected) {
  const std::string wrapped = EncodeFrame(1, uint64_t{1} << 61, "");
  ASSERT_EQ(wrapped.size(), 21u);
  EXPECT_EQ(DecodeMeasurement(wrapped).status().code(),
            StatusCode::kInvalidArgument);
  // 8 · (2^61 + 1) wraps to the 8 payload bytes actually present.
  const std::string one_over =
      EncodeFrame(1, (uint64_t{1} << 61) + 1, std::string(8, '\0'));
  EXPECT_EQ(DecodeMeasurement(one_over).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(WirePropertyTest, WrappedKeyValueCountIsRejected) {
  // 12 · 2^62 = 3 · 2^64 wraps to 0.
  const std::string wrapped = EncodeFrame(2, uint64_t{1} << 62, "");
  EXPECT_EQ(DecodeKeyValues(wrapped).status().code(),
            StatusCode::kInvalidArgument);
  // The payload reader applies the same rule to counts read in-band.
  std::string payload;
  AppendU64(&payload, uint64_t{1} << 62);
  PayloadReader reader(payload.data(), payload.size());
  uint64_t count = 0;
  EXPECT_EQ(reader.Count(&count, 12).code(), StatusCode::kInvalidArgument);
}

// Seeded fuzz past the checksum: mutants of valid messages, resealed so
// they reach the payload decoder, are accepted only when self-consistent
// and otherwise refused with a Status — never an abort.
TEST(WirePropertyTest, ResealedMutantsNeverAbortDecoders) {
  DoubleFuzzer fuzz(0x5EA1u);
  std::vector<double> y(12);
  for (double& v : y) v = fuzz.Next();
  cs::SparseSlice slice;
  for (uint32_t i = 0; i < 9; ++i) {
    slice.indices.push_back(i * 977);
    slice.values.push_back(fuzz.Next());
  }
  const std::string measurement = EncodeMeasurement(y).MoveValue();
  const std::string kv = EncodeKeyValues(slice).MoveValue();
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string mutant =
        testing::ResealedMutant(trial % 2 == 0 ? measurement : kv, &fuzz.rng());
    const FrameView view = DecodeFrame(mutant).MoveValue();
    const Result<std::vector<double>> m = DecodeMeasurement(mutant);
    if (m.ok()) {
      EXPECT_EQ(m.Value().size() * 8, view.payload_size);
    }
    const Result<cs::SparseSlice> s = DecodeKeyValues(mutant);
    if (s.ok()) {
      EXPECT_EQ(s.Value().nnz() * 12, view.payload_size);
    }
  }
}

// Runs the CS protocol over a freshly built seeded workload and returns
// the deterministic telemetry snapshot.
std::string SeededRunSnapshot(uint64_t seed) {
  workload::MajorityDominatedOptions gen;
  gen.n = 500;
  gen.sparsity = 12;
  gen.seed = seed;
  auto global = workload::GenerateMajorityDominated(gen).Value();

  workload::PartitionOptions part;
  part.num_nodes = 6;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.cancellation_noise = 2000.0;
  part.seed = seed + 1;
  auto slices = workload::PartitionAdditive(global, part).Value();
  Cluster cluster(gen.n);
  for (auto& slice : slices) EXPECT_TRUE(cluster.AddNode(std::move(slice)).ok());

  CsProtocolOptions options;
  options.m = 150;
  options.seed = 40 + seed;
  options.iterations = gen.sparsity + 4;
  CsOutlierProtocol protocol(options);
  obs::Telemetry telemetry;
  protocol.set_telemetry(&telemetry);
  CommStats comm;
  EXPECT_TRUE(protocol.Run(cluster, 5, &comm).ok());
  return telemetry.SnapshotJson(/*deterministic=*/true);
}

TEST(WirePropertyTest, TelemetrySnapshotByteIdenticalAcrossSeededRuns) {
  const std::string first = SeededRunSnapshot(17);
  const std::string second = SeededRunSnapshot(17);
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
  // The snapshot is not vacuous: it carries the protocol's counters.
  EXPECT_NE(first.find("comm.bytes.measurements"), std::string::npos);
  EXPECT_NE(first.find("bomp.recover"), std::string::npos);
  // A different seed produces different recorded values somewhere.
  EXPECT_NE(SeededRunSnapshot(18), first);
}

}  // namespace
}  // namespace csod::dist
