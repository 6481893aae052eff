#ifndef CSOD_DIST_WIRE_FORMAT_H_
#define CSOD_DIST_WIRE_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "cs/compressor.h"

namespace csod::dist {

/// \brief Binary wire format for what nodes actually transmit, and the one
/// module that knows how a payload is laid out.
///
/// Every message is one frame (little-endian):
///   [u32 magic][u8 kind][u64 count][payload][u64 xxhash-style checksum]
/// The checksum covers header + payload. Kinds 1–15 are dist payloads:
///  - 1, a *measurement* message: M 64-bit doubles (the CS protocol's y_l),
///  - 2, a *key-value* message: (32-bit key id, 64-bit value) pairs, the
///    96-bit tuples of the baselines (Section 6.1.2),
///  - 3, a DistributedOutlierDetector checkpoint (core/detector.h).
/// The serve layer claims 16+ (serve/net.h, serve/checkpoint.h).
///
/// Encoded sizes exceed the paper's idealized tuple counts only by the
/// fixed header, so CommStats keeps using the idealized sizes.
///
/// Non-finite payloads (NaN, ±Inf) are rejected at encode time: a sketch
/// is a sum of measurements, and one NaN would silently poison the global
/// aggregate at the coordinator. Rejecting on the sending side keeps the
/// corruption local to the node that produced it.
inline constexpr uint8_t kMeasurementFrameKind = 1;
inline constexpr uint8_t kKeyValuesFrameKind = 2;
inline constexpr uint8_t kDetectorCheckpointFrameKind = 3;

/// Serializes a measurement vector. InvalidArgument on non-finite entries.
Result<std::string> EncodeMeasurement(const std::vector<double>& y);

/// Parses a measurement message. InvalidArgument on any corruption.
Result<std::vector<double>> DecodeMeasurement(const std::string& bytes);

/// Serializes a sparse key-value slice (32-bit key ids). InvalidArgument
/// on keys that do not fit 32 bits (never silent truncation) and on
/// non-finite values.
Result<std::string> EncodeKeyValues(const cs::SparseSlice& slice);

/// Parses a key-value message. InvalidArgument on any corruption.
Result<cs::SparseSlice> DecodeKeyValues(const std::string& bytes);

/// Exact on-wire size of an encoded measurement of length m.
size_t MeasurementWireSize(size_t m);

/// Exact on-wire size of an encoded key-value slice with nnz entries.
size_t KeyValueWireSize(size_t nnz);

/// A validated view into a decoded frame. Borrows the frame's bytes: the
/// view is valid only while the decoded string is alive and unmodified.
struct FrameView {
  uint8_t kind = 0;
  /// The envelope's count field — element count by convention of the kind.
  uint64_t count = 0;
  const char* payload = nullptr;
  size_t payload_size = 0;
};

/// Wraps `payload` in a checksummed envelope of the given kind.
std::string EncodeFrame(uint8_t kind, uint64_t count, std::string_view payload);

/// Validates magic + checksum and returns a borrowed view of the payload.
/// The count is not checked against the payload (the unit is
/// kind-specific): kind handlers read it through PayloadReader::CheckCount.
/// Returns DataLoss on any corruption so transports can retry exactly the
/// torn-frame case.
Result<FrameView> DecodeFrame(const std::string& bytes);

/// Little-endian appenders for composing frame payloads.
void AppendU8(std::string* out, uint8_t v);
void AppendU32(std::string* out, uint32_t v);
void AppendU64(std::string* out, uint64_t v);
void AppendF64(std::string* out, double v);
/// A u32 length followed by the bytes (PayloadReader::Bytes' layout).
/// Callers keep `bytes` under 4 GiB.
void AppendBytes(std::string* out, std::string_view bytes);
/// A u32 count followed by the values (PayloadReader::U32List's layout).
void AppendU32List(std::string* out, const std::vector<uint32_t>& values);

/// \brief The one bounds-checked cursor over a frame payload.
///
/// Every read fails with InvalidArgument instead of running past the end:
/// once the outer checksum has passed, a short read means a malformed
/// payload, not bit rot. Counts that size an allocation go through
/// CheckCount (or Count), which divides the bytes that remain by the
/// smallest encoding of one element — never multiplies the count — so a
/// hostile count can neither wrap nor reach a reserve/resize.
class PayloadReader {
 public:
  PayloadReader(const char* data, size_t size) : p_(data), remaining_(size) {}
  explicit PayloadReader(const FrameView& frame)
      : PayloadReader(frame.payload, frame.payload_size) {}

  Status U8(uint8_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status F64(double* v);
  /// A u32 length, then that many bytes.
  Status Bytes(std::string* out);
  /// A u32 count (checked with a 4-byte unit), then that many u32s.
  Status U32List(std::vector<uint32_t>* out);

  /// InvalidArgument if `count` elements of at least `unit_bytes` bytes
  /// each cannot fit in the bytes that remain (`count > remaining /
  /// unit_bytes`). `unit_bytes` must be > 0.
  Status CheckCount(uint64_t count, size_t unit_bytes) const;
  /// Reads a u64 count and applies CheckCount to it.
  Status Count(uint64_t* count, size_t unit_bytes);
  /// Claims exactly `count * unit_bytes` bytes (after CheckCount) and
  /// returns where they start, for a caller that decodes a fixed-width
  /// array with one bounds check per message instead of per element.
  Result<const char*> Span(uint64_t count, size_t unit_bytes);

  /// InvalidArgument if any payload byte was left unread.
  Status ExpectEnd() const;

 private:
  Status Take(size_t bytes, const char** at);

  const char* p_;
  size_t remaining_;
};

}  // namespace csod::dist

#endif  // CSOD_DIST_WIRE_FORMAT_H_
