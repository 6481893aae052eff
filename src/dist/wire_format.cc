#include "dist/wire_format.h"

#include <cmath>
#include <cstring>

#include "common/random.h"

namespace csod::dist {

namespace {

constexpr uint32_t kMagic = 0x43534f44;  // "CSOD"
constexpr size_t kHeaderSize = 4 + 1 + 8;
constexpr size_t kChecksumSize = 8;

template <typename T>
T Load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void Append(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

// Rolling SplitMix-based checksum over a byte range (not cryptographic;
// detects corruption).
uint64_t Checksum(const char* data, size_t size) {
  uint64_t h = 0x5bd1e995u ^ size;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    h = HashCombine(h, Load<uint64_t>(data + i));
  }
  uint64_t tail = 0;
  if (i < size) {
    std::memcpy(&tail, data + i, size - i);
    h = HashCombine(h, tail);
  }
  return SplitMix64(h);
}

// Frame assembly in place: header, then the caller appends the payload,
// then FinishFrame seals it. EncodeFrame and the two message encoders all
// build through these, so the envelope is written in one place.
std::string BeginFrame(uint8_t kind, uint64_t count, size_t payload_size) {
  std::string out;
  out.reserve(FrameWireSize(payload_size));
  AppendU32(&out, kMagic);
  AppendU8(&out, kind);
  AppendU64(&out, count);
  return out;
}

void FinishFrame(std::string* out) {
  AppendU64(out, Checksum(out->data(), out->size()));
}

// Validates magic + checksum, reporting corruption with `code`.
Result<FrameView> ParseFrame(const std::string& bytes, StatusCode code) {
  if (bytes.size() < kHeaderSize + kChecksumSize) {
    return Status(code, "wire: frame too short");
  }
  const char* p = bytes.data();
  if (Load<uint32_t>(p) != kMagic) {
    return Status(code, "wire: bad frame magic");
  }
  const uint64_t stored = Load<uint64_t>(p + bytes.size() - kChecksumSize);
  if (Checksum(p, bytes.size() - kChecksumSize) != stored) {
    return Status(code, "wire: frame checksum mismatch");
  }
  FrameView view;
  view.kind = static_cast<uint8_t>(p[4]);
  view.count = Load<uint64_t>(p + 5);
  view.payload = p + kHeaderSize;
  view.payload_size = bytes.size() - kHeaderSize - kChecksumSize;
  return view;
}

// Opens a dist message of `kind`. Every corruption is InvalidArgument: an
// embedded message never carries the transport's DataLoss retry signal.
Result<FrameView> OpenMessage(const std::string& bytes, uint8_t kind) {
  CSOD_ASSIGN_OR_RETURN(FrameView frame,
                        ParseFrame(bytes, StatusCode::kInvalidArgument));
  if (frame.kind != kind) {
    return Status::InvalidArgument("wire: unexpected message kind");
  }
  return frame;
}

}  // namespace

void AppendU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}
void AppendU32(std::string* out, uint32_t v) { Append(out, v); }
void AppendU64(std::string* out, uint64_t v) { Append(out, v); }
void AppendF64(std::string* out, double v) { Append(out, v); }

void AppendBytes(std::string* out, std::string_view bytes) {
  AppendU32(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes.data(), bytes.size());
}

void AppendU32List(std::string* out, const std::vector<uint32_t>& values) {
  AppendU32(out, static_cast<uint32_t>(values.size()));
  for (uint32_t v : values) AppendU32(out, v);
}

Status PayloadReader::Take(size_t bytes, const char** at) {
  if (remaining_ < bytes) {
    return Status::InvalidArgument("wire: truncated payload field");
  }
  *at = p_;
  p_ += bytes;
  remaining_ -= bytes;
  return Status::OK();
}

Status PayloadReader::U8(uint8_t* v) {
  const char* at = nullptr;
  CSOD_RETURN_NOT_OK(Take(1, &at));
  *v = static_cast<uint8_t>(*at);
  return Status::OK();
}

Status PayloadReader::U32(uint32_t* v) {
  const char* at = nullptr;
  CSOD_RETURN_NOT_OK(Take(4, &at));
  *v = Load<uint32_t>(at);
  return Status::OK();
}

Status PayloadReader::U64(uint64_t* v) {
  const char* at = nullptr;
  CSOD_RETURN_NOT_OK(Take(8, &at));
  *v = Load<uint64_t>(at);
  return Status::OK();
}

Status PayloadReader::F64(double* v) {
  const char* at = nullptr;
  CSOD_RETURN_NOT_OK(Take(8, &at));
  *v = Load<double>(at);
  return Status::OK();
}

Status PayloadReader::Bytes(std::string* out) {
  uint32_t len = 0;
  CSOD_RETURN_NOT_OK(U32(&len));
  const char* at = nullptr;
  CSOD_RETURN_NOT_OK(Take(len, &at));
  out->assign(at, len);
  return Status::OK();
}

Status PayloadReader::U32List(std::vector<uint32_t>* out) {
  uint32_t count = 0;
  CSOD_RETURN_NOT_OK(U32(&count));
  CSOD_ASSIGN_OR_RETURN(const char* values, Span(count, 4));
  out->resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    (*out)[i] = Load<uint32_t>(values + 4 * size_t{i});
  }
  return Status::OK();
}

Status PayloadReader::CheckCount(uint64_t count, size_t unit_bytes) const {
  if (count > remaining_ / unit_bytes) {
    return Status::InvalidArgument(
        "wire: count " + std::to_string(count) + " of " +
        std::to_string(unit_bytes) + "-byte elements exceeds the " +
        std::to_string(remaining_) + " payload bytes left");
  }
  return Status::OK();
}

Status PayloadReader::Count(uint64_t* count, size_t unit_bytes) {
  CSOD_RETURN_NOT_OK(U64(count));
  return CheckCount(*count, unit_bytes);
}

Result<const char*> PayloadReader::Span(uint64_t count, size_t unit_bytes) {
  CSOD_RETURN_NOT_OK(CheckCount(count, unit_bytes));
  const char* at = nullptr;
  CSOD_RETURN_NOT_OK(Take(static_cast<size_t>(count) * unit_bytes, &at));
  return at;
}

Status PayloadReader::ExpectEnd() const {
  if (remaining_ != 0) {
    return Status::InvalidArgument("wire: " + std::to_string(remaining_) +
                                   " trailing payload bytes");
  }
  return Status::OK();
}

std::string EncodeFrame(uint8_t kind, uint64_t count,
                        std::string_view payload) {
  std::string out = BeginFrame(kind, count, payload.size());
  out.append(payload.data(), payload.size());
  FinishFrame(&out);
  return out;
}

Result<FrameView> DecodeFrame(const std::string& bytes) {
  return ParseFrame(bytes, StatusCode::kDataLoss);
}

size_t FrameWireSize(size_t payload_size) {
  return kHeaderSize + payload_size + kChecksumSize;
}

Result<std::string> EncodeMeasurement(const std::vector<double>& y) {
  for (size_t i = 0; i < y.size(); ++i) {
    if (!std::isfinite(y[i])) {
      return Status::InvalidArgument(
          "wire: non-finite measurement entry at row " + std::to_string(i));
    }
  }
  std::string out = BeginFrame(kMeasurementFrameKind, y.size(), 8 * y.size());
  for (double v : y) AppendF64(&out, v);
  FinishFrame(&out);
  return out;
}

Result<std::vector<double>> DecodeMeasurement(const std::string& bytes) {
  CSOD_ASSIGN_OR_RETURN(const FrameView frame,
                        OpenMessage(bytes, kMeasurementFrameKind));
  PayloadReader reader(frame);
  CSOD_ASSIGN_OR_RETURN(const char* values, reader.Span(frame.count, 8));
  CSOD_RETURN_NOT_OK(reader.ExpectEnd());
  std::vector<double> y(frame.count);
  for (uint64_t i = 0; i < frame.count; ++i) y[i] = Load<double>(values + 8 * i);
  return y;
}

Result<std::string> EncodeKeyValues(const cs::SparseSlice& slice) {
  if (slice.indices.size() != slice.values.size()) {
    return Status::InvalidArgument("wire: slice index/value size mismatch");
  }
  for (size_t idx : slice.indices) {
    if (idx > UINT32_MAX) {
      return Status::InvalidArgument("wire: key id " + std::to_string(idx) +
                                     " exceeds 32-bit key space");
    }
  }
  for (size_t i = 0; i < slice.values.size(); ++i) {
    if (!std::isfinite(slice.values[i])) {
      return Status::InvalidArgument(
          "wire: non-finite value for key " +
          std::to_string(slice.indices[i]));
    }
  }
  std::string out =
      BeginFrame(kKeyValuesFrameKind, slice.nnz(), 12 * slice.nnz());
  for (size_t i = 0; i < slice.nnz(); ++i) {
    AppendU32(&out, static_cast<uint32_t>(slice.indices[i]));
    AppendF64(&out, slice.values[i]);
  }
  FinishFrame(&out);
  return out;
}

Result<cs::SparseSlice> DecodeKeyValues(const std::string& bytes) {
  CSOD_ASSIGN_OR_RETURN(const FrameView frame,
                        OpenMessage(bytes, kKeyValuesFrameKind));
  PayloadReader reader(frame);
  CSOD_ASSIGN_OR_RETURN(const char* pairs, reader.Span(frame.count, 12));
  CSOD_RETURN_NOT_OK(reader.ExpectEnd());
  cs::SparseSlice slice;
  slice.indices.resize(frame.count);
  slice.values.resize(frame.count);
  for (uint64_t i = 0; i < frame.count; ++i) {
    slice.indices[i] = Load<uint32_t>(pairs + 12 * i);
    slice.values[i] = Load<double>(pairs + 12 * i + 4);
  }
  return slice;
}

size_t MeasurementWireSize(size_t m) {
  return kHeaderSize + 8 * m + kChecksumSize;
}

size_t KeyValueWireSize(size_t nnz) {
  return kHeaderSize + 12 * nnz + kChecksumSize;
}

}  // namespace csod::dist
