#ifndef CSOD_COMMON_DIGEST_H_
#define CSOD_COMMON_DIGEST_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace csod {

/// \brief 64-bit FNV-1a over raw bytes — the one digest of the tree: bench
/// output digests, test fingerprints and the Buggify section ids.
///
/// Multi-byte values are hashed in their in-memory (little-endian) byte
/// order, so a digest is a pure function of the values' bits.
class Fnv1a {
 public:
  /// The standard 64-bit FNV offset basis.
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;

  explicit Fnv1a(uint64_t basis = kOffsetBasis) : hash_(basis) {}

  void Add(const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddU64(uint64_t v) { Add(&v, sizeof(v)); }
  void AddDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    AddU64(bits);
  }
  void AddString(std::string_view s) { Add(s.data(), s.size()); }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_;
};

}  // namespace csod

#endif  // CSOD_COMMON_DIGEST_H_
