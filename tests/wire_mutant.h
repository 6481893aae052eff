// Seeded mutants of a valid wire frame that still carry a valid checksum.
// A raw byte flip dies at the envelope checksum; a resealed mutant reaches
// the payload decoder, which is where hostile counts and lengths live.
#ifndef CSOD_TESTS_WIRE_MUTANT_H_
#define CSOD_TESTS_WIRE_MUTANT_H_

#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <string>

#include "dist/wire_format.h"

namespace csod::testing {

inline std::string ResealedMutant(const std::string& frame,
                                  std::mt19937_64* rng) {
  const dist::FrameView view = dist::DecodeFrame(frame).MoveValue();
  std::string payload(view.payload, view.payload_size);
  uint64_t count = view.count;
  static constexpr uint64_t kHostile[] = {
      0,          1,          0x7fffffffu,          0xffffffffu,
      1ULL << 32, 1ULL << 61, 1ULL << 62,           ~0ULL};
  const uint64_t hostile = (*rng)() % 4 == 0
                               ? (*rng)()
                               : kHostile[(*rng)() % std::size(kHostile)];
  switch ((*rng)() % 5) {
    case 0:  // Flip one to four bytes.
      for (uint64_t i = 1 + (*rng)() % 4; i > 0 && !payload.empty(); --i) {
        payload[(*rng)() % payload.size()] ^=
            static_cast<char>(1 + (*rng)() % 255);
      }
      break;
    case 1: {  // A hostile u32 or u64 at any offset: counts, lengths, sizes.
      const size_t width = (*rng)() % 2 == 0 ? 4 : 8;
      if (payload.size() >= width) {
        std::memcpy(payload.data() + (*rng)() % (payload.size() - width + 1),
                    &hostile, width);
      }
      break;
    }
    case 2:  // A hostile envelope count.
      count = hostile;
      break;
    case 3:  // One byte past every small enum (matrix/window kinds, flags).
      if (!payload.empty()) {
        payload[(*rng)() % payload.size()] =
            static_cast<char>(2 + (*rng)() % 254);
      }
      break;
    default:  // Truncated payload.
      payload.resize((*rng)() % (payload.size() + 1));
  }
  return dist::EncodeFrame(view.kind, count, payload);
}

}  // namespace csod::testing

#endif  // CSOD_TESTS_WIRE_MUTANT_H_
