#include "common/simd.h"

#include <atomic>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define CSOD_SIMD_X86 1
#include <immintrin.h>
#else
#define CSOD_SIMD_X86 0
#endif

namespace csod::simd {

namespace {

// ---------------------------------------------------------------------------
// Portable kernels. The 8-lane split in DotPortable is the canonical
// summation tree; every other implementation must reproduce it bit-for-bit.
// ---------------------------------------------------------------------------

double DotPortable(const double* a, const double* b, size_t n) {
  double lane[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    lane[0] += a[i] * b[i];
    lane[1] += a[i + 1] * b[i + 1];
    lane[2] += a[i + 2] * b[i + 2];
    lane[3] += a[i + 3] * b[i + 3];
    lane[4] += a[i + 4] * b[i + 4];
    lane[5] += a[i + 5] * b[i + 5];
    lane[6] += a[i + 6] * b[i + 6];
    lane[7] += a[i + 7] * b[i + 7];
  }
  // Tail elements continue the i mod 8 lane assignment.
  for (size_t l = 0; i < n; ++i, ++l) lane[l] += a[i] * b[i];
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

void Dot4Portable(const double* c0, const double* c1, const double* c2,
                  const double* c3, const double* r, size_t n, double out[4]) {
  // Four independent canonical dots; the AVX2 path fuses the r loads but
  // the per-column arithmetic — and so the bits — are the same.
  out[0] = DotPortable(c0, r, n);
  out[1] = DotPortable(c1, r, n);
  out[2] = DotPortable(c2, r, n);
  out[3] = DotPortable(c3, r, n);
}

void AxpyPortable(double* acc, const double* col, double x, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += col[i] * x;
}

void Axpy4Portable(double* acc, const double* c0, double x0, const double* c1,
                   double x1, const double* c2, double x2, const double* c3,
                   double x3, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double t = acc[i];
    t += c0[i] * x0;
    t += c1[i] * x1;
    t += c2[i] * x2;
    t += c3[i] * x3;
    acc[i] = t;
  }
}

void Axpy8Portable(double* acc, const double* const cols[8],
                   const double xs[8], size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double t = acc[i];
    for (size_t k = 0; k < 8; ++k) t += cols[k][i] * xs[k];
    acc[i] = t;
  }
}

void AddPortable(double* acc, const double* src, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += src[i];
}

void Add4Portable(double* acc, const double* s0, const double* s1,
                  const double* s2, const double* s3, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double t = acc[i];
    t += s0[i];
    t += s1[i];
    t += s2[i];
    t += s3[i];
    acc[i] = t;
  }
}

void ScalePortable(double* v, double s, size_t n) {
  for (size_t i = 0; i < n; ++i) v[i] *= s;
}

inline uint64_t SignBit(const uint64_t* signs, size_t i) {
  return (signs[i >> 6] >> (i & 63)) & 1;
}

void SignedAddPortable(double* acc, const uint64_t* signs, double v,
                       size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += FlipSign(v, SignBit(signs, i));
}

void SignedAdd8Portable(double* acc, const uint64_t* const signs[8],
                        const double vs[8], size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double t = acc[i];
    for (size_t k = 0; k < 8; ++k) t += FlipSign(vs[k], SignBit(signs[k], i));
    acc[i] = t;
  }
}

#if CSOD_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 kernels. target("avx2") without "fma": the compiler cannot contract
// the mul/add pairs below into FMAs, which keeps every rounding step — and
// so every bit — identical to the portable kernels above.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) double DotAvx2(const double* a,
                                               const double* b, size_t n) {
  // acc0 holds lanes 0..3, acc1 lanes 4..7 of the canonical split.
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = _mm256_add_pd(
        acc0, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                             _mm256_loadu_pd(b + i + 4)));
  }
  double lane[8];
  _mm256_storeu_pd(lane, acc0);
  _mm256_storeu_pd(lane + 4, acc1);
  for (size_t l = 0; i < n; ++i, ++l) lane[l] += a[i] * b[i];
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

__attribute__((target("avx2"))) void Dot4Avx2(const double* c0,
                                              const double* c1,
                                              const double* c2,
                                              const double* c3,
                                              const double* r, size_t n,
                                              double out[4]) {
  __m256d a00 = _mm256_setzero_pd(), a01 = _mm256_setzero_pd();
  __m256d a10 = _mm256_setzero_pd(), a11 = _mm256_setzero_pd();
  __m256d a20 = _mm256_setzero_pd(), a21 = _mm256_setzero_pd();
  __m256d a30 = _mm256_setzero_pd(), a31 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d r0 = _mm256_loadu_pd(r + i);
    const __m256d r1 = _mm256_loadu_pd(r + i + 4);
    a00 = _mm256_add_pd(a00, _mm256_mul_pd(_mm256_loadu_pd(c0 + i), r0));
    a01 = _mm256_add_pd(a01, _mm256_mul_pd(_mm256_loadu_pd(c0 + i + 4), r1));
    a10 = _mm256_add_pd(a10, _mm256_mul_pd(_mm256_loadu_pd(c1 + i), r0));
    a11 = _mm256_add_pd(a11, _mm256_mul_pd(_mm256_loadu_pd(c1 + i + 4), r1));
    a20 = _mm256_add_pd(a20, _mm256_mul_pd(_mm256_loadu_pd(c2 + i), r0));
    a21 = _mm256_add_pd(a21, _mm256_mul_pd(_mm256_loadu_pd(c2 + i + 4), r1));
    a30 = _mm256_add_pd(a30, _mm256_mul_pd(_mm256_loadu_pd(c3 + i), r0));
    a31 = _mm256_add_pd(a31, _mm256_mul_pd(_mm256_loadu_pd(c3 + i + 4), r1));
  }
  const __m256d* accs0[4] = {&a00, &a10, &a20, &a30};
  const __m256d* accs1[4] = {&a01, &a11, &a21, &a31};
  const double* cols[4] = {c0, c1, c2, c3};
  for (size_t k = 0; k < 4; ++k) {
    double lane[8];
    _mm256_storeu_pd(lane, *accs0[k]);
    _mm256_storeu_pd(lane + 4, *accs1[k]);
    size_t j = i;
    for (size_t l = 0; j < n; ++j, ++l) lane[l] += cols[k][j] * r[j];
    out[k] = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
             ((lane[4] + lane[5]) + (lane[6] + lane[7]));
  }
}

__attribute__((target("avx2"))) void AxpyAvx2(double* acc, const double* col,
                                              double x, size_t n) {
  const __m256d vx = _mm256_set1_pd(x);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d t = _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                    _mm256_mul_pd(_mm256_loadu_pd(col + i), vx));
    _mm256_storeu_pd(acc + i, t);
  }
  for (; i < n; ++i) acc[i] += col[i] * x;
}

__attribute__((target("avx2"))) void Axpy4Avx2(double* acc, const double* c0,
                                               double x0, const double* c1,
                                               double x1, const double* c2,
                                               double x2, const double* c3,
                                               double x3, size_t n) {
  const __m256d v0 = _mm256_set1_pd(x0);
  const __m256d v1 = _mm256_set1_pd(x1);
  const __m256d v2 = _mm256_set1_pd(x2);
  const __m256d v3 = _mm256_set1_pd(x3);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d t = _mm256_loadu_pd(acc + i);
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(c0 + i), v0));
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(c1 + i), v1));
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(c2 + i), v2));
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(c3 + i), v3));
    _mm256_storeu_pd(acc + i, t);
  }
  for (; i < n; ++i) {
    double t = acc[i];
    t += c0[i] * x0;
    t += c1[i] * x1;
    t += c2[i] * x2;
    t += c3[i] * x3;
    acc[i] = t;
  }
}

__attribute__((target("avx2"))) void Axpy8Avx2(double* acc,
                                               const double* const cols[8],
                                               const double xs[8], size_t n) {
  // Eight broadcast coefficients stay resident; each 4-element group of acc
  // folds the eight streams in order, reading all eight columns in the same
  // iteration — eight concurrent load streams for the memory system.
  const __m256d v0 = _mm256_set1_pd(xs[0]);
  const __m256d v1 = _mm256_set1_pd(xs[1]);
  const __m256d v2 = _mm256_set1_pd(xs[2]);
  const __m256d v3 = _mm256_set1_pd(xs[3]);
  const __m256d v4 = _mm256_set1_pd(xs[4]);
  const __m256d v5 = _mm256_set1_pd(xs[5]);
  const __m256d v6 = _mm256_set1_pd(xs[6]);
  const __m256d v7 = _mm256_set1_pd(xs[7]);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d t = _mm256_loadu_pd(acc + i);
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(cols[0] + i), v0));
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(cols[1] + i), v1));
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(cols[2] + i), v2));
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(cols[3] + i), v3));
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(cols[4] + i), v4));
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(cols[5] + i), v5));
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(cols[6] + i), v6));
    t = _mm256_add_pd(t, _mm256_mul_pd(_mm256_loadu_pd(cols[7] + i), v7));
    _mm256_storeu_pd(acc + i, t);
  }
  for (; i < n; ++i) {
    double t = acc[i];
    for (size_t k = 0; k < 8; ++k) t += cols[k][i] * xs[k];
    acc[i] = t;
  }
}

__attribute__((target("avx2"))) void AddAvx2(double* acc, const double* src,
                                             size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                            _mm256_loadu_pd(src + i)));
  }
  for (; i < n; ++i) acc[i] += src[i];
}

__attribute__((target("avx2"))) void Add4Avx2(double* acc, const double* s0,
                                              const double* s1,
                                              const double* s2,
                                              const double* s3, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d t = _mm256_loadu_pd(acc + i);
    t = _mm256_add_pd(t, _mm256_loadu_pd(s0 + i));
    t = _mm256_add_pd(t, _mm256_loadu_pd(s1 + i));
    t = _mm256_add_pd(t, _mm256_loadu_pd(s2 + i));
    t = _mm256_add_pd(t, _mm256_loadu_pd(s3 + i));
    _mm256_storeu_pd(acc + i, t);
  }
  for (; i < n; ++i) {
    double t = acc[i];
    t += s0[i];
    t += s1[i];
    t += s2[i];
    t += s3[i];
    acc[i] = t;
  }
}

__attribute__((target("avx2"))) void ScaleAvx2(double* v, double s, size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_mul_pd(_mm256_loadu_pd(v + i), vs));
  }
  for (; i < n; ++i) v[i] *= s;
}

// Row r of the table holds, in lane l, the IEEE sign bit iff bit l of the
// nibble r is set: XOR-ing a broadcast v with row r yields the four signed
// copies (±v) of rows 4q..4q+3 whose sign nibble is r.
alignas(32) constexpr uint64_t kNibbleSigns[16][4] = {
#define CSOD_SIGN_LANE(r, l) (((r) >> (l)) & 1 ? 0x8000000000000000ULL : 0)
#define CSOD_SIGN_ROW(r)                                         \
  {CSOD_SIGN_LANE(r, 0), CSOD_SIGN_LANE(r, 1), CSOD_SIGN_LANE(r, 2), \
   CSOD_SIGN_LANE(r, 3)}
    CSOD_SIGN_ROW(0),  CSOD_SIGN_ROW(1),  CSOD_SIGN_ROW(2),  CSOD_SIGN_ROW(3),
    CSOD_SIGN_ROW(4),  CSOD_SIGN_ROW(5),  CSOD_SIGN_ROW(6),  CSOD_SIGN_ROW(7),
    CSOD_SIGN_ROW(8),  CSOD_SIGN_ROW(9),  CSOD_SIGN_ROW(10), CSOD_SIGN_ROW(11),
    CSOD_SIGN_ROW(12), CSOD_SIGN_ROW(13), CSOD_SIGN_ROW(14), CSOD_SIGN_ROW(15),
#undef CSOD_SIGN_ROW
#undef CSOD_SIGN_LANE
};

__attribute__((target("avx2"))) inline __m256d SignedCopies(__m256d v,
                                                            uint64_t nibble) {
  return _mm256_xor_pd(
      v, _mm256_load_pd(reinterpret_cast<const double*>(kNibbleSigns[nibble])));
}

__attribute__((target("avx2"))) void SignedAddAvx2(double* acc,
                                                   const uint64_t* signs,
                                                   double v, size_t n) {
  const __m256d vv = _mm256_set1_pd(v);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint64_t nibble = (signs[i >> 6] >> (i & 63)) & 15;
    _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i),
                                            SignedCopies(vv, nibble)));
  }
  for (; i < n; ++i) acc[i] += FlipSign(v, SignBit(signs, i));
}

__attribute__((target("avx2"))) void SignedAdd8Avx2(
    double* acc, const uint64_t* const signs[8], const double vs[8],
    size_t n) {
  __m256d v[8];
  for (size_t k = 0; k < 8; ++k) v[k] = _mm256_set1_pd(vs[k]);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const size_t word = i >> 6;
    const size_t shift = i & 63;
    __m256d t = _mm256_loadu_pd(acc + i);
    for (size_t k = 0; k < 8; ++k) {
      t = _mm256_add_pd(
          t, SignedCopies(v[k], (signs[k][word] >> shift) & 15));
    }
    _mm256_storeu_pd(acc + i, t);
  }
  for (; i < n; ++i) {
    double t = acc[i];
    for (size_t k = 0; k < 8; ++k) t += FlipSign(vs[k], SignBit(signs[k], i));
    acc[i] = t;
  }
}

#endif  // CSOD_SIMD_X86

Level DetectLevel() {
#if defined(CSOD_FORCE_PORTABLE_SIMD)
  return Level::kPortable;
#else
  const char* force = std::getenv("CSOD_FORCE_PORTABLE_SIMD");
  if (force != nullptr && force[0] != '\0' && force[0] != '0') {
    return Level::kPortable;
  }
  return Avx2Supported() ? Level::kAvx2 : Level::kPortable;
#endif
}

std::atomic<Level>& ActiveLevelSlot() {
  static std::atomic<Level> level{DetectLevel()};
  return level;
}

}  // namespace

const char* LevelName(Level level) {
  return level == Level::kAvx2 ? "avx2" : "portable";
}

bool Avx2Supported() {
#if CSOD_SIMD_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Level ActiveLevel() {
  return ActiveLevelSlot().load(std::memory_order_relaxed);
}

Level SetLevelForTesting(Level level) {
  if (level == Level::kAvx2 && !Avx2Supported()) level = Level::kPortable;
  return ActiveLevelSlot().exchange(level, std::memory_order_relaxed);
}

double Dot(const double* a, const double* b, size_t n) {
#if CSOD_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) return DotAvx2(a, b, n);
#endif
  return DotPortable(a, b, n);
}

void Dot4(const double* c0, const double* c1, const double* c2,
          const double* c3, const double* r, size_t n, double out[4]) {
#if CSOD_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    Dot4Avx2(c0, c1, c2, c3, r, n, out);
    return;
  }
#endif
  Dot4Portable(c0, c1, c2, c3, r, n, out);
}

void Axpy(double* acc, const double* col, double x, size_t n) {
#if CSOD_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    AxpyAvx2(acc, col, x, n);
    return;
  }
#endif
  AxpyPortable(acc, col, x, n);
}

void Axpy4(double* acc, const double* c0, double x0, const double* c1,
           double x1, const double* c2, double x2, const double* c3, double x3,
           size_t n) {
#if CSOD_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    Axpy4Avx2(acc, c0, x0, c1, x1, c2, x2, c3, x3, n);
    return;
  }
#endif
  Axpy4Portable(acc, c0, x0, c1, x1, c2, x2, c3, x3, n);
}

void Axpy8(double* acc, const double* const cols[8], const double xs[8],
           size_t n) {
#if CSOD_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    Axpy8Avx2(acc, cols, xs, n);
    return;
  }
#endif
  Axpy8Portable(acc, cols, xs, n);
}

void Add(double* acc, const double* src, size_t n) {
#if CSOD_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    AddAvx2(acc, src, n);
    return;
  }
#endif
  AddPortable(acc, src, n);
}

void Add4(double* acc, const double* s0, const double* s1, const double* s2,
          const double* s3, size_t n) {
#if CSOD_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    Add4Avx2(acc, s0, s1, s2, s3, n);
    return;
  }
#endif
  Add4Portable(acc, s0, s1, s2, s3, n);
}

void Scale(double* v, double s, size_t n) {
#if CSOD_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    ScaleAvx2(v, s, n);
    return;
  }
#endif
  ScalePortable(v, s, n);
}

void SignedAdd(double* acc, const uint64_t* signs, double v, size_t n) {
#if CSOD_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    SignedAddAvx2(acc, signs, v, n);
    return;
  }
#endif
  SignedAddPortable(acc, signs, v, n);
}

void SignedAdd8(double* acc, const uint64_t* const signs[8],
                const double vs[8], size_t n) {
#if CSOD_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    SignedAdd8Avx2(acc, signs, vs, n);
    return;
  }
#endif
  SignedAdd8Portable(acc, signs, vs, n);
}

}  // namespace csod::simd
