#ifndef CSOD_BENCH_BENCH_UTIL_H_
#define CSOD_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction harnesses. Each harness is a
// standalone binary that prints the series of one paper figure; all accept
//   --quick        smaller sweep (default when no flags are given is the
//                  calibrated default below, already laptop-sized)
//   --trials=T     number of random measurement matrices per point
//   --n=N ...      full paper-scale overrides (see each binary's --help).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"

namespace csod::bench {

/// The basis of every bench output digest (`Fnv1a digest(kDigestBasis)`):
/// the standard FNV offset basis short its last decimal digit. The
/// committed BENCH_*.json digests were taken with it, so it stays.
constexpr uint64_t kDigestBasis = 1469598103934665603ULL;

/// Prints a table header row: name column + one column per M value.
inline void PrintHeader(const std::string& label,
                        const std::vector<int64_t>& columns) {
  std::printf("%-24s", label.c_str());
  for (int64_t c : columns) std::printf(" %8lld", static_cast<long long>(c));
  std::printf("\n");
}

/// Prints a data row of percentages.
inline void PrintPercentRow(const std::string& label,
                            const std::vector<double>& values) {
  std::printf("%-24s", label.c_str());
  for (double v : values) std::printf(" %7.1f%%", 100.0 * v);
  std::printf("\n");
}

/// Prints a data row of raw doubles.
inline void PrintDoubleRow(const std::string& label,
                           const std::vector<double>& values,
                           const char* fmt = " %8.2f") {
  std::printf("%-24s", label.c_str());
  for (double v : values) std::printf(fmt, v);
  std::printf("\n");
}

/// Standard banner naming the figure being reproduced.
inline void Banner(const char* figure, const char* description) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("==============================================================="
              "=\n");
}

}  // namespace csod::bench

#endif  // CSOD_BENCH_BENCH_UTIL_H_
