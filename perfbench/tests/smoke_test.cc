// Smoke test of the benchmark itself: every workload runs at tiny size
// with zero failed operations, and a deliberately wrong reference answer
// is counted as a failed operation.

#include <cstdio>
#include <string>

#include "bench.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

perfbench::Report Run(const std::string& workload, bool trace, bool corrupt) {
  perfbench::RunOptions options;
  options.workload = workload;
  options.seed = 3;
  options.seconds = 1;
  options.trace = trace;
  options.tiny = true;
  options.corrupt_reference = corrupt;
  perfbench::Report report;
  Expect(perfbench::RunWorkload(options, "{}", &report),
         workload + " is a known workload");
  for (const auto& f : report.failures) {
    std::fprintf(stderr, "  %s: %s\n", workload.c_str(), f.c_str());
  }
  return report;
}

}  // namespace

int main() {
  for (const char* workload :
       {"batch-mapreduce", "batch-protocol", "serve-mixed"}) {
    const std::string w = workload;
    for (bool trace : {false, true}) {
      const perfbench::Report ok = Run(w, trace, false);
      const std::string mode = trace ? " (traced)" : "";
      Expect(ok.attempted > 0, w + mode + " attempted operations");
      Expect(ok.failed == 0, w + mode + " reports zero failed operations");
      Expect(ok.digest != 0, w + mode + " digests its answers");
    }
    const perfbench::Report wrong = Run(w, false, true);
    std::fprintf(stderr, "(the failures above for %s are expected)\n", workload);
    Expect(wrong.failed > 0,
           w + " counts an answer that differs from a wrong reference");
  }
  perfbench::Report unused;
  Expect(!perfbench::RunWorkload(perfbench::RunOptions{}, "{}", &unused),
         "an unknown workload is refused");
  if (failures == 0) std::printf("perfbench smoke test passed\n");
  return failures == 0 ? 0 : 1;
}
