// The CSOD benchmark binary. Usage:
//
//   perfbench --workload <batch-mapreduce|batch-protocol|serve-mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--git-commit <sha>]
//
// Prints a provenance header, the end-to-end table (and, traced, the layer
// ledger), then one JSON line: {"correct", "attempted", "failed",
// "metrics"}. Exits 0 when the run completed, whether or not answers were
// correct (the JSON says which); 2 on bad usage.

#include <cstdio>
#include <string>

#include "bench.h"
#include "common/flags.h"

int main(int argc, char** argv) {
  csod::FlagParser flags;
  const csod::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.ToString().c_str());
    return 2;
  }
  perfbench::RunOptions options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = static_cast<double>(flags.GetInt("seconds", 10));
  options.trace = flags.GetInt("trace", 0) != 0;
  options.trace_out = flags.GetString("trace-out", "");
  options.git_commit = flags.GetString("git-commit", "unknown");
  if (options.seconds <= 0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  const std::string provenance = perfbench::Provenance(options);
  perfbench::Report report;
  if (!perfbench::RunWorkload(options, provenance, &report)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  perfbench::PrintReport(options, provenance, report);
  return 0;
}
