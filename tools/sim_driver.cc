// sim_driver — seeded randomized simulation harness (DESIGN.md §15).
//
// Modes:
//   (default)        sweep: run --scenarios seeded scenarios from --seed0
//   --replay=SEED    re-run one scenario bit-identically and print verdict
//   --corpus=FILE    run every seed listed in FILE (the regression corpus:
//                    one decimal seed per line, '#' starts a comment)
//   --list           print the scenario each seed derives to, without
//                    running anything
//
// --replay and --corpus print, under each digest, the Buggify sections the
// scenario activated and those that fired (with fire counts), so a corpus
// comment naming a section can be checked against the run.
//
// Exit status is nonzero iff any scenario violated an invariant, so the
// driver can gate CI directly. Every failure line is followed by a
// one-line replay recipe (`csod sim --replay SEED`).

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "sim/buggify.h"
#include "sim/runner.h"
#include "sim/scenario.h"

namespace {

using namespace csod;

// "buggify: off", or the sections the last run of `seed` hit while
// activated and the ones that fired. Sections with no hits were
// registered by an earlier scenario in this process and are skipped.
std::string BuggifyLine(uint64_t seed) {
  if (!sim::ScenarioFromSeed(seed).buggify) return "buggify: off";
  std::string activated, fired;
  for (const sim::BuggifySectionReport& section : sim::BuggifyReport()) {
    if (section.hits == 0 || !section.activated) continue;
    activated += (activated.empty() ? "" : ",") + section.name;
    if (section.fires > 0) {
      fired += (fired.empty() ? "" : ",") + section.name + "*" +
               std::to_string(section.fires);
    }
  }
  return "buggify: activated=" + (activated.empty() ? "-" : activated) +
         " fired=" + (fired.empty() ? "-" : fired);
}

int ReplayOne(uint64_t seed) {
  std::string line;
  const sim::ScenarioOutcome outcome = sim::ReplaySeed(seed, &line);
  std::printf("seed=%llu %s\n", static_cast<unsigned long long>(seed),
              line.c_str());
  std::printf("digest=%016llx %s\n",
              static_cast<unsigned long long>(outcome.digest),
              outcome.ok() ? "ok" : "FAIL");
  std::printf("  %s\n", BuggifyLine(seed).c_str());
  for (const std::string& violation : outcome.violations) {
    std::printf("  violation: %s\n", violation.c_str());
  }
  return outcome.ok() ? 0 : 1;
}

int RunCorpus(const std::string& path) {
  const Result<std::vector<uint64_t>> seeds = sim::LoadCorpus(path);
  if (!seeds.ok()) {
    std::fprintf(stderr, "sim_driver: %s\n",
                 seeds.status().ToString().c_str());
    return 2;
  }
  size_t failed = 0;
  for (uint64_t seed : seeds.Value()) {
    std::string line;
    const sim::ScenarioOutcome outcome = sim::ReplaySeed(seed, &line);
    std::printf("seed=%llu digest=%016llx %s %s\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(outcome.digest),
                outcome.ok() ? "ok " : "FAIL", line.c_str());
    std::printf("  %s\n", BuggifyLine(seed).c_str());
    if (!outcome.ok()) {
      ++failed;
      for (const std::string& violation : outcome.violations) {
        std::printf("  violation: %s\n", violation.c_str());
      }
      std::printf("  replay: csod sim --replay %llu\n",
                  static_cast<unsigned long long>(seed));
    }
  }
  std::printf("corpus: %zu seeds, %zu failed\n", seeds.Value().size(),
              failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).Check();

  if (flags.Has("replay")) {
    return ReplayOne(static_cast<uint64_t>(flags.GetInt("replay", 0)));
  }
  const std::string corpus = flags.GetString("corpus", "");
  if (!corpus.empty()) return RunCorpus(corpus);

  sim::SweepOptions options;
  options.seed0 = static_cast<uint64_t>(flags.GetInt("seed0", 1));
  options.scenarios = static_cast<size_t>(flags.GetInt("scenarios", 200));
  options.verbose = flags.GetBool("verbose", false);

  if (flags.GetBool("list", false)) {
    for (size_t i = 0; i < options.scenarios; ++i) {
      const uint64_t seed = options.seed0 + i;
      std::printf("seed=%llu %s\n", static_cast<unsigned long long>(seed),
                  sim::ScenarioToString(sim::ScenarioFromSeed(seed)).c_str());
    }
    return 0;
  }

  const sim::SweepResult result = sim::RunSweep(options);
  std::fputs(result.report.c_str(), stdout);
  for (const std::string& failure : result.failures) {
    std::printf("%s\n", failure.c_str());
  }
  std::printf("combined-digest=%016llx\n",
              static_cast<unsigned long long>(result.combined_digest));
  return result.ok() ? 0 : 1;
}
