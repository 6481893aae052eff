#include "sim/buggify.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "common/digest.h"
#include "common/random.h"

namespace csod::sim {

namespace {

// Purpose tags keep the activation and firing hash streams independent
// (the same discipline as FaultInjector's per-fault tags).
constexpr uint64_t kActivateTag = 0x6163746976617465ULL;  // "activate"
constexpr uint64_t kFireTag = 0x66697265ULL;              // "fire"

// FNV-1a over the section name: the stable section id entering the hash
// chain. Names, not addresses, so the id survives relinking and ASLR.
uint64_t SectionId(const char* name) {
  Fnv1a digest;
  digest.AddString(name);
  return digest.hash();
}

// One registered section. Entries are never freed (the registry is
// intentionally leaky): sections are a small fixed set of named program
// points, and stable pointers let Fire() run without holding the
// registry lock across the decision.
struct Section {
  uint64_t id = 0;
  std::atomic<bool> activated{false};
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> fires{0};
  std::atomic<uint64_t> ordinal{0};
};

struct Registry {
  std::mutex mu;
  std::map<std::string, Section*> sections;  // Leaky by design.
  BuggifyOptions options;
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

// The armed options, mirrored into atomics so Fire() never takes the
// registry lock for them. Written only by BuggifyEnable (which must not
// race in-flight sections, per the header contract).
std::atomic<uint64_t> g_seed{1};
// Probabilities stored as raw bit patterns (atomic<double> needs no more).
std::atomic<uint64_t> g_fire_p_bits{0};

double FireProbability() {
  const uint64_t bits = g_fire_p_bits.load(std::memory_order_relaxed);
  double p;
  static_assert(sizeof(p) == sizeof(bits));
  __builtin_memcpy(&p, &bits, sizeof(p));
  return p;
}

bool ComputeActivated(const BuggifyOptions& options, uint64_t section_id) {
  const uint64_t word =
      SplitMix64(HashCombine(HashCombine(options.seed, kActivateTag),
                             section_id));
  return ToUnitDouble(word) < options.activation_probability;
}

Section* Lookup(const char* name) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.sections.find(name);
  if (it != registry.sections.end()) return it->second;
  Section* section = new Section();  // Leaky; see Section comment.
  section->id = SectionId(name);
  section->activated.store(ComputeActivated(registry.options, section->id),
                           std::memory_order_relaxed);
  registry.sections.emplace(name, section);
  return section;
}

bool FireImpl(Section* section, uint64_t ordinal) {
  section->hits.fetch_add(1, std::memory_order_relaxed);
  if (!section->activated.load(std::memory_order_relaxed)) return false;
  const uint64_t word = SplitMix64(
      HashCombine(HashCombine(g_seed.load(std::memory_order_relaxed),
                              kFireTag),
                  HashCombine(section->id, ordinal)));
  if (ToUnitDouble(word) >= FireProbability()) return false;
  section->fires.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace

void BuggifyEnable(const BuggifyOptions& options) {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  registry.options = options;
  g_seed.store(options.seed, std::memory_order_relaxed);
  uint64_t bits;
  const double p = options.fire_probability;
  __builtin_memcpy(&bits, &p, sizeof(bits));
  g_fire_p_bits.store(bits, std::memory_order_relaxed);
  // Re-decide activation and restart every ordinal stream, so two enables
  // with identical options replay the identical fault schedule.
  for (auto& [name, section] : registry.sections) {
    section->activated.store(ComputeActivated(options, section->id),
                             std::memory_order_relaxed);
    section->hits.store(0, std::memory_order_relaxed);
    section->fires.store(0, std::memory_order_relaxed);
    section->ordinal.store(0, std::memory_order_relaxed);
  }
  internal::g_buggify_enabled.store(true, std::memory_order_relaxed);
}

void BuggifyDisable() {
  internal::g_buggify_enabled.store(false, std::memory_order_relaxed);
}

BuggifyOptions BuggifyCurrentOptions() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.options;
}

std::vector<BuggifySectionReport> BuggifyReport() {
  Registry& registry = GetRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<BuggifySectionReport> report;
  report.reserve(registry.sections.size());
  for (const auto& [name, section] : registry.sections) {
    BuggifySectionReport entry;
    entry.name = name;
    entry.activated = section->activated.load(std::memory_order_relaxed);
    entry.hits = section->hits.load(std::memory_order_relaxed);
    entry.fires = section->fires.load(std::memory_order_relaxed);
    report.push_back(std::move(entry));
  }
  // std::map already iterates in name order; keep the guarantee explicit.
  std::sort(report.begin(), report.end(),
            [](const BuggifySectionReport& a, const BuggifySectionReport& b) {
              return a.name < b.name;
            });
  return report;
}

uint64_t BuggifyFireCount() {
  uint64_t total = 0;
  for (const BuggifySectionReport& entry : BuggifyReport()) {
    total += entry.fires;
  }
  return total;
}

namespace internal {

bool Fire(const char* section) {
  Section* s = Lookup(section);
  return FireImpl(s, s->ordinal.fetch_add(1, std::memory_order_relaxed));
}

bool FireAt(const char* section, uint64_t ordinal) {
  return FireImpl(Lookup(section), ordinal);
}

}  // namespace internal

}  // namespace csod::sim
