// Statistics, the span recorder and verdict helpers shared by the phases.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "kbench.h"

namespace kbench {

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (q == 0.5 && v.size() % 2 == 0) {
    return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ------------------------------- tracing --------------------------------

int Tracer::open(const char* name, std::uint64_t request) {
  if (!on_) return -1;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  stack_.push_back(static_cast<std::int32_t>(spans_.size()));
  spans_.push_back({name, to_ns(Clock::now()), 0, parent, request});
  return static_cast<int>(stack_.size()) - 1;
}

void Tracer::close(int handle) {
  if (!on_ || handle < 0) return;
  if (static_cast<std::size_t>(handle) + 1 != stack_.size()) {
    throw std::logic_error("Tracer: spans closed out of order");
  }
  spans_[static_cast<std::size_t>(stack_.back())].end_ns = to_ns(Clock::now());
  stack_.pop_back();
}

void Tracer::add(const char* name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t request) {
  if (!on_) return;
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, to_ns(start), to_ns(end), parent, request});
}

void Tracer::write(const std::string& path,
                   const std::string& context_json) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write trace " + path);
  os << "{\"context\": " << context_json << ",\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "[\"" << s.name << "\", " << s.start_ns << ", "
       << s.end_ns << ", " << s.parent << ", " << s.request << "]";
  }
  os << "]}\n";
}

// ------------------------------ machine load ----------------------------

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream is("/proc/stat");
  std::string cpu;
  if (!(is >> cpu) || cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(is >> v)) return t;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  t.ok = true;
  return t;
}

double steal_pct(const CpuTimes& from, const CpuTimes& to) {
  if (!from.ok || !to.ok || to.total <= from.total) return -1.0;
  return 100.0 * static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

double loadavg_1m() {
  double load[1];
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

double reference_loop_ns() {
  constexpr int kSteps = 2000000;
  std::uint32_t table[1024];
  for (std::uint32_t i = 0; i < 1024; ++i) table[i] = i * 2654435761u;
  std::uint64_t x = 1;
  std::uint32_t j = 0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSteps; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    j = table[(j ^ static_cast<std::uint32_t>(x >> 32)) & 1023u];
    x ^= j;
  }
  const double ns = seconds_since(t0) * 1e9 / kSteps;
  // Keeps the loop from being optimised away.
  volatile std::uint64_t sink = x;
  (void)sink;
  return ns;
}

// ------------------------------ CPU rotation ----------------------------

CpuRotation::CpuRotation(std::size_t turn) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) saved_.push_back(c);
  }
  if (saved_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(saved_[turn % saved_.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

CpuRotation::~CpuRotation() {
  if (!pinned_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : saved_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

// ------------------------------- verdicts -------------------------------

std::vector<std::string> verdicts(const kizzle::engine::Database& db,
                                  const Corpus& corpus) {
  kizzle::engine::Scratch scratch;
  std::vector<std::string> out;
  out.reserve(corpus.docs.size());
  for (const std::string& doc : corpus.docs) {
    const auto ev = kizzle::engine::first_match(db, doc, scratch);
    out.emplace_back(ev ? std::string(ev->name) : std::string());
  }
  return out;
}

void check_verdicts(const kizzle::engine::Database& db, const Corpus& corpus,
                    const std::vector<std::string>& expected,
                    const std::string& what, Run& run) {
  const std::vector<std::string> got = verdicts(db, corpus);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != expected[i]) ++mismatches;
  }
  run.op(mismatches == 0 && got.size() == expected.size(),
         what + ": " + std::to_string(mismatches) + " verdict mismatches");
}

std::unique_ptr<kizzle::core::KizzlePipeline> make_pipeline(
    const kizzle::kitgen::StreamSimulator& sim, std::uint64_t seed) {
  auto pipeline = std::make_unique<kizzle::core::KizzlePipeline>(
      kizzle::core::PipelineConfig{}, seed);
  for (const auto& [family, payload] : sim.seed_corpus()) {
    pipeline->seed_family(std::string(kizzle::kitgen::family_name(family)),
                          0.55, payload);
  }
  return pipeline;
}

}  // namespace kbench
