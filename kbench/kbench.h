// kbench — the repository benchmark (see kbench/README.md).
//
// One process runs one workload end to end: the paper's daily compile
// loop, single-thread scanning, the scan service under generated load,
// and release cycles (delta, full and cold-start deploys). The three
// workloads are three sizings of the same phases, so every metric is
// measured on every workload and each workload loads a different layer.
//
// Spans are recorded only from this directory's code, around calls into
// the library's public functions; the library itself is not instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "engine/engine.h"
#include "kitgen/stream.h"

namespace kbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// Median of `v` (0 for an empty sample).
double median(std::vector<double> v);
// Nearest-rank percentile, q in [0, 1] (0 for an empty sample).
double percentile(std::vector<double> v, double q);

// How a timed metric summarises its units (passes, slices, windows,
// repeats, cycles): by the quartile on the fast side, not the median. The
// shared reference machine switches between a fast and a slow speed every
// few seconds (a scan pass of one process read ~120 or ~180 MB/s, little
// in between), so the median jumps with the share of slow periods a run
// happens to get, while the fast quartile tracks what the code costs.
// Noise on a shared machine only ever adds time (Chen and Revels,
// "Robust benchmarking in noisy environments", 2016).
inline double low_quartile(std::vector<double> v) {  // times, latencies
  return percentile(std::move(v), 0.25);
}
inline double high_quartile(std::vector<double> v) {  // rates
  return percentile(std::move(v), 0.75);
}

// ------------------------------- tracing --------------------------------

// In-memory span recorder. Off: every call is a branch and nothing else.
// On: every span (name, start, end, parent, request id) is kept in memory
// and written out at exit. Only the main thread records.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  // Opens a span as a child of the innermost open span; returns a handle
  // for close() (-1 when off).
  int open(const char* name, std::uint64_t request = 0);
  void close(int handle);
  // Records an already-finished span (e.g. a serve request, timed on a
  // worker thread), parented to the innermost open span.
  void add(const char* name, Clock::time_point start, Clock::time_point end,
           std::uint64_t request);

  // Writes {"context": ..., "spans": [[name, start_ns, end_ns, parent,
  // request], ...]} to `path`; `parent` indexes the span list (-1: none).
  void write(const std::string& path, const std::string& context_json) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t request;
  };

  bool on_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;  // open spans, as indices into spans_
};

// RAII span.
class SpanGuard {
 public:
  SpanGuard(Tracer& tracer, const char* name, std::uint64_t request = 0)
      : tracer_(tracer), handle_(tracer.open(name, request)) {}
  ~SpanGuard() { tracer_.close(handle_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer& tracer_;
  int handle_;
};

// Pins the calling thread to one of the CPUs it may run on, chosen by
// `turn` round-robin, and restores its CPU set on destruction. Single-
// thread phases rotate their units over every CPU: on a shared VM the
// CPUs differ in speed by up to ~15%, and a run that happened to land on
// a fast or slow one would move the metric. Only wrap code that starts
// no threads (a new thread inherits the pinned CPU set).
class CpuRotation {
 public:
  explicit CpuRotation(std::size_t turn);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  bool pinned_ = false;
  std::vector<int> saved_;
};

// Whole-machine CPU time from /proc/stat, to tell a slow period of a
// shared machine (time stolen by the hypervisor, other load) apart from
// an effect of the benchmark itself. `ok` is false where /proc/stat is
// unreadable.
struct CpuTimes {
  bool ok = false;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes read_cpu_times();
// Stolen share of all CPU time between two samples, in percent (-1 when
// either sample is missing).
double steal_pct(const CpuTimes& from, const CpuTimes& to);
// One-minute load average (-1 when unavailable).
double loadavg_1m();
// Nanoseconds per step of a fixed loop that runs no code under test (an
// LCG walking a table that stays in L1). Its value over a run tells a
// slower machine apart from slower code: time stolen by the hypervisor
// shows in steal_pct, but a host that runs its cores slower does not.
double reference_loop_ns();

// ------------------------------ run state -------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one run accumulates: operation accounting, metrics, trace.
struct Run {
  explicit Run(bool trace) : tracer(trace) {}

  // Counts one operation. A failed operation is a wrong result or an
  // error and makes the run incorrect. A refused one (a slice of traffic
  // with shed requests, or a load refused by the documented defect,
  // README.md "Known defect") was not served and counts against
  // ops_ok_frac only.
  void op(bool ok, const std::string& what, bool refused = false);
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  bool trace() const { return tracer.on(); }

  Tracer tracer;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  std::vector<std::string> errors;  // first few failure messages
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> context;  // key -> JSON
};

// ------------------------------ workloads -------------------------------

struct Workload {
  const char* name;
  // Compile phase: `days` simulated days from Aug 1 at `volume_scale`,
  // repeated at least `min_compile_reps` times.
  int days;
  double volume_scale;
  int min_compile_reps;
  // Serving set: the pipeline's signatures topped up with donor literal
  // signatures to `active_sigs` (0 = the pipeline's own set, no top-up).
  std::size_t active_sigs;
  // Release cycles: `deltas` deltas, each retiring and adding `churn`
  // signatures, then `full_deploys` full deploys and cold starts of the
  // resulting `.kpf`. More than one of each where a cycle costs seconds,
  // so that the deploy metrics summarise enough samples.
  std::size_t churn;
  int deltas;
  int full_deploys;
  // Shares of the run's seconds for the compile, set-up, scan, serve and
  // release phases.
  double compile_share;
  double setup_share;
  double scan_share;
  double serve_share;
  double release_share;
};

const Workload* find_workload(const std::string& name);

// `s` as a quoted JSON string.
std::string json_str(const std::string& s);

// What the compile phase leaves for the later phases: the normalized
// samples of the last three simulated days and the signatures the
// pipeline issued.
struct Corpus {
  std::vector<std::string> docs;  // AV-normalized scan text
  std::vector<std::uint8_t> malicious;
  std::size_t bytes = 0;
  std::vector<kizzle::core::DeployedSignature> signatures;
};

// The serving set and the expected verdict per corpus doc, by signature
// name ("" = no match), from an independently compiled database.
struct Serving {
  std::vector<kizzle::core::DeployedSignature> signatures;
  std::vector<std::string> expected;
  std::shared_ptr<const kizzle::engine::Database> db;
  // Normalized kitgen samples of a fixed seed: the source of donor
  // literal signatures (top-up and release-cycle additions).
  std::vector<std::string> donor_texts;
};

// True for the error of the documented `.kpf` defect (README.md, "Known
// defect"): a refusal of that kind counts against ops_ok_frac, not as a
// failed operation.
bool known_kpf_defect(const std::string& what);

// Donor signature `i`: a salted 40-byte literal chunk of a donor text in
// the deployed-signature shape. Deterministic in i.
kizzle::core::DeployedSignature donor_signature(
    const std::vector<std::string>& donor_texts, std::size_t i);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch files (artifacts, trace)
};

// A phase of a run. main.cpp interleaves phases in rounds, so that each
// metric summarises units spread across the whole run rather than one
// contiguous stretch of it: the shared machine's speed drifts on a scale
// of seconds.
class Phase {
 public:
  virtual ~Phase() = default;
  // Runs one unit of work (a repeat, a pass, a serve slice, a cycle).
  // Returns false when the phase has nothing more to do.
  virtual bool unit() = 0;
  // True while the phase still lacks its minimum number of units.
  virtual bool needs_more() const = 0;
  // Reports the phase's metrics.
  virtual void finish() = 0;
};

// Phases (one source file each). The compile phase runs its first repeat
// in the constructor, which fills `corpus`; the set-up phase runs its first
// repeat in the constructor, which fills `serving`. The other phases read
// the corpus and serving set, which must outlive them.
std::unique_ptr<Phase> make_compile_phase(const Workload& w, const Options& opt,
                                          Run& run, Corpus& corpus);
std::unique_ptr<Phase> make_setup_phase(const Workload& w, const Options& opt,
                                        const Corpus& corpus, Run& run,
                                        Serving& serving);
std::unique_ptr<Phase> make_scan_phase(const Options& opt, const Corpus& corpus,
                                       const Serving& serving, Run& run);
std::unique_ptr<Phase> make_serve_phase(const Options& opt,
                                        const Corpus& corpus,
                                        const Serving& serving, Run& run);
std::unique_ptr<Phase> make_release_phase(const Workload& w, const Options& opt,
                                          const Corpus& corpus,
                                          const Serving& serving, Run& run);

// Verdicts of `db` over the corpus (first-match signature name per doc).
std::vector<std::string> verdicts(const kizzle::engine::Database& db,
                                  const Corpus& corpus);
// Counts one verification op: `db` must reproduce `expected` exactly.
void check_verdicts(const kizzle::engine::Database& db, const Corpus& corpus,
                    const std::vector<std::string>& expected,
                    const std::string& what, Run& run);

// The simulated traffic is the same for every --seed: the serve
// fixture's default stream seed. The seed varies what a run draws from
// it — the pipeline's random partitioning, the request mix, the release
// churn — so that runs with different seeds measure the same workload.
inline constexpr std::uint64_t kStreamSeed = 20140801;

// Pipeline construction exactly as the serve fixture does it.
std::unique_ptr<kizzle::core::KizzlePipeline> make_pipeline(
    const kizzle::kitgen::StreamSimulator& sim, std::uint64_t seed);

}  // namespace kbench
