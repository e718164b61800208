// Release phase: repeated deploy cycles on a running ScanServer. Each
// cycle runs:
//
//   1. Workload::deltas KZDELTAs through ScanServer::deploy_delta, each
//      retiring `churn` signatures and adding `churn` donor signatures
//                                                         (deploy_delta_ms)
//   2. the full `.kpf` of the last delta's active set, from its file,
//      through deploy_artifact                             (deploy_full_ms)
//   3. a cold start: Database::from_artifact over an mmap  (cold_start_ms)
//
// Steps 2 and 3 repeat Workload::full_deploys times per cycle.
// After each step the serving (or cold-started) database scans the corpus
// and must give the verdicts of Database::compile over the same active
// set. Steps 2 and 3 are timed whether or not they succeed: on a set whose
// `.kpf` hits the documented defect (README.md, "Known defect") both are
// refused, each refusal counts against ops_ok_frac, and the serving epoch
// stays the last delta's.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "analyze/analyze.h"
#include "core/sigdb.h"
#include "kbench.h"
#include "serve/server.h"
#include "support/errors.h"
#include "support/mapped_file.h"
#include "support/rng.h"

namespace kbench {

namespace core = kizzle::core;
namespace engine = kizzle::engine;
namespace serve = kizzle::serve;

namespace {

constexpr int kMinCycles = 3;
constexpr std::size_t kFirstReleaseDonor = 1000000;

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

// What the serving epoch holds: every signature of its lineage, in slot
// order, and the slots a delta retired. A full deploy starts a fresh
// lineage; a delta extends it.
struct Lineage {
  std::vector<core::DeployedSignature> slots;
  std::vector<std::uint64_t> tombstones;  // ascending
};

// One delta of a cycle and the active set after it.
struct Step {
  core::DeltaArtifact delta;
  std::string delta_bytes;
  Lineage after_delta;
  std::vector<core::DeployedSignature> next;  // the live slots, in order
};

// Step `step` (counted over the whole run) from the epoch `base`.
Step make_step(const Lineage& base, const Workload& w, const Serving& serving,
               std::uint64_t seed, std::size_t step) {
  Step c;
  kizzle::Rng rng(seed * 31 + step);
  std::vector<std::uint8_t> retire(base.slots.size(), 0);
  for (const std::uint64_t t : base.tombstones) retire[t] = 2;
  const std::size_t live = base.slots.size() - base.tombstones.size();
  const std::size_t churn = std::min(w.churn, live);
  for (std::size_t n = 0; n < churn;) {
    const std::size_t i = rng.index(base.slots.size());
    if (retire[i] == 0) {
      retire[i] = 1;
      ++n;
    }
  }
  for (std::size_t i = 0; i < base.slots.size(); ++i) {
    if (retire[i] == 1) c.delta.retired.push_back(i);
    if (retire[i] == 0) c.next.push_back(base.slots[i]);
  }
  for (std::size_t n = 0; n < churn; ++n) {
    c.delta.added.push_back(donor_signature(
        serving.donor_texts, kFirstReleaseDonor + step * churn + n));
    c.next.push_back(c.delta.added.back());
  }
  c.after_delta = base;
  c.after_delta.slots.insert(c.after_delta.slots.end(), c.delta.added.begin(),
                             c.delta.added.end());
  c.after_delta.tombstones.insert(c.after_delta.tombstones.end(),
                                  c.delta.retired.begin(), c.delta.retired.end());
  std::sort(c.after_delta.tombstones.begin(), c.after_delta.tombstones.end());
  c.delta.base_fingerprint = core::fingerprint(base.slots, base.tombstones);
  c.delta.result_fingerprint =
      core::fingerprint(c.after_delta.slots, c.after_delta.tombstones);
  std::ostringstream delta_os;
  core::save_delta(delta_os, c.delta);
  c.delta_bytes = delta_os.str();
  return c;
}

// Writes the full `.kpf` of c.next to `path`, with the prefilter tables of
// `reference` (the independent Database::compile of c.next). save_artifact
// would otherwise build the same tables a second time: both add the
// required literal of each signature under its index and build.
void save_artifact_file(const std::string& path, const Step& c,
                        const engine::Database& reference) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  core::save_artifact(os, c.next, &reference.prefilter());
  if (!os) throw std::runtime_error("cannot write " + path);
}

// The per-stage replay of one cycle's deploys (traced runs only).
struct Stages {
  std::vector<double> load_delta, lint_delta, extend, prefilter_build;
  std::vector<double> load_artifact, lint_artifact;
  std::vector<double> publish;  // deploy_delta minus its replayed stages
};

// `base` is the epoch the delta applied to and `published` the epoch it
// published; the prefilter stage rebuilds its tables over the live slots.
void replay_delta_stages(const engine::Database& base,
                         const engine::Database& published, const Step& c,
                         Stages& st, Tracer& tracer) {
  Clock::time_point t0 = Clock::now();
  {
    SpanGuard span(tracer, "core.load_delta");
    std::istringstream is(c.delta_bytes);
    core::load_delta(is);
  }
  st.load_delta.push_back(ms_since(t0));
  t0 = Clock::now();
  {
    SpanGuard span(tracer, "analyze.analyze_delta");
    kizzle::analyze::analyze_delta(base, c.delta);
  }
  st.lint_delta.push_back(ms_since(t0));
  t0 = Clock::now();
  {
    SpanGuard span(tracer, "engine.extend");
    base.extend(c.delta);
  }
  st.extend.push_back(ms_since(t0));
  t0 = Clock::now();
  {
    SpanGuard span(tracer, "match.prefilter_build");
    kizzle::match::LiteralPrefilter pf;
    for (std::size_t i = 0; i < published.size(); ++i) {
      if (published.entry_retired(i)) continue;
      pf.add(i, published.pattern(i).required_literal());
    }
    pf.build();
  }
  st.prefilter_build.push_back(ms_since(t0));
}

// The stages of a full deploy of the `.kpf` at `artifact`, up to a refusal
// like the deploy they replay.
void replay_artifact_stages(const std::string& artifact, Stages& st,
                            Tracer& tracer) {
  Clock::time_point t0 = Clock::now();
  try {
    SpanGuard span(tracer, "core.load_artifact");
    std::ifstream is(artifact, std::ios::binary);
    core::load_artifact(is);
  } catch (const kizzle::Error&) {
  }
  st.load_artifact.push_back(ms_since(t0));
  t0 = Clock::now();
  try {
    SpanGuard span(tracer, "analyze.analyze_artifact");
    std::ifstream is(artifact, std::ios::binary);
    kizzle::analyze::analyze_artifact(is);
  } catch (const kizzle::Error&) {
  }
  st.lint_artifact.push_back(ms_since(t0));
}

// Counts a deploy or cold start that did not go through: a refusal by the
// documented defect is refused, anything else failed.
void count_refusal(Run& run, const std::string& what, const std::string& why) {
  run.op(false, what + " refused: " + why, known_kpf_defect(why));
}

class ReleasePhase : public Phase {
 public:
  ReleasePhase(const Workload& w, const Options& opt, const Corpus& corpus,
               const Serving& serving, Run& run)
      : w_(w),
        opt_(opt),
        corpus_(corpus),
        serving_(serving),
        run_(run),
        server_(serving.db, server_config()),
        path_(opt.work_dir + "/release-" + w.name + "-" +
              std::to_string(opt.seed) + ".kpf"),
        lineage_{serving.signatures, {}} {}

  ~ReleasePhase() override { std::filesystem::remove(path_); }

  bool unit() override;
  bool needs_more() const override { return cycle_ < kMinCycles; }
  void finish() override;

 private:
  static serve::ServerConfig server_config() {
    serve::ServerConfig cfg;
    cfg.workers = 2;
    return cfg;
  }

  const Workload& w_;
  const Options& opt_;
  const Corpus& corpus_;
  const Serving& serving_;
  Run& run_;
  serve::ScanServer server_;
  const std::string path_;
  Lineage lineage_;  // what the server's epoch holds
  std::vector<double> delta_ms_, full_ms_, cold_ms_;
  Stages stages_;
  std::size_t cycle_ = 0;
  std::size_t step_ = 0;  // deltas so far
};

bool ReleasePhase::unit() {
  SpanGuard phase(run_.tracer, "phase.release");
  SpanGuard cycle_span(run_.tracer, "release.cycle", cycle_);
  // Deploys run on this thread; the server's workers are idle meanwhile.
  const CpuRotation cpu(cycle_);
  // Workload::deltas deltas, each checked against a Database::compile of
  // its active set; the last active set also ships as the cycle's `.kpf`.
  Step c;
  std::vector<std::string> expected;
  serve::ScanServer::SwapResult swap;
  for (int d = 0; d < w_.deltas; ++d) {
    c = make_step(lineage_, w_, serving_, opt_.seed, step_++);
    {
      const engine::Database reference = engine::Database::compile(c.next);
      expected = verdicts(reference, corpus_);
      if (d + 1 == w_.deltas) save_artifact_file(path_, c, reference);
    }
    // The pre-delta epoch, kept only for the traced stage replay.
    std::shared_ptr<const engine::Database> base;
    if (run_.trace()) base = server_.database();

    const Clock::time_point t0 = Clock::now();
    {
      SpanGuard span(run_.tracer, "serve.deploy_delta");
      std::istringstream is(c.delta_bytes);
      swap = server_.deploy_delta(is);
    }
    delta_ms_.push_back(ms_since(t0));
    run_.op(swap.accepted, "deploy_delta refused: " + swap.reason);
    check_verdicts(*server_.database(), corpus_, expected, "delta epoch", run_);
    if (run_.trace()) {
      replay_delta_stages(*base, *server_.database(), c, stages_, run_.tracer);
      stages_.publish.push_back(delta_ms_.back() - stages_.load_delta.back() -
                                stages_.lint_delta.back() -
                                stages_.extend.back());
    }
    lineage_ = std::move(c.after_delta);
  }

  // The same `.kpf` deploys and cold-starts Workload::full_deploys times. A
  // repeated full deploy publishes the same active set again.
  bool full_deployed = false;
  for (int k = 0; k < w_.full_deploys; ++k) {
    Clock::time_point t0 = Clock::now();
    {
      SpanGuard span(run_.tracer, "serve.deploy_artifact");
      std::ifstream is(path_, std::ios::binary);
      swap = server_.deploy_artifact(is);
    }
    full_ms_.push_back(ms_since(t0));
    if (swap.accepted) {
      full_deployed = true;
      run_.op(true, "deploy_artifact");
    } else {
      count_refusal(run_, "deploy_artifact", swap.reason);
    }
    // Accepted or refused, the serving epoch holds the cycle's active set.
    check_verdicts(*server_.database(), corpus_, expected, "full epoch", run_);

    t0 = Clock::now();
    std::optional<engine::Database> cold;
    std::string cold_error;
    try {
      SpanGuard span(run_.tracer, "engine.cold_start");
      cold = engine::Database::from_artifact(
          std::make_shared<const kizzle::support::MappedFile>(
              kizzle::support::MappedFile::open(path_)));
    } catch (const kizzle::Error& e) {
      cold_error = e.what();
    }
    cold_ms_.push_back(ms_since(t0));
    if (cold) {
      run_.op(true, "cold start");
      check_verdicts(*cold, corpus_, expected, "cold start", run_);
    } else {
      count_refusal(run_, "cold start", cold_error);
    }
  }

  if (run_.trace()) replay_artifact_stages(path_, stages_, run_.tracer);
  if (full_deployed) lineage_ = Lineage{std::move(c.next), {}};
  ++cycle_;
  return true;
}

void ReleasePhase::finish() {
  server_.stop();
  run_.e2e("deploy_delta_ms", low_quartile(delta_ms_), "ms");
  run_.e2e("deploy_full_ms", low_quartile(full_ms_), "ms");
  run_.e2e("cold_start_ms", low_quartile(cold_ms_), "ms");
  run_.context.push_back({"release_cycles", std::to_string(cycle_)});
  if (!run_.trace()) return;
  run_.layer("core.load_delta_ms", low_quartile(stages_.load_delta), "ms");
  run_.layer("analyze.lint_delta_ms", low_quartile(stages_.lint_delta), "ms");
  run_.layer("engine.extend_ms", low_quartile(stages_.extend), "ms");
  run_.layer("match.prefilter_build_ms", low_quartile(stages_.prefilter_build), "ms");
  run_.layer("serve.publish_ms", low_quartile(stages_.publish), "ms");
  run_.layer("core.load_artifact_ms", low_quartile(stages_.load_artifact), "ms");
  run_.layer("analyze.lint_artifact_ms", low_quartile(stages_.lint_artifact), "ms");
  run_.layer("engine.from_artifact_ms", low_quartile(cold_ms_), "ms");
}

}  // namespace

std::unique_ptr<Phase> make_release_phase(const Workload& w, const Options& opt,
                                          const Corpus& corpus,
                                          const Serving& serving, Run& run) {
  return std::make_unique<ReleasePhase>(w, opt, corpus, serving, run);
}

}  // namespace kbench
