// Scan phase: single-thread engine::first_match passes over the corpus
// against the serving database. Traced runs add the layer passes
// (prefilter alone, confirmation alone) and alternate traced with
// untraced passes to measure the tracing overhead.
#include <optional>

#include "kbench.h"

namespace kbench {

namespace engine = kizzle::engine;

namespace {

constexpr int kMinPasses = 3;

struct PassResult {
  double seconds = 0.0;
  std::size_t mismatches = 0;
  std::size_t candidates = 0;
};

PassResult scan_pass(const engine::Database& db, const Corpus& corpus,
                     const std::vector<std::string>& expected,
                     engine::Scratch& scratch, Tracer* tracer) {
  PassResult r;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
    std::optional<engine::MatchEvent> ev;
    if (tracer != nullptr) {
      SpanGuard span(*tracer, "engine.first_match", i);
      ev = engine::first_match(db, corpus.docs[i], scratch);
    } else {
      ev = engine::first_match(db, corpus.docs[i], scratch);
    }
    r.candidates += scratch.stats().candidates;
    const std::string_view got = ev ? ev->name : std::string_view();
    if (got != expected[i]) ++r.mismatches;
  }
  r.seconds = seconds_since(t0);
  return r;
}

// Tier 1-2 alone and tier 3 alone over the same corpus, through the
// prefilter's and the engine's public entry points.
void layer_passes(const engine::Database& db, const Corpus& corpus, Run& run) {
  const auto& pf = db.prefilter();
  std::vector<std::vector<std::size_t>> candidates(corpus.docs.size());
  kizzle::match::teddy::HitBuffer hits;
  std::vector<std::uint32_t> hints;
  std::size_t first_stage_hits = 0, survivors = 0;
  std::vector<double> prefilter_s;
  for (int pass = 0; pass < kMinPasses; ++pass) {
    SpanGuard span(run.tracer, "match.prefilter_pass");
    first_stage_hits = survivors = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
      kizzle::match::PrefilterStats st;
      pf.candidates_into(corpus.docs[i], candidates[i], hits, &st, &hints);
      first_stage_hits += st.first_stage_hits;
      survivors += st.literal_survivors;
    }
    prefilter_s.push_back(seconds_since(t0));
  }

  engine::Scratch scratch;
  std::size_t events = 0, total_candidates = 0, vm = 0, confirms = 0;
  std::vector<double> confirm_s;
  for (int pass = 0; pass < kMinPasses; ++pass) {
    SpanGuard span(run.tracer, "engine.confirm_pass");
    events = total_candidates = vm = confirms = 0;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < corpus.docs.size(); ++i) {
      const auto outcome = engine::confirm(
          db, candidates[i], corpus.docs[i], scratch,
          [](const engine::MatchEvent&) { return engine::ScanDecision::Continue; });
      events += outcome.events;
      const engine::ScanStats& st = scratch.stats();
      total_candidates += st.candidates;
      vm += st.confirmed_vm;
      confirms += st.confirmed_literal + st.confirmed_literal_dominated +
                  st.confirmed_vm;
    }
    confirm_s.push_back(seconds_since(t0));
  }

  const auto docs = static_cast<double>(corpus.docs.size());
  run.layer("match.prefilter_mb_per_s",
            static_cast<double>(corpus.bytes) / low_quartile(prefilter_s) / 1e6, "MB/s");
  run.layer("match.first_stage_hits_per_doc",
            static_cast<double>(first_stage_hits) / docs, "count");
  run.layer("match.tier2_yield",
            first_stage_hits == 0 ? 0.0
                                  : static_cast<double>(survivors) /
                                        static_cast<double>(first_stage_hits),
            "fraction");
  run.layer("match.dense_shards", static_cast<double>(pf.dense_shard_count()),
            "count");
  run.layer("engine.confirm_us_per_doc", low_quartile(confirm_s) / docs * 1e6, "us");
  run.layer("engine.confirm_yield",
            total_candidates == 0 ? 0.0
                                  : static_cast<double>(events) /
                                        static_cast<double>(total_candidates),
            "fraction");
  run.layer("engine.confirm_vm_frac",
            confirms == 0 ? 0.0
                          : static_cast<double>(vm) / static_cast<double>(confirms),
            "fraction");
}

class ScanPhase : public Phase {
 public:
  ScanPhase(const Corpus& corpus, const Serving& serving, Run& run)
      : corpus_(corpus), serving_(serving), run_(run) {
    // Warm the scratch to the database's high-water mark.
    scan_pass(*serving_.db, corpus_, serving_.expected, scratch_, nullptr);
  }

  bool unit() override {
    SpanGuard phase(run_.tracer, "phase.scan");
    // Traced runs alternate traced and untraced passes: the ratio of their
    // fast quartiles is the tracing overhead on the span-densest loop.
    const bool traced = run_.trace() && passes_ % 2 == 1;
    // Traced runs pair each traced pass with an untraced one on one CPU.
    const CpuRotation cpu(run_.trace() ? passes_ / 2 : passes_);
    SpanGuard span(run_.tracer, "scan.pass", passes_);
    const PassResult r = scan_pass(*serving_.db, corpus_, serving_.expected,
                                   scratch_, traced ? &run_.tracer : nullptr);
    (traced ? traced_s_ : plain_s_).push_back(r.seconds);
    candidates_ += r.candidates;
    ++passes_;
    run_.op(r.mismatches == 0,
            "scan pass: " + std::to_string(r.mismatches) + " verdict mismatches");
    return true;
  }

  bool needs_more() const override {
    return passes_ < (run_.trace() ? 2 * kMinPasses : kMinPasses);
  }

  void finish() override {
    run_.e2e("scan_mb_per_s",
             static_cast<double>(corpus_.bytes) / low_quartile(plain_s_) / 1e6, "MB/s");
    run_.context.push_back({"scan_passes", std::to_string(passes_)});
    if (!run_.trace()) return;
    run_.layer("engine.candidates_per_doc",
               static_cast<double>(candidates_) /
                   static_cast<double>(passes_ * corpus_.docs.size()),
               "count");
    run_.layer("trace.overhead_pct",
               (low_quartile(traced_s_) / low_quartile(plain_s_) - 1.0) * 100.0, "%");
    layer_passes(*serving_.db, corpus_, run_);
  }

 private:
  const Corpus& corpus_;
  const Serving& serving_;
  Run& run_;
  engine::Scratch scratch_;
  std::vector<double> plain_s_, traced_s_;
  std::size_t candidates_ = 0;
  std::size_t passes_ = 0;
};

}  // namespace

std::unique_ptr<Phase> make_scan_phase(const Options&, const Corpus& corpus,
                                       const Serving& serving, Run& run) {
  return std::make_unique<ScanPhase>(corpus, serving, run);
}

}  // namespace kbench
