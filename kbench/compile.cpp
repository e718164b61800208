// Compile phase: the paper's daily loop. Each simulated day is one
// kitgen::StreamSimulator::generate_day, one KizzlePipeline::process_day,
// then a first-match scan of every normalized sample of the day against
// the database deployed that day. The whole loop is repeated; a repeat
// must reproduce every per-day count exactly.
#include "kbench.h"
#include "text/abstraction.h"
#include "text/html.h"
#include "text/lexer.h"
#include "text/normalize.h"

namespace kbench {

namespace kit = kizzle::kitgen;

namespace {

// Per-day facts a repeat must reproduce.
struct DayCounts {
  std::size_t samples = 0;
  std::size_t clusters = 0;
  std::size_t issued = 0;
  std::size_t failures = 0;
  std::size_t signatures = 0;
  std::size_t matched_malicious = 0;
  std::size_t matched_benign = 0;
  bool operator==(const DayCounts&) const = default;
};

struct RepResult {
  std::vector<DayCounts> days;
  std::size_t samples = 0;
  std::size_t malicious = 0;
  std::size_t benign = 0;
  double generate_s = 0.0;
  double process_s = 0.0;
  double ingest_s = 0.0;  // replayed, traced runs only
  double map_s = 0.0;
  double reduce_s = 0.0;
  std::size_t dp_computations = 0;
  std::size_t pairs_considered = 0;
  std::size_t pairs_pruned = 0;
};

// Replays the ingest step process_day runs first (inline scripts, lexer,
// token abstraction) so its cost can be reported on its own.
double replay_ingest(const std::vector<std::string>& htmls,
                     kizzle::Interner& interner, Tracer& tracer) {
  SpanGuard span(tracer, "text.ingest");
  const Clock::time_point t0 = Clock::now();
  for (const std::string& html : htmls) {
    const std::string script = kizzle::text::inline_script_text(html);
    const auto toks = kizzle::text::lex(
        script, kizzle::text::LexOptions{.tolerant = true});
    kizzle::text::abstract_tokens(
        toks, kizzle::text::Abstraction::KeywordsAndPunct, interner);
  }
  return seconds_since(t0);
}

RepResult run_campaign(const Workload& w, const Options& opt, Run& run,
                       Corpus* corpus_out) {
  Tracer& tracer = run.tracer;
  SpanGuard rep_span(tracer, "campaign.rep");
  kit::StreamConfig cfg;
  cfg.seed = kStreamSeed;
  cfg.volume_scale = w.volume_scale;
  kit::StreamSimulator sim(cfg);
  auto pipeline = make_pipeline(sim, opt.seed);
  kizzle::Interner replay_interner;
  kizzle::engine::Scratch scratch;

  RepResult rep;
  const int first_day = kit::kAug1;
  const int last_day = kit::kAug1 + w.days - 1;
  for (int day = first_day; day <= last_day; ++day) {
    SpanGuard day_span(tracer, "campaign.day", static_cast<std::uint64_t>(day));
    Clock::time_point t0 = Clock::now();
    kit::DailyBatch batch;
    {
      SpanGuard span(tracer, "kitgen.generate_day");
      batch = sim.generate_day(day);
    }
    rep.generate_s += seconds_since(t0);
    std::vector<std::string> htmls;
    htmls.reserve(batch.samples.size());
    for (const auto& s : batch.samples) htmls.push_back(s.html);

    t0 = Clock::now();
    kizzle::core::DayReport report;
    {
      SpanGuard span(tracer, "core.process_day");
      report = pipeline->process_day(day, htmls);
    }
    rep.process_s += seconds_since(t0);
    if (tracer.on()) rep.ingest_s += replay_ingest(htmls, replay_interner, tracer);

    const auto& cs = report.cluster_stats;
    rep.map_s += cs.map_seconds;
    rep.reduce_s += cs.reduce_seconds;
    for (const auto* st : {&cs.map, &cs.reduce}) {
      rep.dp_computations += st->dp_computations;
      rep.pairs_considered += st->pairs_considered;
      rep.pairs_pruned += st->pairs_pruned_length +
                          st->pairs_pruned_histogram + st->pairs_pruned_sketch;
    }

    DayCounts dc;
    dc.samples = htmls.size();
    dc.clusters = report.n_clusters;
    for (const auto& c : report.clusters) {
      dc.issued += c.issued_signature ? 1 : 0;
      dc.failures += c.signature_failure.empty() ? 0 : 1;
    }
    dc.signatures = pipeline->signatures().size();

    const bool keep = corpus_out != nullptr && day > last_day - 3;
    {
      SpanGuard span(tracer, "engine.day_scan");
      for (const auto& s : batch.samples) {
        std::string doc = kizzle::text::normalize_raw(s.html);
        const bool malicious = s.truth != kit::Truth::Benign;
        const bool hit =
            kizzle::engine::first_match(pipeline->database(), doc, scratch)
                .has_value();
        if (malicious) {
          ++rep.malicious;
          dc.matched_malicious += hit ? 1 : 0;
        } else {
          ++rep.benign;
          dc.matched_benign += hit ? 1 : 0;
        }
        if (keep) {
          corpus_out->bytes += doc.size();
          corpus_out->docs.push_back(std::move(doc));
          corpus_out->malicious.push_back(malicious ? 1 : 0);
        }
      }
    }
    rep.samples += dc.samples;
    rep.days.push_back(dc);
  }
  if (corpus_out != nullptr) corpus_out->signatures = pipeline->signatures();
  return rep;
}

}  // namespace

namespace {

class CompilePhase : public Phase {
 public:
  CompilePhase(const Workload& w, const Options& opt, Run& run, Corpus& corpus)
      : w_(w), opt_(opt), run_(run) {
    SpanGuard span(run_.tracer, "phase.compile");
    reps_.push_back(run_campaign(w_, opt_, run_, &corpus));
    corpus_docs_ = corpus.docs.size();
    corpus_bytes_ = corpus.bytes;
  }

  bool unit() override {
    SpanGuard span(run_.tracer, "phase.compile");
    reps_.push_back(run_campaign(w_, opt_, run_, nullptr));
    const RepResult& first = reps_.front();
    const RepResult& last = reps_.back();
    std::size_t diverged = 0;
    for (std::size_t d = 0; d < first.days.size(); ++d) {
      if (!(first.days[d] == last.days[d])) ++diverged;
    }
    run_.op(diverged == 0 && first.days.size() == last.days.size(),
            "campaign repeat " + std::to_string(reps_.size()) + ": " +
                std::to_string(diverged) + " days with different counts");
    return true;
  }

  bool needs_more() const override {
    return static_cast<int>(reps_.size()) < w_.min_compile_reps;
  }

  void finish() override;

 private:
  const Workload& w_;
  const Options& opt_;
  Run& run_;
  std::vector<RepResult> reps_;
  std::size_t corpus_docs_ = 0;
  std::size_t corpus_bytes_ = 0;
};

void CompilePhase::finish() {
  std::vector<double> rate, process, generate, ingest, map, reduce, other;
  for (const RepResult& r : reps_) {
    rate.push_back(static_cast<double>(r.samples) / r.process_s);
    process.push_back(r.process_s);
    generate.push_back(r.generate_s);
    ingest.push_back(r.ingest_s);
    map.push_back(r.map_s);
    reduce.push_back(r.reduce_s);
    other.push_back(r.process_s - r.ingest_s - r.map_s - r.reduce_s);
  }
  const RepResult& r0 = reps_.front();
  std::size_t tp = 0, fp = 0, issued = 0, failures = 0;
  for (const DayCounts& d : r0.days) {
    tp += d.matched_malicious;
    fp += d.matched_benign;
    issued += d.issued;
    failures += d.failures;
  }
  run_.e2e("compile_samples_per_s", high_quartile(rate), "1/s");
  run_.e2e("tp_rate", static_cast<double>(tp) / static_cast<double>(r0.malicious),
          "fraction");
  run_.e2e("tn_rate",
          1.0 - static_cast<double>(fp) / static_cast<double>(r0.benign),
          "fraction");

  run_.layer("core.process_day_s", low_quartile(process), "s");
  run_.layer("text.ingest_s", low_quartile(ingest), "s");
  run_.layer("cluster.map_s", low_quartile(map), "s");
  run_.layer("cluster.reduce_s", low_quartile(reduce), "s");
  run_.layer("core.other_s", low_quartile(other), "s");
  run_.layer("cluster.dp_computations", static_cast<double>(r0.dp_computations),
            "count");
  run_.layer("cluster.pruned_frac",
            r0.pairs_considered == 0
                ? 0.0
                : static_cast<double>(r0.pairs_pruned) /
                      static_cast<double>(r0.pairs_considered),
            "fraction");
  run_.layer("core.signatures_issued", static_cast<double>(issued), "count");
  run_.layer("core.signature_failures", static_cast<double>(failures), "count");
  run_.layer("kitgen.generate_s", low_quartile(generate), "s");
  run_.context.push_back({"compile_reps", std::to_string(reps_.size())});
  run_.context.push_back({"campaign_samples", std::to_string(r0.samples)});
  run_.context.push_back({"corpus_docs", std::to_string(corpus_docs_)});
  run_.context.push_back({"corpus_bytes", std::to_string(corpus_bytes_)});
}

}  // namespace

std::unique_ptr<Phase> make_compile_phase(const Workload& w, const Options& opt,
                                          Run& run, Corpus& corpus) {
  return std::make_unique<CompilePhase>(w, opt, run, corpus);
}

}  // namespace kbench
