// Serving set, the set-up phase and the `.kpf` cold start of the serving
// set.
#include <filesystem>
#include <fstream>
#include <string>

#include "core/sigdb.h"
#include "kbench.h"
#include "match/pattern.h"
#include "serve/server.h"
#include "support/errors.h"
#include "support/mapped_file.h"
#include "support/rng.h"
#include "text/normalize.h"

namespace kbench {

namespace core = kizzle::core;
namespace engine = kizzle::engine;
namespace kit = kizzle::kitgen;

namespace {

constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kDonorChunk = 40;
// Set-up starts the server with the worker count the serve phase uses.
constexpr std::size_t kServeWorkers = 2;

// Donor signatures are the same for every --seed: the seed varies the
// traffic and the pipeline's own signatures, while the database a
// workload tops up to keeps one literal population. (Drawn per seed, one
// low-entropy chunk in 10,000 can multiply first-stage hits a hundredfold
// and turn the workload into a different one.)
constexpr std::uint64_t kDonorSeed = 20140802;

std::vector<std::string> make_donor_texts() {
  kit::StreamConfig cfg;
  cfg.seed = kDonorSeed;
  cfg.volume_scale = 0.2;
  kit::StreamSimulator sim(cfg);
  std::vector<std::string> texts;
  for (const auto& s : sim.generate_day(kit::kAug1).samples) {
    std::string doc = kizzle::text::normalize_raw(s.html);
    if (doc.size() >= 4 * kDonorChunk) texts.push_back(std::move(doc));
  }
  if (texts.empty()) throw std::runtime_error("no donor samples");
  return texts;
}

}  // namespace

core::DeployedSignature donor_signature(
    const std::vector<std::string>& donor_texts, std::size_t i) {
  kizzle::Rng rng(kDonorSeed * 0x9E3779B97F4A7C15ull + i);
  const std::string& donor = donor_texts[rng.index(donor_texts.size())];
  // The "#<i>" salt keeps the chunk from occurring in scanned text, so a
  // donor signature costs the prefilter work but never fires.
  const std::string chunk =
      donor.substr(rng.index(donor.size() - kDonorChunk - 8), kDonorChunk) +
      "#" + std::to_string(i);
  core::DeployedSignature sig;
  sig.name = "KZ.Donor." + std::to_string(i);
  sig.family = "Donor";
  sig.issued_day = kit::kAug31;
  sig.pattern = kizzle::match::Pattern::escape(chunk) + "[0-9a-zA-Z]{0,8}";
  sig.token_length = kDonorChunk;
  return sig;
}

namespace {

// Set-up: what a serving node does before its first scan — build and
// seed the pipeline, compile the serving set, start the scan service. One
// unit is one repeat; setup_s is the fast quartile (kbench.h) over every
// repeat of the run.
class SetupPhase : public Phase {
 public:
  SetupPhase(const Workload& w, const Options& opt,
             const std::vector<core::DeployedSignature>& signatures, Run& run)
      : opt_(opt), signatures_(signatures), run_(run), sim_(stream_config(w)) {}

  // One repeat; returns the database it compiled.
  std::shared_ptr<const engine::Database> rep() {
    SpanGuard span(run_.tracer, "setup.rep");
    const Clock::time_point t0 = Clock::now();
    {
      SpanGuard s(run_.tracer, "core.make_pipeline");
      make_pipeline(sim_, opt_.seed);
    }
    const Clock::time_point t1 = Clock::now();
    std::shared_ptr<const engine::Database> db;
    {
      SpanGuard s(run_.tracer, "engine.compile");
      db = std::make_shared<const engine::Database>(
          engine::Database::compile(signatures_));
    }
    compile_s_.push_back(seconds_since(t1));
    {
      SpanGuard s(run_.tracer, "serve.start_stop");
      kizzle::serve::ServerConfig cfg;
      cfg.workers = kServeWorkers;
      kizzle::serve::ScanServer server(db, cfg);
      server.stop();
    }
    setup_s_.push_back(seconds_since(t0));
    return db;
  }

  bool unit() override {
    SpanGuard phase(run_.tracer, "phase.setup");
    rep();
    return true;
  }
  bool needs_more() const override { return setup_s_.size() < kMinSetupReps; }
  void finish() override {
    run_.e2e("setup_s", low_quartile(setup_s_), "s");
    run_.layer("engine.compile_s", low_quartile(compile_s_), "s");
    run_.context.push_back({"setup_reps", std::to_string(setup_s_.size())});
  }

 private:
  static kit::StreamConfig stream_config(const Workload& w) {
    kit::StreamConfig cfg;
    cfg.seed = kStreamSeed;
    cfg.volume_scale = w.volume_scale;
    return cfg;
  }

  const Options& opt_;
  const std::vector<core::DeployedSignature>& signatures_;
  Run& run_;
  const kit::StreamSimulator sim_;
  std::vector<double> setup_s_, compile_s_;
};

}  // namespace

bool known_kpf_defect(const std::string& what) {
  return what.find("implausible table size") != std::string::npos;
}

std::unique_ptr<Phase> make_setup_phase(const Workload& w, const Options& opt,
                                        const Corpus& corpus, Run& run,
                                        Serving& serving) {
  SpanGuard phase(run.tracer, "phase.setup");
  serving.donor_texts = make_donor_texts();
  serving.signatures = corpus.signatures;
  for (std::size_t i = serving.signatures.size(); i < w.active_sigs; ++i) {
    serving.signatures.push_back(donor_signature(serving.donor_texts, i));
  }
  auto setup = std::make_unique<SetupPhase>(w, opt, serving.signatures, run);
  // The first set-up's database is the reference: every expected verdict
  // comes from it.
  serving.db = setup->rep();
  serving.expected = verdicts(*serving.db, corpus);

  // Ship the serving set as a `.kpf` and cold-start it from an mmap the
  // way `kizzle serve <artifact>` does.
  const std::string path = opt.work_dir + "/serving-" + w.name + "-" +
                           std::to_string(opt.seed) + ".kpf";
  {
    std::ofstream os(path, std::ios::binary);
    core::save_artifact(os, serving.signatures);
    if (!os) throw std::runtime_error("cannot write " + path);
  }
  run.e2e("release_bytes",
          static_cast<double>(std::filesystem::file_size(path)), "bytes");
  try {
    SpanGuard span(run.tracer, "engine.from_artifact");
    auto mapping = std::make_shared<const kizzle::support::MappedFile>(
        kizzle::support::MappedFile::open(path));
    const engine::Database loaded = engine::Database::from_artifact(mapping);
    run.op(true, "serving .kpf cold start");
    check_verdicts(loaded, corpus, serving.expected, "serving .kpf cold start",
                   run);
    run.context.push_back({"serving_kpf_cold_start", "\"ok\""});
  } catch (const kizzle::Error& e) {
    // A refusal by the documented defect (README.md) counts against
    // ops_ok_frac; the run serves from the compiled reference either way.
    const std::string what = e.what();
    run.op(false, "serving .kpf cold start refused: " + what,
           known_kpf_defect(what));
    run.context.push_back(
        {"serving_kpf_cold_start", json_str("refused: " + what)});
  }
  std::filesystem::remove(path);
  run.context.push_back({"serving_signatures",
                         std::to_string(serving.signatures.size())});
  return setup;
}

}  // namespace kbench
