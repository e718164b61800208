// Streaming scan + persistence tests (the deployment-channel tentpole):
// StreamingMatcher must be byte-identical to one-shot candidates() over
// every chunking of a corpus, serialize()/load() must round-trip to a
// prefilter with identical output and identical serialized bytes, and
// the bundle artifact must drive SignatureBundle to identical verdicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/deploy.h"
#include "core/pipeline.h"
#include "core/sigdb.h"
#include "kitgen/families.h"
#include "kitgen/packers.h"
#include "kitgen/payload.h"
#include "kitgen/stream.h"
#include "match/pattern.h"
#include "match/prefilter.h"
#include "support/rng.h"
#include "text/normalize.h"

namespace kizzle::match {
namespace {

// ----------------------------- corpus setup -----------------------------

std::vector<std::string> kitgen_corpus() {
  Rng rng(0xFEED5EED);
  std::vector<std::string> samples;
  for (int i = 0; i < 4; ++i) {
    kitgen::PayloadSpec spec;
    spec.family = kitgen::KitFamily::Nuclear;
    spec.cves = kitgen::kit_info(kitgen::KitFamily::Nuclear).cves;
    spec.av_check = true;
    spec.urls = {kitgen::make_landing_url(rng)};
    samples.push_back(text::normalize_raw(
        pack_nuclear(payload_text(spec), kitgen::NuclearPackerState{}, rng)));
    spec.family = kitgen::KitFamily::Rig;
    spec.cves = kitgen::kit_info(kitgen::KitFamily::Rig).cves;
    samples.push_back(text::normalize_raw(
        pack_rig(payload_text(spec), kitgen::RigPackerState{}, rng)));
  }
  samples.push_back("");                      // empty document
  samples.push_back("no literals here at all");
  return samples;
}

// A prefilter shaped like a deployed database: literal chunks cut from the
// corpus (most from *other* samples), shared literals, and fallback ids.
LiteralPrefilter corpus_prefilter(const std::vector<std::string>& corpus) {
  LiteralPrefilter pf;
  Rng rng(0xAB);
  std::size_t id = 0;
  for (const std::string& text : corpus) {
    if (text.size() < 64) continue;
    for (int k = 0; k < 3; ++k) {
      const std::size_t len = 12 + rng.index(24);
      const std::size_t at = rng.index(text.size() - len);
      pf.add(id++, text.substr(at, len));
    }
  }
  pf.add(id++, "fromCharCode");
  pf.add(id++, "fromCharCode");  // shared literal
  pf.add(id++, "");              // fallback
  pf.add(id++, "");
  pf.build();
  return pf;
}

std::vector<std::size_t> chunk_sizes_for(std::size_t n) {
  std::vector<std::size_t> sizes = {1, 7, 4096};
  sizes.push_back(std::max<std::size_t>(n, 1));  // whole text in one chunk
  return sizes;
}

// ------------------------- chunking oracle tests -------------------------

TEST(StreamingMatcher, EveryChunkingMatchesOneShotCandidates) {
  const auto corpus = kitgen_corpus();
  const LiteralPrefilter pf = corpus_prefilter(corpus);
  for (const std::string& text : corpus) {
    const auto expect = pf.candidates(text);
    for (const std::size_t chunk : chunk_sizes_for(text.size())) {
      StreamingMatcher m(pf);
      for (std::size_t at = 0; at < text.size(); at += chunk) {
        m.feed(std::string_view(text).substr(at, chunk));
      }
      EXPECT_EQ(m.finish(), expect)
          << "text size " << text.size() << " chunk " << chunk;
      EXPECT_EQ(m.bytes_fed(), text.size());
    }
  }
}

TEST(StreamingMatcher, LiteralStraddlingEveryChunkBoundaryIsFound) {
  LiteralPrefilter pf;
  pf.add(0, "straddle");
  pf.add(1, "xyz");
  pf.build();
  const std::string text = "aa straddle bb xyz cc";
  const auto expect = pf.candidates(text);
  ASSERT_EQ(expect, (std::vector<std::size_t>{0, 1}));
  // Split at every position: each literal straddles some split.
  for (std::size_t split = 0; split <= text.size(); ++split) {
    StreamingMatcher m(pf);
    m.feed(std::string_view(text).substr(0, split));
    m.feed(std::string_view(text).substr(split));
    EXPECT_EQ(m.finish(), expect) << "split at " << split;
  }
}

TEST(StreamingMatcher, FinishIsASnapshotAndResetRewinds) {
  LiteralPrefilter pf;
  pf.add(0, "alpha");
  pf.add(1, "beta");
  pf.add(2, "");
  pf.build();
  StreamingMatcher m(pf);
  m.feed("has alp");
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{2}));
  m.feed("ha only");  // completes "alpha" across the two feeds
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{0, 2}));
  m.feed(" and beta");
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{0, 1, 2}));
  m.reset();
  EXPECT_EQ(m.bytes_fed(), 0u);
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{2}));
  m.feed("beta");
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{1, 2}));
}

TEST(StreamingMatcher, RequiresBuiltPrefilter) {
  LiteralPrefilter pf;
  pf.add(0, "abc");
  EXPECT_THROW(StreamingMatcher{pf}, std::logic_error);
}

TEST(StreamingMatcher, FallbackOnlyPrefilterYieldsFallbackIds) {
  LiteralPrefilter pf;
  pf.add(0, "");
  pf.add(1, "");
  pf.build();
  StreamingMatcher m(pf);
  m.feed("anything at all");
  EXPECT_EQ(m.finish(), (std::vector<std::size_t>{0, 1}));
}

// ------------------------ serialization round trip ------------------------

TEST(PrefilterSerialization, RoundTripIsByteIdenticalOnFullCorpus) {
  const auto corpus = kitgen_corpus();
  const LiteralPrefilter built = corpus_prefilter(corpus);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  built.serialize(blob);
  const LiteralPrefilter loaded = LiteralPrefilter::load(blob);
  std::stringstream again(std::ios::in | std::ios::out | std::ios::binary);
  loaded.serialize(again);
  EXPECT_TRUE(again.str() == blob.str()) << "re-serialized bytes differ";

  EXPECT_EQ(loaded.id_count(), built.id_count());
  EXPECT_EQ(loaded.fallback_count(), built.fallback_count());
  EXPECT_EQ(loaded.fallback_ids(), built.fallback_ids());
  for (const std::string& text : corpus) {
    EXPECT_EQ(loaded.candidates(text), built.candidates(text));
  }
  // And chunked streaming over the loaded prefilter agrees too.
  for (const std::string& text : corpus) {
    StreamingMatcher m(loaded);
    for (std::size_t at = 0; at < text.size(); at += 7) {
      m.feed(std::string_view(text).substr(at, 7));
    }
    EXPECT_EQ(m.finish(), built.candidates(text));
  }
}

TEST(PrefilterSerialization, LoadedAutomatonSupportsFurtherAddAndBuild) {
  LiteralPrefilter pf;
  pf.add(0, "first");
  pf.add(1, "");
  pf.build();
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  pf.serialize(blob);
  LiteralPrefilter loaded = LiteralPrefilter::load(blob);
  loaded.add(2, "second");
  loaded.build();
  EXPECT_EQ(loaded.candidates("first second"),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(PrefilterSerialization, SerializeBeforeBuildThrows) {
  LiteralPrefilter pf;
  pf.add(0, "abc");
  std::stringstream blob;
  EXPECT_THROW(pf.serialize(blob), std::logic_error);
}

TEST(PrefilterSerialization, RejectsCorruptInput) {
  LiteralPrefilter pf;
  pf.add(0, "needle");
  pf.add(1, "");
  pf.build();
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  pf.serialize(blob);
  const std::string good = blob.str();

  {  // bad magic
    std::string bad = good;
    bad[0] = 'X';
    std::istringstream is(bad);
    EXPECT_THROW(LiteralPrefilter::load(is), std::runtime_error);
  }
  {  // unknown version
    std::string bad = good;
    bad[4] = static_cast<char>(0x7F);
    std::istringstream is(bad);
    EXPECT_THROW(LiteralPrefilter::load(is), std::runtime_error);
  }
  {  // foreign endianness
    std::string bad = good;
    std::swap(bad[8], bad[11]);
    std::istringstream is(bad);
    EXPECT_THROW(LiteralPrefilter::load(is), std::runtime_error);
  }
  {  // truncation
    std::istringstream is(good.substr(0, good.size() / 2));
    EXPECT_THROW(LiteralPrefilter::load(is), std::runtime_error);
  }
  {  // payload corruption is caught by the checksum
    std::string bad = good;
    bad[good.size() / 2] ^= 0x40;
    std::istringstream is(bad);
    EXPECT_THROW(LiteralPrefilter::load(is), std::runtime_error);
  }
}

TEST(PrefilterSerialization, EmptyAutomatonRoundTrips) {
  LiteralPrefilter pf;
  pf.build();
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  pf.serialize(blob);
  const LiteralPrefilter loaded = LiteralPrefilter::load(blob);
  EXPECT_EQ(loaded.id_count(), 0u);
  EXPECT_TRUE(loaded.candidates("whatever").empty());
}

}  // namespace
}  // namespace kizzle::match

// ------------------------- bundle artifact tests -------------------------

namespace kizzle::core {
namespace {

std::vector<DeployedSignature> artifact_signatures() {
  const std::vector<std::string> patterns = {
      "landingpage[0-9]+", "fromCharCode", "[0-9]+[a-z]+",  // fallback
      "substrabc\\(\\)",   "fromCharCode",                  // duplicate literal
  };
  std::vector<DeployedSignature> sigs;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    DeployedSignature s;
    s.name = "KZ.T." + std::to_string(i);
    s.family = "Test";
    s.issued_day = static_cast<int>(i);
    s.token_length = 10 + i;
    s.pattern = patterns[i];
    sigs.push_back(s);
  }
  return sigs;
}

TEST(BundleArtifact, RoundTripPreservesSignaturesAndPrefilter) {
  const auto sigs = artifact_signatures();
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  save_artifact(blob, sigs);
  const BundleArtifact loaded = load_artifact(blob);
  ASSERT_EQ(loaded.signatures.size(), sigs.size());
  for (std::size_t i = 0; i < sigs.size(); ++i) {
    EXPECT_EQ(loaded.signatures[i].name, sigs[i].name);
    EXPECT_EQ(loaded.signatures[i].pattern, sigs[i].pattern);
    EXPECT_EQ(loaded.signatures[i].issued_day, sigs[i].issued_day);
    EXPECT_EQ(loaded.signatures[i].token_length, sigs[i].token_length);
  }
  // The shipped prefilter blob, loaded on its own, has one id per
  // signature, and its candidates are byte-identical to a fresh build.
  const std::string bytes = blob.str();
  const match::LiteralPrefilter shipped = match::LiteralPrefilter::load(
      std::as_bytes(std::span<const char>(bytes))
          .subspan(loaded.prefilter_offset));
  EXPECT_EQ(shipped.id_count(), sigs.size());
  SignatureBundle fresh(sigs);
  const std::vector<std::string> texts = {
      "xx landingpage42", "xx fromCharCode yy", "123abc456", "substrabc()",
      "nothing", ""};
  for (const std::string& t : texts) {
    EXPECT_EQ(shipped.candidates(t), fresh.prefilter().candidates(t)) << t;
  }
}

TEST(BundleArtifact, ArtifactLoadedBundleMatchesFreshBundle) {
  const auto sigs = artifact_signatures();
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  save_artifact(blob, sigs);
  const SignatureBundle from_artifact(blob);
  const SignatureBundle fresh(sigs);
  ASSERT_EQ(from_artifact.size(), fresh.size());
  const std::vector<std::string> texts = {
      "xx landingpage42", "xx fromCharCode yy", "123abc456", "substrabc()",
      "nothing", ""};
  for (const std::string& t : texts) {
    EXPECT_EQ(from_artifact.match(t), fresh.match(t)) << t;
  }
}

TEST(BundleArtifact, RejectsBadMagicAndTruncation) {
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  save_artifact(blob, artifact_signatures());
  const std::string good = blob.str();
  {
    std::string bad = good;
    bad[0] = 'x';
    std::istringstream is(bad);
    EXPECT_THROW(load_artifact(is), std::runtime_error);
  }
  {
    std::istringstream is(good.substr(0, good.size() - 9));
    EXPECT_THROW(load_artifact(is), std::runtime_error);
  }
}

TEST(BundleArtifact, PipelineExportLoadsIntoEquivalentBundle) {
  // Run the real pipeline for a couple of simulated days, export the
  // artifact at release time, and check a deployment process loading it
  // scans identically to one rebuilding from the signature list.
  kitgen::StreamConfig scfg;
  scfg.volume_scale = 0.10;
  kitgen::StreamSimulator sim(scfg);
  KizzlePipeline pipeline(PipelineConfig{}, 20140801);
  for (const auto& [family, payload] : sim.seed_corpus()) {
    pipeline.seed_family(std::string(kitgen::family_name(family)), 0.55,
                         payload);
  }
  std::vector<std::string> scan_texts;
  for (int day = kitgen::kAug1; day < kitgen::kAug1 + 2; ++day) {
    const auto batch = sim.generate_day(day);
    std::vector<std::string> htmls;
    for (const auto& s : batch.samples) htmls.push_back(s.html);
    pipeline.process_day(day, htmls);
    for (std::size_t i = 0; i < htmls.size(); i += 7) {
      scan_texts.push_back(text::normalize_raw(htmls[i]));
    }
  }
  ASSERT_FALSE(pipeline.signatures().empty());

  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  pipeline.export_artifact(blob);
  const SignatureBundle from_artifact(blob);
  const SignatureBundle fresh(pipeline.signatures());
  ASSERT_EQ(from_artifact.size(), pipeline.signatures().size());
  for (const std::string& t : scan_texts) {
    EXPECT_EQ(from_artifact.match(t), fresh.match(t));
  }
}

TEST(BundleArtifact, EmptyPipelineExportsLoadableArtifact) {
  KizzlePipeline pipeline(PipelineConfig{}, 1);
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  pipeline.export_artifact(blob);
  const SignatureBundle bundle(blob);
  EXPECT_EQ(bundle.size(), 0u);
  EXPECT_FALSE(bundle.match("anything").has_value());
}

// ----------------- chunked channel scans vs one-shot -----------------

TEST(BundleArtifact, StreamMatchEqualsOneShotOverAllChunkings) {
  const auto sigs = artifact_signatures();
  const SignatureBundle bundle(sigs);
  const std::vector<std::string> texts = {
      "xx landingpage42", "xx fromCharCode yy", "123abc456", "substrabc()",
      "nothing", std::string(9000, 'a') + "landingpage7" + std::string(5000, 'b'),
      ""};
  for (const std::string& t : texts) {
    const auto expect = bundle.match(t);
    for (const std::size_t chunk :
         std::vector<std::size_t>{1, 7, 4096, std::max<std::size_t>(t.size(), 1)}) {
      auto stream = bundle.begin_stream();
      for (std::size_t at = 0; at < t.size(); at += chunk) {
        stream.feed(std::string_view(t).substr(at, chunk));
      }
      EXPECT_EQ(stream.finish(), expect) << "chunk " << chunk;
      EXPECT_EQ(stream.normalized(), t);
    }
  }
}

}  // namespace
}  // namespace kizzle::core
