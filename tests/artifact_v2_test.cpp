// Artifact layer tests (core/sigdb.h, engine/engine.h, serve/server.h):
// the version-2 bundle through every load path — istream copy-in, in-place
// verification of a std::span at any alignment, and an mmap'd file that
// the database must not depend on after loading — plus the release bytes
// pinned against a committed artifact, and KZDELTA delta artifacts end to
// end: save / load / apply / retire, lineage-fingerprint enforcement, the
// serve deploy_delta gate, and the watcher's partial-write debounce. The
// lifetime oracles (a mapping dropped or rewritten after load, a stream
// pinned across an epoch swap) are the ones that only bite under ASan: a
// dangling view into a mapping has no crash signature in a plain build.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/deploy.h"
#include "core/pipeline.h"
#include "core/sigdb.h"
#include "engine/engine.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "support/errors.h"
#include "support/mapped_file.h"

namespace kizzle {
namespace {

// One pipeline-built fixture per process (a real kitgen day: corpus docs,
// the deployed database, artifact bytes for the swap paths).
const serve::ServeFixture& fixture() {
  static const serve::ServeFixture fx = [] {
    serve::FixtureConfig cfg;
    cfg.max_docs = 64;
    return serve::make_fixture(cfg);
  }();
  return fx;
}

std::string write_temp(const std::string& bytes, const std::string& tag) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("kizzle_artifact_v2_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  return path;
}

void expect_same_signatures(const std::vector<core::DeployedSignature>& a,
                            const std::vector<core::DeployedSignature>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].family, b[i].family);
    EXPECT_EQ(a[i].issued_day, b[i].issued_day);
    EXPECT_EQ(a[i].pattern, b[i].pattern);
    EXPECT_EQ(a[i].token_length, b[i].token_length);
  }
}

// ------------------------- bundle v2 load paths -------------------------

TEST(ArtifactV2, IstreamRoundTripPreservesSignatures) {
  const serve::ServeFixture& fx = fixture();
  std::istringstream is(fx.artifact);
  std::vector<core::DeployedSignature> loaded;
  const engine::Database db = engine::Database::from_artifact(is, &loaded);
  expect_same_signatures(loaded, fx.signatures);
  EXPECT_EQ(db.size(), fx.signatures.size());
  EXPECT_EQ(db.fingerprint(), fx.database->fingerprint());
}

std::string serialized(const match::LiteralPrefilter& pf) {
  std::ostringstream os;
  pf.serialize(os);
  return os.str();
}

TEST(ArtifactV2, SpanLoadVerifiesInPlaceAtAnyAlignment) {
  const serve::ServeFixture& fx = fixture();
  const std::string expect = serialized(fx.database->prefilter());
  // A 64-byte-aligned copy of the artifact and one with a byte of skew:
  // the section reads are alignment-agnostic, and neither the loaded
  // artifact nor its prefilter blob loaded on its own refers to the buffer
  // — the prefilter keeps scanning correctly after the bytes it was loaded
  // from are overwritten.
  std::vector<std::byte> raw(fx.artifact.size() + 65);
  std::byte* aligned = reinterpret_cast<std::byte*>(
      (reinterpret_cast<std::uintptr_t>(raw.data()) + 63) & ~std::uintptr_t{63});
  for (const std::size_t skew : {std::size_t{0}, std::size_t{1}}) {
    std::byte* base = aligned + skew;
    std::memcpy(base, fx.artifact.data(), fx.artifact.size());
    const std::span<const std::byte> bytes{base, fx.artifact.size()};
    const core::BundleArtifact loaded = core::load_artifact(bytes);
    const match::LiteralPrefilter pf =
        match::LiteralPrefilter::load(bytes.subspan(loaded.prefilter_offset));
    std::memset(base, 0xA5, fx.artifact.size());
    expect_same_signatures(loaded.signatures, fx.signatures);
    EXPECT_EQ(serialized(pf), expect) << "skew " << skew;
    for (const serve::CorpusDoc& doc : fx.docs) {
      ASSERT_EQ(pf.candidates(doc.text),
                fx.database->prefilter().candidates(doc.text))
          << "skew " << skew;
    }
  }
}

// The release bytes are a pure function of the signature set: re-saving
// the embedded signatures of the committed demo artifact reproduces it
// byte for byte (serialize() compiles the automaton tables as it writes,
// so this pins that compilation too).
TEST(ArtifactV2, ReleaseBytesReproduceCommittedArtifact) {
  const std::filesystem::path path = std::filesystem::path(KIZZLE_FUZZ_DIR) /
                                     "corpus" / "artifact_v2" / "demo_v2.kpf";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  const std::string committed{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
  ASSERT_EQ(committed.size(), 301000u);
  std::istringstream is(committed);
  const core::BundleArtifact loaded = core::load_artifact(is);
  std::ostringstream os;
  core::save_artifact(os, loaded.signatures);
  EXPECT_TRUE(os.str() == committed) << "re-saved artifact differs";
}

// The load-path differential oracle: over a full kitgen corpus, a
// database loaded through the mmap zero-copy path must produce verdicts
// byte-identical to the istream copy-in path.
TEST(ArtifactV2, MmapVsIstreamVerdictsAgreeOnKitgenCorpus) {
  const serve::ServeFixture& fx = fixture();
  const std::string path = write_temp(fx.artifact, "oracle");

  auto mapping = std::make_shared<const support::MappedFile>(
      support::MappedFile::open(path));
  const engine::Database mmap_db =
      engine::Database::from_artifact(mapping);
  std::istringstream is(fx.artifact);
  const engine::Database stream_db = engine::Database::from_artifact(is);
  EXPECT_EQ(mmap_db.fingerprint(), stream_db.fingerprint());

  engine::Scratch s1, s2;
  std::size_t matched = 0;
  for (const serve::CorpusDoc& doc : fx.docs) {
    const auto a = engine::first_match(mmap_db, doc.text, s1);
    const auto b = engine::first_match(stream_db, doc.text, s2);
    ASSERT_EQ(a.has_value(), b.has_value()) << "verdicts diverge";
    if (a) {
      EXPECT_EQ(a->sig_index, b->sig_index);
      EXPECT_EQ(std::string(a->name), std::string(b->name));
      ++matched;
    }
  }
  EXPECT_GT(matched, 0u) << "oracle corpus never matched — vacuous test";
  std::remove(path.c_str());
}

TEST(ArtifactV2, Version1ArtifactStillLoads) {
  const serve::ServeFixture& fx = fixture();
  std::ostringstream os;
  core::save_artifact(os, fx.signatures, nullptr, /*version=*/1);
  const std::string v1 = os.str();

  std::istringstream is(v1);
  std::vector<core::DeployedSignature> loaded;
  const engine::Database db = engine::Database::from_artifact(is, &loaded);
  expect_same_signatures(loaded, fx.signatures);
  EXPECT_EQ(db.fingerprint(), fx.database->fingerprint());

  // The span loader accepts v1 too (replaying through the stream path).
  std::vector<std::byte> buf(v1.size());
  std::memcpy(buf.data(), v1.data(), v1.size());
  const core::BundleArtifact bundle = core::load_artifact(buf);
  EXPECT_EQ(bundle.version, 1u);
  expect_same_signatures(bundle.signatures, fx.signatures);
}

// Lifetime: nothing in the database refers to the mapping it was loaded
// from. After the caller drops the only reference (unmapping the file),
// scans must still read valid memory — under ASan this is the
// unmap-after-load test.
TEST(ArtifactV2, DatabaseKeepsMappingAliveAfterCallerDrops) {
  const serve::ServeFixture& fx = fixture();
  const std::string path = write_temp(fx.artifact, "keepalive");
  std::unique_ptr<engine::Database> db;
  {
    auto mapping = std::make_shared<const support::MappedFile>(
        support::MappedFile::open(path));
    db = std::make_unique<engine::Database>(
        engine::Database::from_artifact(std::move(mapping)));
  }  // the only external reference to the mapping is gone
  std::remove(path.c_str());

  engine::Scratch scratch;
  std::size_t matched = 0;
  for (const serve::CorpusDoc& doc : fx.docs) {
    if (engine::first_match(*db, doc.text, scratch)) ++matched;
  }
  EXPECT_GT(matched, 0u);
}

// A stream pinned to an epoch loaded from a mapping survives a hot swap
// that retires that epoch: the stream must finish on its opening database
// reading valid memory (ASan catches the alternative).
TEST(ArtifactV2, PinnedStreamSurvivesSwapAwayFromMmapEpoch) {
  const serve::ServeFixture& fx = fixture();
  const std::string path = write_temp(fx.artifact, "pinned");
  auto mapping = std::make_shared<const support::MappedFile>(
      support::MappedFile::open(path));
  auto mmap_db = std::make_shared<const engine::Database>(
      engine::Database::from_artifact(std::move(mapping)));
  std::remove(path.c_str());

  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::ScanServer server(std::move(mmap_db), cfg);
  const std::uint64_t epoch0 = server.epoch();

  // Pick a doc the original database matches, so the verdict proves the
  // pinned database was actually scanned.
  const serve::CorpusDoc* target = nullptr;
  {
    engine::Scratch scratch;
    for (const serve::CorpusDoc& doc : fx.docs) {
      if (engine::first_match(*fx.database, doc.text, scratch)) {
        target = &doc;
        break;
      }
    }
  }
  ASSERT_NE(target, nullptr);

  serve::ScanServer::Stream stream = server.open_stream();
  EXPECT_EQ(stream.epoch(), epoch0);
  const std::size_t half = target->text.size() / 2;
  ASSERT_EQ(stream.feed(target->text.substr(0, half)),
            serve::RequestStatus::kOk);

  // Swap the serving database away: the server drops its reference to the
  // first epoch; only the pinned stream still holds it.
  std::istringstream art(fx.swap_artifact);
  ASSERT_TRUE(server.deploy_artifact(art).accepted);

  ASSERT_EQ(stream.feed(target->text.substr(half)),
            serve::RequestStatus::kOk);
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  serve::ScanResponse resp;
  ASSERT_EQ(stream.finish([&](serve::ScanResponse r) {
              std::lock_guard<std::mutex> lock(mu);
              resp = std::move(r);
              done = true;
              cv.notify_one();
            }),
            serve::RequestStatus::kOk);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }
  EXPECT_EQ(resp.status, serve::RequestStatus::kOk);
  EXPECT_EQ(resp.epoch, epoch0);
  EXPECT_TRUE(resp.matched);
  server.stop();
}

// ------------------------------ deltas ---------------------------------

core::DeployedSignature canary_signature(std::size_t base_size) {
  core::DeployedSignature canary;
  canary.name = "KZ.DeltaCanary." + std::to_string(base_size);
  canary.family = "DeltaCanary";
  canary.issued_day = 99;
  canary.pattern = "kzdeltacanaryliteralzz";
  canary.token_length = canary.pattern.size();
  return canary;
}

TEST(DeltaArtifact, SaveLoadRoundTrip) {
  const serve::ServeFixture& fx = fixture();
  core::DeltaArtifact delta;
  delta.base_fingerprint = core::fingerprint(fx.signatures);
  delta.retired = {0};
  delta.added = {canary_signature(fx.signatures.size())};
  std::vector<core::DeployedSignature> result = fx.signatures;
  result.push_back(delta.added[0]);
  delta.result_fingerprint = core::fingerprint(result, delta.retired);

  std::ostringstream os;
  core::save_delta(os, delta);
  std::istringstream is(os.str());
  const core::DeltaArtifact loaded = core::load_delta(is);
  EXPECT_EQ(loaded.base_fingerprint, delta.base_fingerprint);
  EXPECT_EQ(loaded.result_fingerprint, delta.result_fingerprint);
  EXPECT_EQ(loaded.retired, delta.retired);
  expect_same_signatures(loaded.added, delta.added);
}

TEST(DeltaArtifact, CorruptedPayloadIsRefusedByChecksum) {
  core::DeltaArtifact delta;
  delta.added = {canary_signature(0)};
  delta.result_fingerprint =
      core::fingerprint(delta.added, delta.retired);
  std::ostringstream os;
  core::save_delta(os, delta);
  std::string bytes = os.str();
  bytes[32] ^= 0x01;  // one payload bit
  std::istringstream is(bytes);
  EXPECT_THROW(core::load_delta(is), ArtifactError);

  std::istringstream truncated(os.str().substr(0, os.str().size() - 9));
  EXPECT_THROW(core::load_delta(truncated), Error);
}

TEST(DeltaArtifact, ExtendAppliesAddsAndTombstones) {
  const serve::ServeFixture& fx = fixture();
  const engine::Database base = engine::Database::compile(fx.signatures);
  ASSERT_EQ(base.fingerprint(), core::fingerprint(fx.signatures));

  core::DeltaArtifact delta;
  delta.base_fingerprint = base.fingerprint();
  delta.retired = {0};
  delta.added = {canary_signature(fx.signatures.size())};
  std::vector<core::DeployedSignature> result = fx.signatures;
  result.push_back(delta.added[0]);
  delta.result_fingerprint = core::fingerprint(result, delta.retired);

  const engine::Database next = base.extend(delta);
  EXPECT_EQ(next.size(), fx.signatures.size() + 1);
  EXPECT_EQ(next.active_size(), fx.signatures.size());
  EXPECT_TRUE(next.entry_retired(0));
  EXPECT_FALSE(next.entry_retired(1));
  EXPECT_EQ(next.fingerprint(), delta.result_fingerprint);

  // The added signature matches; the tombstoned slot never does again.
  engine::Scratch scratch;
  const auto hit = engine::first_match(
      next, "prefix kzdeltacanaryliteralzz suffix", scratch);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->sig_index, fx.signatures.size());
  for (const serve::CorpusDoc& doc : fx.docs) {
    const auto m = engine::first_match(next, doc.text, scratch);
    if (m) EXPECT_NE(m->sig_index, 0u) << "retired slot produced a match";
  }
}

TEST(DeltaArtifact, LineageMismatchesAreRefused) {
  const serve::ServeFixture& fx = fixture();
  const engine::Database base = engine::Database::compile(fx.signatures);

  core::DeltaArtifact wrong_base;
  wrong_base.base_fingerprint = base.fingerprint() ^ 1;
  EXPECT_THROW(base.extend(wrong_base), ArtifactError);

  core::DeltaArtifact wrong_result;
  wrong_result.base_fingerprint = base.fingerprint();
  wrong_result.added = {canary_signature(fx.signatures.size())};
  wrong_result.result_fingerprint = 0xDEAD;
  EXPECT_THROW(base.extend(wrong_result), ArtifactError);

  core::DeltaArtifact bad_retire;
  bad_retire.base_fingerprint = base.fingerprint();
  bad_retire.retired = {fx.signatures.size() + 100};
  EXPECT_THROW(base.extend(bad_retire), ArtifactError);
}

TEST(DeltaArtifact, EmptyPipelineExportsSelfConsistentDelta) {
  core::KizzlePipeline pipeline(core::PipelineConfig{}, 1);
  std::ostringstream os;
  pipeline.export_delta(os, 0);
  std::istringstream is(os.str());
  const core::DeltaArtifact delta = core::load_delta(is);
  EXPECT_EQ(delta.base_fingerprint, core::fingerprint({}));
  EXPECT_EQ(delta.result_fingerprint, core::fingerprint({}));
  EXPECT_TRUE(delta.retired.empty());
  EXPECT_TRUE(delta.added.empty());
}

// --------------------------- serve delta gate ---------------------------

std::string good_delta_bytes(const serve::ServeFixture& fx) {
  core::DeltaArtifact delta;
  delta.base_fingerprint = core::fingerprint(fx.signatures);
  delta.added = {canary_signature(fx.signatures.size())};
  std::vector<core::DeployedSignature> result = fx.signatures;
  result.push_back(delta.added[0]);
  delta.result_fingerprint = core::fingerprint(result);
  std::ostringstream os;
  core::save_delta(os, delta);
  return os.str();
}

TEST(ScanServerDelta, DeployDeltaSwapsAndRefusalsKeepEpoch) {
  const serve::ServeFixture& fx = fixture();
  serve::ScanServer server(fx.database, serve::ServerConfig{});
  const std::uint64_t epoch0 = server.epoch();
  const std::string good = good_delta_bytes(fx);

  // Corrupted delta: typed refusal, serving epoch untouched.
  std::string bad = good;
  bad[40] ^= 0x01;
  std::istringstream bad_is(bad);
  const auto refused = server.deploy_delta(bad_is);
  EXPECT_FALSE(refused.accepted);
  EXPECT_FALSE(refused.reason.empty());
  EXPECT_EQ(server.epoch(), epoch0);
  EXPECT_EQ(server.database(), fx.database);

  // The real delta applies incrementally.
  std::istringstream good_is(good);
  const auto accepted = server.deploy_delta(good_is);
  EXPECT_TRUE(accepted.accepted) << accepted.reason;
  EXPECT_EQ(server.epoch(), epoch0 + 1);
  EXPECT_EQ(server.database()->size(), fx.signatures.size() + 1);

  // Replaying the same delta is now a lineage mismatch: the serving set
  // already moved past its base. Typed refusal, epoch untouched.
  std::istringstream replay(good);
  const auto stale = server.deploy_delta(replay);
  EXPECT_FALSE(stale.accepted);
  EXPECT_FALSE(stale.reason.empty());
  EXPECT_EQ(server.epoch(), epoch0 + 1);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.epoch_swaps, 1u);
  EXPECT_EQ(stats.swaps_rejected, 2u);
  server.stop();
}

// ------------------------ watcher debounce -----------------------------

// A release process writing the artifact non-atomically: the watcher must
// never deploy a half-written file (every partial prefix fails the
// checksum, so any rejection here is a debounce failure), then pick up
// the complete artifact once the file stops changing.
TEST(ArtifactWatcherDelta, DebounceSkipsPartialWritesThenDeploys) {
  const serve::ServeFixture& fx = fixture();
  const std::string path = write_temp(fx.artifact, "debounce");
  serve::ScanServer server(fx.database, serve::ServerConfig{});
  const std::uint64_t epoch0 = server.epoch();
  {
    serve::ArtifactWatcher watcher(server, path,
                                   std::chrono::milliseconds(10),
                                   std::chrono::milliseconds(30));
    std::this_thread::sleep_for(std::chrono::milliseconds(60));  // prime

    // Rewrite the file as a slow writer would: truncate, then grow in
    // small chunks with the file identity changing the whole time.
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      const std::string& next = fx.swap_artifact;
      for (std::size_t at = 0; at < next.size(); at += 4096) {
        out.write(next.data() + at,
                  static_cast<std::streamsize>(
                      std::min<std::size_t>(4096, next.size() - at)));
        out.flush();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }

    // Once the writer stops, the settled file deploys through the gate.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.epoch() == epoch0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.epoch(), epoch0 + 1);
    EXPECT_GE(watcher.stats().swaps, 1u);
    EXPECT_EQ(watcher.stats().rejected, 0u)
        << "watcher deployed a half-written artifact";
    watcher.stop();
  }
  server.stop();
  std::remove(path.c_str());
}

// Deltas ride the same watch path: a KZDELTA renamed over the watched
// file is sniffed by magic and applied incrementally.
TEST(ArtifactWatcherDelta, WatcherRoutesDeltaByMagic) {
  const serve::ServeFixture& fx = fixture();
  const std::string path = write_temp(fx.artifact, "route");
  serve::ScanServer server(fx.database, serve::ServerConfig{});
  const std::uint64_t epoch0 = server.epoch();
  {
    serve::ArtifactWatcher watcher(server, path,
                                   std::chrono::milliseconds(10));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));  // prime

    const std::string tmp = write_temp(good_delta_bytes(fx), "route_tmp");
    ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.epoch() == epoch0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.epoch(), epoch0 + 1);
    EXPECT_GE(watcher.stats().swaps, 1u);
    EXPECT_EQ(server.database()->size(), fx.signatures.size() + 1);
    watcher.stop();
  }
  server.stop();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace kizzle
