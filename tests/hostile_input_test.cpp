// Hostile-input hardening tests (ROADMAP item 4): the ingest path fed
// systematically corrupted bytes.
//
//   * mutation corpus — starting from a valid `.kpf` bundle and a valid
//     serialized prefilter, every byte is bit-flipped and every prefix
//     truncation is tried; each mutant must produce either a successful
//     load or a kizzle::Error subclass. Any other exception type, crash,
//     hang or sanitizer report (the asan/ubsan CI job runs this test) is
//     a regression.
//   * targeted header-field mutations — magic, version, endianness,
//     declared sizes — must map to the documented taxonomy classes
//     (ArtifactError for malformed, ResourceError for implausible
//     sizes).
//   * crafted registrations — well-formed, correctly checksummed
//     artifacts whose prefilter registers ids that are not the signature
//     indices: cold starts must scan exactly like a compilation of the
//     embedded signatures, and lint must flag the shipped blob.
//   * committed-corpus replay — every seed and regression input under
//     fuzz/ (KIZZLE_FUZZ_DIR) is replayed through its loader on every
//     ctest run, so fuzzing findings stay fixed forever.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "core/sigdb.h"
#include "engine/engine.h"
#include "match/prefilter.h"
#include "support/errors.h"
#include "support/mapped_file.h"
#include "text/normalize.h"
#include "unpack/unpackers.h"

namespace kizzle {
namespace {

std::vector<core::DeployedSignature> sample_signatures() {
  core::DeployedSignature a;
  a.name = "KZ.RIG.1";
  a.family = "RIG";
  a.issued_day = 64;
  a.token_length = 120;
  a.pattern = "documentwriteunescape[0-9a-f]{2,8}";
  core::DeployedSignature b;
  b.name = "KZ.Nuclear.2";
  b.family = "Nuclear";
  b.issued_day = 77;
  b.token_length = 88;
  b.pattern = "evalstringfromcharcode";
  return {a, b};
}

std::string valid_artifact_bytes() {
  std::ostringstream os;
  core::save_artifact(os, sample_signatures());
  return os.str();
}

std::string valid_prefilter_bytes() {
  match::LiteralPrefilter pf;
  pf.add(0, "documentwriteunescape");
  pf.add(1, "evalstringfromcharcode");
  pf.build();
  std::ostringstream os;
  pf.serialize(os);
  return os.str();
}

// Runs one loader invocation on `bytes`. Success and kizzle::Error are
// both acceptable; anything else fails the test with the mutation's
// coordinates.
template <typename LoadFn>
void expect_typed_rejection(const std::string& bytes, LoadFn load,
                            const char* what, std::size_t at) {
  try {
    load(bytes);
  } catch (const Error&) {
    // The taxonomy working as designed.
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " at offset " << at
                  << ": escaped the taxonomy with: " << e.what();
  } catch (...) {
    ADD_FAILURE() << what << " at offset " << at
                  << ": escaped with a non-exception throw";
  }
}

void load_artifact_bytes(const std::string& bytes) {
  std::istringstream is(bytes);
  (void)core::load_artifact(is);
}

void load_prefilter_bytes(const std::string& bytes) {
  std::istringstream is(bytes);
  (void)match::LiteralPrefilter::load(is);
}

template <typename LoadFn>
void mutation_sweep(const std::string& valid, LoadFn load) {
  // Sanity: the unmutated bytes load.
  ASSERT_NO_THROW(load(valid));
  // Every prefix truncation (byte granularity).
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    expect_typed_rejection(valid.substr(0, cut), load, "truncation", cut);
  }
  // A bit flip in every byte (rotating bit position keeps the sweep to
  // one load per byte while still exercising every bit lane).
  for (std::size_t i = 0; i < valid.size(); ++i) {
    std::string mutant = valid;
    mutant[i] = static_cast<char>(
        static_cast<unsigned char>(mutant[i]) ^ (1u << (i % 8)));
    expect_typed_rejection(mutant, load, "bit flip", i);
  }
}

std::string valid_delta_bytes() {
  const auto sigs = sample_signatures();
  const std::vector<core::DeployedSignature> base(sigs.begin(),
                                                  sigs.begin() + 1);
  core::DeltaArtifact delta;
  delta.base_fingerprint = core::fingerprint(base);
  delta.added = {sigs[1]};
  delta.result_fingerprint = core::fingerprint(sigs);
  std::ostringstream os;
  core::save_delta(os, delta);
  return os.str();
}

void load_delta_bytes(const std::string& bytes) {
  std::istringstream is(bytes);
  (void)core::load_delta(is);
}

// The zero-copy span loader must be exactly as hostile-proof as the
// istream loader it shadows.
void load_artifact_span(const std::string& bytes) {
  (void)core::load_artifact(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()));
}

TEST(HostileInput, ArtifactSurvivesFullMutationSweep) {
  mutation_sweep(valid_artifact_bytes(), load_artifact_bytes);
}

TEST(HostileInput, ArtifactSpanLoaderSurvivesFullMutationSweep) {
  mutation_sweep(valid_artifact_bytes(), load_artifact_span);
}

TEST(HostileInput, DeltaSurvivesFullMutationSweep) {
  mutation_sweep(valid_delta_bytes(), load_delta_bytes);
}

TEST(HostileInput, PrefilterSurvivesFullMutationSweep) {
  mutation_sweep(valid_prefilter_bytes(), load_prefilter_bytes);
}

// --------------------- targeted header mutations ---------------------

std::string with_u64_at(std::string bytes, std::size_t offset,
                        std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return bytes;
}

TEST(HostileInput, ArtifactBadMagicIsArtifactError) {
  std::string bytes = valid_artifact_bytes();
  bytes[0] = 'X';
  EXPECT_THROW(load_artifact_bytes(bytes), ArtifactError);
}

TEST(HostileInput, ArtifactBadVersionIsArtifactError) {
  std::string bytes = valid_artifact_bytes();
  bytes[8] = 0x7F;  // version field follows the 8-byte magic
  EXPECT_THROW(load_artifact_bytes(bytes), ArtifactError);
}

TEST(HostileInput, ArtifactForeignEndiannessIsArtifactError) {
  std::string bytes = valid_artifact_bytes();
  std::swap(bytes[12], bytes[15]);  // byte-swap the endian sentinel
  EXPECT_THROW(load_artifact_bytes(bytes), ArtifactError);
}

TEST(HostileInput, ArtifactHugeDeclaredDbIsResourceError) {
  // db_len lives at offset 16 (magic 8 + version 4 + endian 4). A
  // declared multi-terabyte database must be refused before allocation.
  const std::string bytes =
      with_u64_at(valid_artifact_bytes(), 16, std::uint64_t{1} << 40);
  EXPECT_THROW(load_artifact_bytes(bytes), ResourceError);
}

TEST(HostileInput, PrefilterHugeDeclaredTableIsResourceError) {
  // KZPF v2: the u64 at offset 16 (magic 4 + version 4 + endian 4 +
  // pad 4) declares the payload size. A multi-terabyte claim must be
  // refused before anything is allocated or read at that scale.
  const std::string bytes =
      with_u64_at(valid_prefilter_bytes(), 16, std::uint64_t{1} << 40);
  EXPECT_THROW(load_prefilter_bytes(bytes), ResourceError);
}

TEST(HostileInput, TypedErrorsShareTheCommonBase) {
  // One handler for "any clean rejection" is the whole point of the base
  // class; verify the hierarchy is wired the way fuzz harnesses assume.
  EXPECT_THROW(load_artifact_bytes("KZBUNDLEgarbage"), Error);
  EXPECT_THROW(load_artifact_bytes("KZBUNDLEgarbage"), std::runtime_error);
  EXPECT_THROW(load_prefilter_bytes("XXXX"), Error);
}

// ------------------ shipped registrations are derived ------------------

// A well-formed artifact over sample_signatures() whose prefilter
// registers signature 0's literal under `id0` and signature 1's under
// `id1` (save_artifact only checks the registration count). Every
// checksum is consistent and the tables are the compilation of those
// registrations, so only deriving the scan state from the embedded
// signatures catches it.
std::string artifact_with_registrations(std::size_t id0, std::size_t id1) {
  match::LiteralPrefilter crafted;
  crafted.add(id0, "documentwriteunescape");
  crafted.add(id1, "evalstringfromcharcode");
  crafted.build();
  std::ostringstream os;
  core::save_artifact(os, sample_signatures(), &crafted);
  return os.str();
}

// Every event of a one-shot scan and of a two-chunk stream, in order.
std::vector<std::size_t> verdicts(const engine::Database& db,
                                  const std::string& text) {
  std::vector<std::size_t> hits;
  const auto collect = [&hits](const engine::MatchEvent& e) {
    hits.push_back(e.sig_index);
    return engine::ScanDecision::Continue;
  };
  engine::Scratch scratch;
  engine::scan(db, text, scratch, collect);
  hits.push_back(SIZE_MAX);  // one-shot / stream separator
  engine::Stream stream = engine::open_stream(db, scratch);
  stream.feed(std::string_view(text).substr(0, text.size() / 2));
  stream.feed(std::string_view(text).substr(text.size() / 2));
  stream.finish(collect);
  return hits;
}

void expect_cold_start_derives_registrations(const std::string& bytes,
                                             const std::string& tag) {
  const std::vector<std::string> texts = {
      "xx documentwriteunescape3f yy", "evalstringfromcharcode(1)",
      "documentwriteunescapeab;evalstringfromcharcode", "nothing here"};
  const engine::Database reference =
      engine::Database::compile(sample_signatures());
  ASSERT_EQ(verdicts(reference, texts[2]),
            (std::vector<std::size_t>{0, 1, SIZE_MAX, 0, 1}));

  std::istringstream is(bytes);
  const engine::Database streamed = engine::Database::from_artifact(is);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("kizzle_hostile_" + tag + "_" + std::to_string(::getpid()) + ".kpf"))
          .string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  const engine::Database mapped = engine::Database::from_artifact(
      std::make_shared<const support::MappedFile>(
          support::MappedFile::open(path)));
  std::remove(path.c_str());

  for (const std::string& text : texts) {
    const auto expect = verdicts(reference, text);
    EXPECT_EQ(verdicts(streamed, text), expect) << tag << " istream: " << text;
    EXPECT_EQ(verdicts(mapped, text), expect) << tag << " mmap: " << text;
  }

  std::istringstream lint_in(bytes);
  const analyze::Report report = analyze::analyze_artifact(lint_in);
  EXPECT_EQ(report.count(analyze::Check::kArtifactMismatch), 1u) << tag;
  EXPECT_EQ(report.errors(), 1u) << tag;
}

TEST(HostileInput, CraftedOutOfRangeRegistrationIsNotTrusted) {
  // Ids {0, 5} for two signatures: an id past the signature list.
  expect_cold_start_derives_registrations(artifact_with_registrations(0, 5),
                                          "out_of_range");
}

TEST(HostileInput, CraftedDuplicateRegistrationIsNotTrusted) {
  // Ids {0, 0}: signature 1 has no registration of its own.
  expect_cold_start_derives_registrations(artifact_with_registrations(0, 0),
                                          "duplicate");
}

// ------------------------- corpus replay -------------------------

std::vector<std::filesystem::path> corpus_files(const std::string& target) {
  std::vector<std::filesystem::path> files;
  for (const char* root : {"corpus", "regressions"}) {
    const std::filesystem::path dir =
        std::filesystem::path(KIZZLE_FUZZ_DIR) / root / target;
    if (!std::filesystem::is_directory(dir)) continue;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_regular_file() &&
          entry.path().filename() != ".gitkeep") {
        files.push_back(entry.path());
      }
    }
  }
  return files;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(HostileInput, CommittedArtifactCorpusReplays) {
  const auto files = corpus_files("load_artifact");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  for (const auto& file : files) {
    expect_typed_rejection(slurp(file), load_artifact_bytes,
                           file.c_str(), 0);
  }
}

TEST(HostileInput, CommittedPrefilterCorpusReplays) {
  const auto files = corpus_files("prefilter_load");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  for (const auto& file : files) {
    expect_typed_rejection(slurp(file), load_prefilter_bytes,
                           file.c_str(), 0);
  }
}

TEST(HostileInput, CommittedNormalizeCorpusNeverThrows) {
  const auto files = corpus_files("normalize");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  for (const auto& file : files) {
    const std::string bytes = slurp(file);
    EXPECT_NO_THROW({
      (void)text::normalize_raw(bytes);
      (void)text::normalize_js(bytes);
      (void)text::normalize_document(bytes);
    }) << file;
  }
}

TEST(HostileInput, CommittedUnpackCorpusNeverThrows) {
  const auto files = corpus_files("unpack");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  for (const auto& file : files) {
    const std::string bytes = slurp(file);
    EXPECT_NO_THROW((void)unpack::unpack_fixpoint(bytes)) << file;
  }
}

TEST(HostileInput, CommittedArtifactV2CorpusReplays) {
  const auto files = corpus_files("artifact_v2");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  for (const auto& file : files) {
    const std::string bytes = slurp(file);
    if (bytes.size() >= 8 && bytes.compare(0, 8, core::kDeltaMagic) == 0) {
      expect_typed_rejection(bytes, load_delta_bytes, file.c_str(), 0);
    } else {
      expect_typed_rejection(bytes, load_artifact_bytes, file.c_str(), 0);
      expect_typed_rejection(bytes, load_artifact_span, file.c_str(), 0);
    }
  }
}

TEST(HostileInput, CommittedLintCorpusReplays) {
  const auto files = corpus_files("lint");
  ASSERT_FALSE(files.empty()) << "seed corpus missing from fuzz/";
  const auto lint_bytes = [](const std::string& bytes) {
    std::istringstream is(bytes);
    (void)analyze::analyze_artifact(is);
  };
  for (const auto& file : files) {
    expect_typed_rejection(slurp(file), lint_bytes, file.c_str(), 0);
  }
  // The mutation sweep over a valid bundle: the linter must diagnose or
  // reject every near-valid mutant, never crash or hang on one.
  mutation_sweep(valid_artifact_bytes(), lint_bytes);
}

}  // namespace
}  // namespace kizzle
