// Signature database serialization.
//
// The deployable artifact of a Kizzle run is its signature set; AV
// distribution channels ship such sets as versioned database files
// (paper §I.A: "AV signatures enjoy a well-established deployment channel
// with frequent, automatic updates"). The format is a line-oriented,
// diff-friendly text file:
//
//   # kizzle-signatures v1
//   <name> \t <family> \t <issued_day> \t <token_length> \t <pattern>
//
// Patterns contain no tabs or newlines by construction (they are compiled
// from normalized text, which strips whitespace).
//
// Next to the text database there are two binary release formats, both
// little-endian, both sealed with the shared checksum primitive
// (kizzle::checksum_update, one pass over the whole payload):
//
// *Bundle artifact* (`.kpf`, magic "KZBUNDLE", version 2): the signature
// set plus a serialized literal prefilter over it, produced once at
// signature-release time (`kizzle pack`, or
// KizzlePipeline::export_artifact). Layout:
//
//   "KZBUNDLE"(8) | u32 version=2 | u32 endian 0x01020304 |
//   u64 db_len | db text bytes | zero pad to a 64-byte boundary
//   (relative to the artifact start) | prefilter blob
//   (LiteralPrefilter::serialize v2: registrations plus the full
//   Aho–Corasick automaton as aligned, length-prefixed table sections,
//   sealed by its own single-pass checksum trailer)
//
// The automaton tables are verified payload, not deploy state: every load
// checksums and validates them under the loader caps (a bad blob refuses
// the artifact before any pattern is compiled) and then drops them.
// Deployments compile the embedded signatures
// (engine::Database::from_artifact), and `kizzle lint` compares the blob
// byte for byte with serialize() of that recompilation. The loaders
// also accept version-1 artifacts (no pad, per-field checksum
// granularity) packed by older releases.
//
// *Delta artifact* (`.kzd`, magic "KZDELTAF", version 1): an incremental
// update from one deployed signature set to the next — the daily Kizzle
// cycle retires a few signatures and issues a few new ones, and shipping
// a full multi-megabyte bundle for an 8-signature day wastes the
// distribution channel. Layout:
//
//   "KZDELTAF"(8) | u32 version=1 | u32 endian |
//   u64 payload_size | u64 base_fingerprint | u64 result_fingerprint |
//   u64 n_retired | u64 retired[n_retired] (ascending indices into the
//   base set) | u64 db_len | added-signature text db (save_signatures
//   format) | u64 checksum (single pass over the payload_size bytes
//   between the payload_size field and the checksum)
//
// Lineage is enforced by fingerprints: `fingerprint(signatures, retired)`
// chains the identity of every entry (name, family, pattern) and the
// retired set through checksum_update. A delta records the fingerprint of
// the exact base it was diffed against and of the set that must result;
// engine::Database::extend refuses a delta whose base_fingerprint does
// not match the live database, and verifies result_fingerprint after
// applying, so out-of-order or cross-lineage deltas cannot silently
// corrupt a deployment.
//
// Version policy mirrors the prefilter's: any layout change bumps the
// version, loaders reject unknown versions and foreign endianness.
// All loaders run on untrusted bytes and throw the kizzle typed-error
// taxonomy (support/errors.h): InputError for unparsable text (messages
// carry line number AND byte offset), ArtifactError for a malformed
// binary bundle or delta, ResourceError when declared/observed sizes
// exceed the loader caps below. No other exception escapes on bad input,
// and no allocation happens before the size that justifies it is
// validated.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "match/prefilter.h"
#include "support/hash.h"

namespace kizzle::core {

// Loader caps: a signature line longer than this, or a database with more
// signatures than this, is rejected with ResourceError before it is
// stored. Generous against any legitimate set (patterns are normalized
// script excerpts, databases are a few thousand signatures) yet small
// enough that a hostile stream can't balloon memory line by line.
inline constexpr std::size_t kMaxSignatureLineBytes = 1 << 16;  // 64 KiB
inline constexpr std::size_t kMaxSignatureCount = 1 << 17;      // 131072

// Serializes a signature set. Deterministic output.
std::string save_signatures(const std::vector<DeployedSignature>& signatures);
void save_signatures(std::ostream& os,
                     const std::vector<DeployedSignature>& signatures);

// Parses a database back. Throws kizzle::InputError on malformed input
// (bad header, wrong field count, bad numbers, patterns that fail to
// compile) with line number and byte offset in the message, and
// kizzle::ResourceError past the caps above. `validate_patterns` = false
// skips the trial compilation of every pattern — for callers that compile
// the set themselves right after (SignatureBundle's artifact constructor)
// and would otherwise pay it twice.
std::vector<DeployedSignature> load_signatures(const std::string& content);
std::vector<DeployedSignature> load_signatures(std::istream& is,
                                               bool validate_patterns = true);

// ---------------------------- bundle artifact ----------------------------

inline constexpr std::string_view kArtifactMagic = "KZBUNDLE";
inline constexpr std::uint32_t kArtifactVersion = 2;

// A loaded artifact is its signatures. The shipped prefilter blob was
// verified (LiteralPrefilter::verify) and is not loaded: callers compile
// the signatures. Its layout version and offset from the artifact start
// let the analyzer compare that blob with a recompilation.
struct BundleArtifact {
  std::vector<DeployedSignature> signatures;
  std::uint32_t version = kArtifactVersion;
  std::size_t prefilter_offset = 0;
};

// Writes signatures + prefilter as one deployable artifact. `prebuilt`
// must register exactly one id per signature (its index); pass nullptr to
// have the prefilter compiled and built here from the signature patterns.
// `version` selects the on-disk layout: 2 (default, aligned) or 1
// (legacy, for compatibility testing against old loaders).
void save_artifact(std::ostream& os,
                   const std::vector<DeployedSignature>& signatures,
                   const match::LiteralPrefilter* prebuilt = nullptr,
                   std::uint32_t version = kArtifactVersion);

// Parses and verifies an artifact. Throws kizzle::ArtifactError on
// malformed/corrupt/mismatched input (including a prefilter whose id
// count disagrees with the signature list) and kizzle::ResourceError on
// implausible declared sizes. `validate_patterns` as in load_signatures.
// Accepts version 1 and version 2 artifacts.
BundleArtifact load_artifact(std::istream& is, bool validate_patterns = true);

// Same over a byte range, typically a support::MappedFile: verified in
// place, and nothing in the result refers to `blob`.
BundleArtifact load_artifact(std::span<const std::byte> blob,
                             bool validate_patterns = true);

// ---------------------------- delta artifact -----------------------------

inline constexpr std::string_view kDeltaMagic = "KZDELTAF";
inline constexpr std::uint32_t kDeltaVersion = 1;

// An incremental update: retire `retired` (indices into the base set, in
// ascending order) and append `added`. Application order is retire-then-
// append, so added signatures receive ids starting at the base set's size.
struct DeltaArtifact {
  std::uint64_t base_fingerprint = 0;    // set the delta applies to
  std::uint64_t result_fingerprint = 0;  // set that must result
  std::vector<std::uint64_t> retired;    // ascending indices into base
  std::vector<DeployedSignature> added;
};

// Lineage fingerprint of a deployed set: chains each entry's identity
// (name, family, pattern — deployment metadata like issued_day is not
// part of identity) and then the retired index set, all through
// kizzle::checksum_update with length-prefixed mixing so field boundaries
// are unambiguous. Two sets fingerprint equal iff they hold the same
// signatures in the same slots with the same tombstones.
inline constexpr std::uint64_t kFingerprintBasis = kChecksumBasis;
std::uint64_t fingerprint(const std::vector<DeployedSignature>& signatures,
                          std::span<const std::uint64_t> retired = {});

// Mixing steps, exposed so engine::Database (which stores entries, not
// DeployedSignatures) can compute the identical fingerprint.
void fingerprint_mix(std::uint64_t& sum, std::string_view name,
                     std::string_view family, std::string_view pattern);
void fingerprint_retire(std::uint64_t& sum,
                        std::span<const std::uint64_t> retired);

// Writes / parses a delta artifact. save_delta validates that `retired`
// is strictly ascending and that no field contains tab/newline (via
// save_signatures); load_delta runs on untrusted bytes with the same
// error taxonomy as load_artifact and re-validates ordering, caps and the
// checksum before returning.
void save_delta(std::ostream& os, const DeltaArtifact& delta);
DeltaArtifact load_delta(std::istream& is, bool validate_patterns = true);

}  // namespace kizzle::core
