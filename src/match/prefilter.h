// Shared multi-pattern literal prefilter: the front of Kizzle's
// three-tier literal engine.
//
// A deployed signature database is scanned against every sample; running
// each pattern's own memmem pass makes whole-database scanning
// O(signatures × text). Real AV engines avoid that wall with multi-pattern
// literal matching: one streaming pass over the text determines which
// signatures could possibly match, and only those run full confirmation.
// End to end the engine is three tiers, each strictly cheaper per byte
// than the next:
//
//   tier 1 — SIMD first stage (match/teddy.h). Every registered literal's
//            rarest 1–4-byte window is folded into nibble-mask shuffle
//            tables; one pass of PSHUFB/AND work per 16–32 haystack bytes
//            leaves sparse candidate positions. The literal set is
//            compiled as a teddy::PlanSet: per-length-class shards (so
//            1–2-byte literals get their own K=1/K=2 shift-or shards
//            instead of disqualifying the whole set), oversized classes
//            split across shards, crowded shards widened to 16 Fat
//            buckets. Any non-empty literal set compiles, and the plan
//            set is the only first stage: a shard too dense for the SIMD
//            pass (kDenseRouteHitsPerByte) is excised from it and its
//            literals walk a small Aho–Corasick sub-automaton derived from
//            exactly those shards. Texts past Teddy's 32-bit position
//            space are sliced through StreamingMatcher. Candidate sets
//            equal a per-literal brute-force search — pinned by the
//            oracles in tests/teddy_test.cpp.
//   tier 2 — window confirm (teddy::Plan::confirm). Each sparse hit is
//            resolved to literal occurrences by a per-bucket window-key
//            lookup plus bounded memcmp, deduplicated per id. Patterns
//            whose literal occurred become candidates; patterns with no
//            usable literal go on a fallback list and are *always*
//            candidates, so prefiltered scanning is exactly equivalent to
//            brute force: a pattern is only skipped when its required
//            literal — which every match must contain — is absent.
//   tier 3 — tiered signature confirmation (pattern.h ConfirmTier,
//            dispatched by engine::scan). Pure-literal signatures confirm
//            with a memchr/find, literal-dominated ones with a compiled
//            anchored-memcmp + bounded-skip program, and only genuinely
//            regex-shaped patterns run the backtracking VM.
//
// This header owns tiers 1–2 and the fallback list; see
// engine/engine.h for tier 3 and for the per-scan stats that count each
// tier's work (PrefilterStats below is the tier 1–2 slice).
//
// Build once, then share freely: candidates() is const and thread-safe, so
// one prefilter serves any number of concurrent batch-scan workers.
//
// The release artifact (`.kpf`, core/sigdb.h) carries a full Aho–Corasick
// automaton over every registered literal, but only as verified payload:
// serialize() compiles the goto/fail/output tables when it writes them
// (versioned, endian-checked, v2 sections 64-byte aligned), and load()
// checksums and structurally validates them, then drops them and rebuilds
// the scan state from the registrations, exactly like build(); verify()
// runs the same checks and builds nothing. No scan ever walks the shipped
// tables. For data that arrives in pieces (a script
// streamed by the network, a large file read in blocks), StreamingMatcher
// runs the same first stage chunk by chunk.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "match/teddy.h"

namespace kizzle::match {

class StreamingMatcher;

// Why a scan did not take the one-shot Teddy first stage (kNone when it
// did).
enum class PrefilterFallback : std::uint8_t {
  kNone,          // Teddy first stage ran (dense shards on the sub-automaton)
  kTextTooLarge,  // text past Teddy's 32-bit positions: sliced via streaming
  kNoLiterals,    // nothing registered under literals (fallback ids only)
};

// Dense-shard routing threshold, applied PER SHARD: a shard whose expected
// first-stage candidates per scanned byte (teddy::Plan's build-time
// estimate under the byte prior) exceeds this is excised from the SIMD
// pass and its literals walk a dedicated sub-automaton instead. Past ~1
// hit per 5 bytes the SIMD pass is confirm-bound — every "sparse"
// candidate pays the window lookup the automaton folds into its single
// table walk — and the short-literal benches show the automaton winning
// outright (BM_TeddyPrefilterShortLiterals/512). Routing per shard keeps
// the selective long-literal shards on the SIMD path even when one
// crowded short-literal shard is dense; when every shard is dense the
// sub-automaton simply covers them all. Real signature databases estimate
// orders of magnitude below this; only short-common-literal sets trip it.
inline constexpr double kDenseRouteHitsPerByte = 0.20;

// Tier 1–2 observability for one candidates_into() call (engine::Scratch
// embeds this in its ScanStats; `kizzle scan --stats` and the benches
// surface it). Counters are *overwritten* per call, not accumulated.
struct PrefilterStats {
  std::size_t first_stage_hits = 0;    // sparse candidate windows (tier 1)
  std::size_t shards_scanned = 0;      // PlanSet shards run over the text
  std::size_t literal_survivors = 0;   // distinct ids confirmed (tier 2)
  std::size_t dense_shards = 0;        // shards routed to the dense walk
  PrefilterFallback fallback = PrefilterFallback::kNone;
};

class LiteralPrefilter {
 public:
  // Registers pattern `id` under `literal`. An empty literal means the
  // pattern has no usable required literal; it goes on the fallback list.
  // Distinct ids may share one literal; each occurrence reports all of
  // them. An id must be registered either as fallback or under literals,
  // not both (the merged candidate list would report it twice).
  void add(std::size_t id, std::string_view literal);

  // Freezes the registrations into the scan state: the fallback list, the
  // Teddy plan set, the dense-shard routing and its sub-automaton. Must be
  // called after the last add() and before the first candidates(). May be
  // called again after further add()s; rebuilding is idempotent — every
  // derived table (including the sorted/deduplicated fallback list) is
  // regenerated from the raw registrations, so an incrementally grown
  // prefilter is indistinguishable from one built fresh with the same final
  // registration set.
  void build();

  bool built() const { return built_; }

  // Total registered ids, and how many of them sit on the fallback list.
  std::size_t id_count() const { return n_ids_; }
  std::size_t fallback_count() const { return fallback_.size(); }

  // One pass over `text`: every id whose literal occurs in `text`, merged
  // with the fallback ids. Sorted ascending, deduplicated — callers that
  // want brute-force-identical first-match semantics just iterate in order
  // and stop at the first hit. Thread-safe.
  std::vector<std::size_t> candidates(std::string_view text) const;

  // Same, reusing `out` to avoid per-call allocation on hot paths.
  void candidates_into(std::string_view text,
                       std::vector<std::size_t>& out) const;

  // Same, additionally reusing `hits` as the Teddy first stage's candidate
  // position buffer (engine::Scratch owns one so steady-state scans stay
  // zero-alloc). `stats`, when non-null, receives this call's tier 1–2
  // counters. `hints`, when non-null, is resized to id_count-capacity and
  // filled per id with the start position of that id's leftmost
  // registered-literal occurrence in `text` (teddy::kNoHint where unknown:
  // fallback ids, dense-shard literals, sliced over-4-GiB texts). Tier-3
  // confirmation seeds its anchor search there instead of re-finding the
  // literal from the start of the text.
  void candidates_into(std::string_view text, std::vector<std::size_t>& out,
                       teddy::HitBuffer& hits, PrefilterStats* stats = nullptr,
                       std::vector<std::uint32_t>* hints = nullptr) const;

  // Ids with no usable literal (always candidates), sorted ascending.
  const std::vector<std::size_t>& fallback_ids() const { return fallback_; }

  // True when at least one plan-set shard runs the SIMD pass (false with no
  // literals, or when every shard is dense-routed).
  bool teddy_active() const {
    return teddy_.has_value() && n_dense_shards_ < teddy_->shard_count();
  }
  // Shards excised from the SIMD pass and routed to the dense-literal
  // sub-automaton (0 on all-sparse sets).
  std::size_t dense_shard_count() const { return n_dense_shards_; }
  // Per-shard dense-route flags, indexed like teddy_plans()->shards().
  const std::vector<std::uint8_t>& dense_shard_flags() const {
    return dense_shard_;
  }
  // The compiled sharded Teddy plan set, or nullptr when no literal is
  // registered. Exposed for the analyzer, the tests and the benchmarks.
  const teddy::PlanSet* teddy_plans() const {
    return teddy_.has_value() ? &*teddy_ : nullptr;
  }

  // ---------------------------- persistence ----------------------------
  //
  // Flat binary layout: a magic/version/endianness header, the raw
  // registrations (so further add()+build() after load() behaves exactly
  // like on the original), the goto/fail/output tables of the full
  // Aho–Corasick automaton over them, and a trailing FNV-1a checksum over
  // the payload. v2 (the current format) is self-delimiting — a
  // length-prefixed payload whose table sections sit at 64-byte-aligned
  // offsets relative to the blob start and whose checksum is one
  // single-pass sum over the whole payload. serialize() compiles the
  // tables as it writes them, so equal registrations give equal bytes;
  // load() verifies them and then discards them. Version policy: the
  // format version is bumped on ANY layout change; load() accepts v1 and v2, rejects unknown versions, foreign
  // endianness and corrupt/truncated payloads with kizzle::ArtifactError,
  // and declared sizes past the allocation caps with
  // kizzle::ResourceError (support/errors.h) — before allocating — rather
  // than guessing. serialize() throws std::logic_error if the prefilter is
  // not built; pass version 1 to emit the legacy layout for old readers.
  static constexpr std::uint32_t kFormatVersion = 2;
  void serialize(std::ostream& os,
                 std::uint32_t version = kFormatVersion) const;
  // Both loaders return a built prefilter, as if the registrations had
  // been add()ed and build() called.
  static LiteralPrefilter load(std::istream& is);
  // Load over `blob` (a serialized prefilter, possibly followed by
  // trailing bytes), verified in place; nothing refers to it afterwards.
  static LiteralPrefilter load(std::span<const std::byte> blob);
  // The checks of load(), with the same errors in the same order, without
  // building any scan state; returns the registered id count. For callers
  // that scan with their own compilation (engine::Database::from_artifact).
  static std::size_t verify(std::istream& is);
  static std::size_t verify(std::span<const std::byte> blob);

 private:
  friend class StreamingMatcher;

  struct Keyword {
    std::string literal;
    std::size_t id;
  };

  // One compiled Aho–Corasick automaton: dense goto table over a reduced
  // alphabet, fail links folded in, flattened per-state output lists. The
  // serialized tables and the dense-shard sub-automaton share this shape
  // and one compiler; only the sub-automaton is ever walked.
  struct AcTables {
    std::array<std::uint16_t, 256> alpha{};
    std::size_t alpha_size = 0;
    std::vector<std::int32_t> next;       // n_states × alpha_size
    std::vector<std::int32_t> out_link;   // nearest suffix state with output
    std::vector<std::int32_t> out_begin;  // per-state slice into out_ids
    std::vector<std::int32_t> out_end;
    std::vector<std::size_t> out_ids;
  };

  // Compiles `keywords` (in order — table layout is order-deterministic,
  // which the artifact verifier's byte comparison relies on). Reduced
  // alphabet: only bytes that occur in some literal get a column; any
  // other byte resets to the root.
  static AcTables compile_automaton(const std::vector<Keyword>& keywords);

  // Resumable walk over `t`: advances `state` across `text`, appending
  // newly seen ids to `out` (deduplicated via `seen`). Returns the updated
  // seen-count; exits early once it reaches `stop_at`. One-shot callers
  // pass a fresh state = 0; the streaming matcher carries `state` across
  // chunk boundaries.
  static std::size_t ac_walk(const AcTables& t, std::string_view text,
                             std::int32_t& state,
                             std::vector<std::uint8_t>& seen,
                             std::vector<std::size_t>& out,
                             std::size_t n_seen, std::size_t stop_at);

  std::vector<Keyword> keywords_;
  std::vector<std::size_t> fallback_raw_;  // as registered, may repeat
  std::vector<std::size_t> fallback_;      // derived: sorted, deduplicated
  std::optional<teddy::PlanSet> teddy_;    // derived: SIMD first stage
  // Derived dense-shard routing (per-shard kDenseRouteHitsPerByte): flags
  // indexed like the plan set's shards, their count, and the sub-automaton
  // over exactly the flagged shards' literals.
  std::vector<std::uint8_t> dense_shard_;
  std::size_t n_dense_shards_ = 0;
  AcTables dense_;
  std::size_t n_ids_ = 0;
  std::size_t id_limit_ = 0;  // max registered id + 1 (dedup bitmap size)
  std::size_t n_literal_ids_ = 0;  // distinct ids registered under literals
  bool built_ = false;

  // Parse and verify a serialized prefilter (v1 or v2) into its raw
  // registrations, unbuilt; load() builds the result, verify() drops it.
  static LiteralPrefilter parse(std::istream& is);
  static LiteralPrefilter parse(std::span<const std::byte> blob);
  // One v2 blob: header, checksum, registrations, section directory and
  // the table sections in place. Shared by both parse paths.
  static LiteralPrefilter parse_v2(std::span<const std::byte> blob);
  // Registration checks, shared by every parse path once the shipped
  // tables have been verified (`tables_walkable`: they hold a root state
  // over a non-empty alphabet).
  void check_registrations(bool tables_walkable) const;
};

// Resumable cursor over a LiteralPrefilter for data that arrives in
// chunks. feed() carries the first stage's state across chunk boundaries:
// the cursor keeps the last longest-literal−1 raw bytes and scans them
// glued to the newly arrived bytes through the Teddy plan set — every
// occurrence ending inside a chunk lies inside that window, and
// re-confirmed ids deduplicate — while the dense-shard sub-automaton (when
// some shard is dense) streams byte by byte with its DFA state carried
// across boundaries. Both report exactly the candidate set of the
// concatenation. Unscanned bytes are batched, and a window never grows
// past 1 GiB, inside Teddy's 32-bit position space — which is how
// one-shot candidates() handles texts over 4 GiB.
// finish() merges what has been seen so far with the fallback ids into the
// same sorted, deduplicated candidate set one-shot candidates() would
// return for the concatenation of all fed chunks. finish() is a snapshot:
// feeding may continue afterwards, and reset() rewinds the cursor for the
// next document.
//
// The matcher holds a pointer to the prefilter; the prefilter must stay
// alive and must not be rebuilt while any matcher streams over it. Each
// matcher is single-owner state (one per in-flight document); distinct
// matchers over one shared prefilter are safe concurrently.
class StreamingMatcher {
 public:
  explicit StreamingMatcher(const LiteralPrefilter& prefilter);

  // Consumes the next chunk of the scanned text.
  void feed(std::string_view chunk);

  // Candidate set for everything fed since construction/reset: identical
  // to prefilter.candidates(<all chunks concatenated>). Non-const: unscanned
  // bytes are batched, and finish flushes the remainder.
  std::vector<std::size_t> finish();
  void finish_into(std::vector<std::size_t>& out);

  // Rewinds to the start-of-text state for the next document.
  void reset();

  // Re-targets the cursor at `prefilter` — possibly a different one —
  // resizing the dedup bitmap and rewinding. Equivalent to constructing a
  // fresh matcher, but reuses the existing buffers: rebinding to a
  // prefilter of the same id capacity performs no heap allocation. This is
  // how a recycled engine::Scratch re-arms its streaming cursor.
  void rebind(const LiteralPrefilter& prefilter);

  std::size_t bytes_fed() const { return bytes_fed_; }

 private:
  void feed_teddy(std::string_view chunk);
  // Scans window_ (carry tail + deferred bytes), confirms the hits, and
  // trims the window back to the carry tail.
  void scan_window();

  const LiteralPrefilter* pf_;
  // Cursor into the dense-shard sub-automaton: dense literals stream
  // byte-at-a-time as chunks arrive, while sparse shards batch through
  // feed_teddy — the two cursors share seen_/found_.
  std::int32_t dense_state_ = 0;
  std::size_t bytes_fed_ = 0;
  std::size_t n_seen_ = 0;
  std::vector<std::uint8_t> seen_;    // per-id dedup bitmap
  std::vector<std::size_t> found_;    // literal ids, discovery order
  std::string window_;                // carry tail + unscanned bytes
  std::size_t pending_ = 0;           // unscanned byte count
  teddy::HitBuffer hits_;             // reusable candidate positions
};

}  // namespace kizzle::match
