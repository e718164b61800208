#include "match/prefilter.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "support/errors.h"
#include "support/hash.h"

namespace kizzle::match {

namespace {
constexpr std::int32_t kNone = -1;
constexpr std::uint16_t kNoCode = 0xFFFF;  // byte outside the reduced alphabet

// Merges the sorted literal hits in `out` with the sorted `fallback` ids
// (the two sets are disjoint by construction). std::inplace_merge may heap-
// allocate a temporary buffer, which would break the scan path's zero-
// allocation guarantee; merging from the back into the resized vector
// needs no staging — the write cursor k == i + j stays strictly ahead of
// the unread hit prefix while any fallback element remains.
void merge_fallback(std::vector<std::size_t>& out,
                    const std::vector<std::size_t>& fallback) {
  if (fallback.empty()) return;
  std::size_t i = out.size();
  std::size_t j = fallback.size();
  out.resize(i + j);
  std::size_t k = out.size();
  while (j > 0) {
    if (i > 0 && out[i - 1] > fallback[j - 1]) {
      out[--k] = out[--i];
    } else {
      out[--k] = fallback[--j];
    }
  }
  // out[0..i) is already in place.
}

}  // namespace

void LiteralPrefilter::add(std::size_t id, std::string_view literal) {
  if (literal.empty()) {
    fallback_raw_.push_back(id);
  } else {
    keywords_.push_back(Keyword{std::string(literal), id});
  }
  ++n_ids_;
  id_limit_ = std::max(id_limit_, id + 1);
  built_ = false;
}

LiteralPrefilter::AcTables LiteralPrefilter::compile_automaton(
    const std::vector<Keyword>& keywords) {
  AcTables t;
  // Reduced alphabet: one column per byte value that occurs in a literal.
  t.alpha.fill(kNoCode);
  for (const Keyword& kw : keywords) {
    for (char c : kw.literal) {
      const auto b = static_cast<unsigned char>(c);
      if (t.alpha[b] == kNoCode) {
        t.alpha[b] = static_cast<std::uint16_t>(t.alpha_size++);
      }
    }
  }

  // Trie of keywords over the reduced alphabet.
  t.next.assign(t.alpha_size, kNone);  // state 0 = root
  std::vector<std::vector<std::size_t>> outputs(1);
  auto n_states = [&] {
    return t.next.size() / std::max<std::size_t>(t.alpha_size, 1);
  };
  for (const Keyword& kw : keywords) {
    std::int32_t state = 0;
    for (char c : kw.literal) {
      const std::uint16_t code = t.alpha[static_cast<unsigned char>(c)];
      const std::size_t slot =
          static_cast<std::size_t>(state) * t.alpha_size + code;
      if (t.next[slot] == kNone) {
        const auto fresh = static_cast<std::int32_t>(n_states());
        t.next.resize(t.next.size() + t.alpha_size, kNone);  // may reallocate
        t.next[slot] = fresh;
        outputs.emplace_back();
      }
      state = t.next[slot];
    }
    outputs[static_cast<std::size_t>(state)].push_back(kw.id);
  }

  // BFS: compute fail links, convert goto to a full DFA over the reduced
  // alphabet, and resolve each state's nearest output-bearing suffix.
  const std::size_t total = n_states();
  std::vector<std::int32_t> fail(total, 0);
  t.out_link.assign(total, kNone);
  std::queue<std::int32_t> bfs;
  for (std::size_t c = 0; c < t.alpha_size; ++c) {
    std::int32_t& slot = t.next[c];
    if (slot == kNone) {
      slot = 0;
    } else {
      bfs.push(slot);
    }
  }
  while (!bfs.empty()) {
    const std::int32_t s = bfs.front();
    bfs.pop();
    const std::int32_t f = fail[static_cast<std::size_t>(s)];
    t.out_link[static_cast<std::size_t>(s)] =
        outputs[static_cast<std::size_t>(f)].empty()
            ? t.out_link[static_cast<std::size_t>(f)]
            : f;
    for (std::size_t c = 0; c < t.alpha_size; ++c) {
      std::int32_t& slot =
          t.next[static_cast<std::size_t>(s) * t.alpha_size + c];
      const std::int32_t via_fail =
          t.next[static_cast<std::size_t>(f) * t.alpha_size + c];
      if (slot == kNone) {
        slot = via_fail;
      } else {
        fail[static_cast<std::size_t>(slot)] = via_fail;
        bfs.push(slot);
      }
    }
  }

  // Flatten per-state output lists.
  t.out_begin.assign(total, 0);
  t.out_end.assign(total, 0);
  for (std::size_t s = 0; s < total; ++s) {
    t.out_begin[s] = static_cast<std::int32_t>(t.out_ids.size());
    t.out_ids.insert(t.out_ids.end(), outputs[s].begin(), outputs[s].end());
    t.out_end[s] = static_cast<std::int32_t>(t.out_ids.size());
  }
  return t;
}

std::size_t LiteralPrefilter::ac_walk(const AcTables& t, std::string_view text,
                                      std::int32_t& state,
                                      std::vector<std::uint8_t>& seen,
                                      std::vector<std::size_t>& out,
                                      std::size_t n_seen,
                                      std::size_t stop_at) {
  if (t.alpha_size == 0 || n_seen >= stop_at) return n_seen;
  std::int32_t s_cur = state;
  for (const char ch : text) {
    const std::uint16_t code = t.alpha[static_cast<unsigned char>(ch)];
    if (code == kNoCode) {
      s_cur = 0;
      continue;
    }
    s_cur = t.next[static_cast<std::size_t>(s_cur) * t.alpha_size + code];
    for (std::int32_t s = s_cur; s != kNone;
         s = t.out_link[static_cast<std::size_t>(s)]) {
      if (t.out_begin[static_cast<std::size_t>(s)] ==
          t.out_end[static_cast<std::size_t>(s)]) {
        continue;  // root (or a pure-prefix state reached directly)
      }
      for (std::int32_t i = t.out_begin[static_cast<std::size_t>(s)];
           i < t.out_end[static_cast<std::size_t>(s)]; ++i) {
        const std::size_t id = t.out_ids[static_cast<std::size_t>(i)];
        if (!seen[id]) {
          seen[id] = 1;
          out.push_back(id);
          ++n_seen;
        }
      }
    }
    if (n_seen >= stop_at) break;
  }
  state = s_cur;
  return n_seen;
}

void LiteralPrefilter::build() {
  // Everything below is regenerated from the raw registrations on every
  // build (load() funnels through here too), never updated in place:
  // rebuilds cannot accumulate stale or repeated entries no matter how
  // add()/build() calls interleave.
  fallback_ = fallback_raw_;
  std::sort(fallback_.begin(), fallback_.end());
  fallback_.erase(std::unique(fallback_.begin(), fallback_.end()),
                  fallback_.end());
  std::vector<std::size_t> ids;
  ids.reserve(keywords_.size());
  for (const Keyword& kw : keywords_) ids.push_back(kw.id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  n_literal_ids_ = ids.size();

  // The first stage: PlanSet::build shards by length class and compiles
  // every non-empty literal set.
  std::vector<teddy::PlanSet::Literal> lits;
  lits.reserve(keywords_.size());
  for (const Keyword& kw : keywords_) {
    lits.push_back(teddy::PlanSet::Literal{kw.literal, kw.id});
  }
  teddy_ =
      lits.empty() ? std::nullopt : teddy::PlanSet::build(std::move(lits));

  // Dense-shard routing, decided PER SHARD: a shard whose build-time
  // density estimate says its first stage would fire on more than a fifth
  // of all scanned bytes is confirm-bound, so its literals leave the SIMD
  // pass and walk a sub-automaton compiled over exactly the dense shards'
  // literals (in shard order — deterministic, like every derived table).
  // The remaining (selective) shards keep the Teddy path; when every
  // shard is dense, the sub-automaton covers the whole set.
  dense_shard_.clear();
  n_dense_shards_ = 0;
  dense_ = AcTables{};
  if (teddy_.has_value()) {
    dense_shard_.assign(teddy_->shard_count(), 0);
    std::vector<Keyword> dense_kws;
    for (std::size_t i = 0; i < teddy_->shard_count(); ++i) {
      const teddy::Plan& shard = teddy_->shards()[i];
      if (shard.hit_density_estimate() <= kDenseRouteHitsPerByte) continue;
      dense_shard_[i] = 1;
      ++n_dense_shards_;
      for (const teddy::Plan::Literal& lit : shard.literals()) {
        dense_kws.push_back(Keyword{lit.text, lit.id});
      }
    }
    if (n_dense_shards_ > 0) dense_ = compile_automaton(dense_kws);
  }
  built_ = true;
}

std::vector<std::size_t> LiteralPrefilter::candidates(
    std::string_view text) const {
  std::vector<std::size_t> out;
  candidates_into(text, out);
  return out;
}

void LiteralPrefilter::candidates_into(std::string_view text,
                                       std::vector<std::size_t>& out) const {
  // Callers without a scratch of their own share a per-thread hit buffer.
  thread_local teddy::HitBuffer hits;
  candidates_into(text, out, hits);
}

void LiteralPrefilter::candidates_into(std::string_view text,
                                       std::vector<std::size_t>& out,
                                       teddy::HitBuffer& hits,
                                       PrefilterStats* stats,
                                       std::vector<std::uint32_t>* hints) const {
  if (!built_) {
    throw std::logic_error("LiteralPrefilter: candidates before build()");
  }
  out.clear();
  if (stats != nullptr) *stats = PrefilterStats{};
  if (hints != nullptr) hints->assign(id_limit_, teddy::kNoHint);
  if (!teddy_.has_value()) {
    out = fallback_;
    if (stats != nullptr) stats->fallback = PrefilterFallback::kNoLiterals;
    return;
  }
  if (text.size() > 0xFFFFFFFFu) {
    // Hit positions are 32-bit; a larger text (never seen in practice —
    // scanned units are samples and bounded stream windows) goes through
    // the streaming cursor, which scans it in 1 GiB windows.
    StreamingMatcher sliced(*this);
    sliced.feed(text);
    sliced.finish_into(out);
    if (stats != nullptr) {
      stats->fallback = PrefilterFallback::kTextTooLarge;
      stats->dense_shards = n_dense_shards_;
      stats->literal_survivors = out.size() - fallback_.size();
    }
    return;
  }

  // Reused across calls (per thread) — this runs once per scanned sample,
  // and a fresh zeroed vector per call was the scan path's last
  // avoidable allocation.
  thread_local std::vector<std::uint8_t> seen;
  seen.assign(id_limit_, 0);

  teddy::ScanCounters counters;
  const bool hybrid = n_dense_shards_ > 0;
  const std::size_t n_seen =
      teddy_->find(text, hits, seen, out, 0, n_literal_ids_, &counters, hints,
                   hybrid ? &dense_shard_ : nullptr);
  if (hybrid) {
    // Dense shards skipped above: their literals walk the sub-automaton.
    // Ids found here leave their hints at kNoHint — the confirm tier falls
    // back to a full-text anchor search for them.
    std::int32_t state = 0;
    ac_walk(dense_, text, state, seen, out, n_seen, n_literal_ids_);
  }
  if (stats != nullptr) {
    stats->first_stage_hits = counters.first_stage_hits;
    stats->shards_scanned = counters.shards_scanned;
    stats->dense_shards = n_dense_shards_;
    stats->literal_survivors = out.size();
  }
  std::sort(out.begin(), out.end());
  merge_fallback(out, fallback_);
}

// ----------------------------- persistence -----------------------------

namespace {

constexpr char kMagic[4] = {'K', 'Z', 'P', 'F'};
constexpr std::uint32_t kEndianSentinel = 0x01020304u;
constexpr std::uint64_t kCkBasis = kizzle::kChecksumBasis;
// Table sizes beyond this are rejected before allocation: a corrupt count
// must not drive the loader into a multi-gigabyte resize before the
// trailing checksum gets a chance to catch it. 16M elements is orders of
// magnitude above any realistic signature database's automaton.
constexpr std::uint64_t kMaxTableElems = 1ull << 24;
// v2: section alignment (the layout keeps every table section 64-byte
// aligned relative to the blob start) and the payload allocation cap.
constexpr std::size_t kSectionAlign = 64;
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;
// v2 fixed header: magic(4) version(4) endian(4) pad(4) payload_size(8)
// n_ids(8) id_limit(8) alpha_size(8) alpha(512).
constexpr std::size_t kV2FixedHeader = 4 + 4 + 4 + 4 + 8 + 8 + 8 + 8 + 512;
constexpr std::size_t kV2SizeOffset = 16;  // payload_size field offset

class CheckedWriter {
 public:
  explicit CheckedWriter(std::ostream& os) : os_(os) {}

  void bytes(const void* p, std::size_t n) {
    os_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    checksum_update(sum_, p, n);
  }
  template <typename T>
  void num(T v) {
    bytes(&v, sizeof v);
  }
  void u64s(std::span<const std::size_t> v) {
    num<std::uint64_t>(v.size());
    for (std::size_t x : v) num<std::uint64_t>(x);
  }
  void i32s(std::span<const std::int32_t> v) {
    num<std::uint64_t>(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(std::int32_t));
  }
  void finish() {
    // The checksum trailer is the only field not covered by itself.
    const std::uint64_t sum = sum_;
    os_.write(reinterpret_cast<const char*>(&sum), sizeof sum);
    if (!os_) throw std::runtime_error("LiteralPrefilter: serialize failed");
  }

 private:
  std::ostream& os_;
  std::uint64_t sum_ = kCkBasis;
};

// v2 payloads are built in memory and checksummed in ONE pass (the tail
// fold in checksum_update makes call granularity part of the sum, and the
// span loader verifies a mapped payload in one call).
class PayloadBuilder {
 public:
  void bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  template <typename T>
  void num(T v) {
    bytes(&v, sizeof v);
  }
  void pad_to(std::size_t align) {
    buf_.resize((buf_.size() + align - 1) / align * align, '\0');
  }
  std::size_t size() const { return buf_.size(); }
  std::string& str() { return buf_; }

 private:
  std::string buf_;
};

// Bounds-checked cursor over a v2 payload. Every read is memcpy-based, so
// the source needs no alignment.
class BlobCursor {
 public:
  explicit BlobCursor(std::span<const std::byte> blob) : blob_(blob) {}

  void bytes(void* p, std::size_t n) {
    if (n > blob_.size() - pos_ || pos_ > blob_.size()) {
      throw ArtifactError("LiteralPrefilter: truncated artifact");
    }
    std::memcpy(p, blob_.data() + pos_, n);
    pos_ += n;
  }
  template <typename T>
  T num() {
    T v;
    bytes(&v, sizeof v);
    return v;
  }
  std::uint64_t count() {
    const auto n = num<std::uint64_t>();
    if (n > kMaxTableElems) {
      throw ResourceError("LiteralPrefilter: implausible table size");
    }
    return n;
  }
  std::size_t pos() const { return pos_; }

 private:
  std::span<const std::byte> blob_;
  std::size_t pos_ = 0;
};

class CheckedReader {
 public:
  explicit CheckedReader(std::istream& is) : is_(is) {}

  // Folds already-consumed header bytes into the checksum without reading
  // (the version sniff happens before the reader exists).
  void absorb(const void* p, std::size_t n) { checksum_update(sum_, p, n); }

  void bytes(void* p, std::size_t n) {
    is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (!is_) {
      throw ArtifactError("LiteralPrefilter: truncated artifact");
    }
    checksum_update(sum_, p, n);
  }
  template <typename T>
  T num() {
    T v;
    bytes(&v, sizeof v);
    return v;
  }
  std::uint64_t count() {
    const std::uint64_t n = num<std::uint64_t>();
    if (n > kMaxTableElems) {
      // Well-formed syntax, hostile size: the declared count would drive
      // an allocation past the cap, so it is a resource rejection — the
      // buffer for it is never allocated.
      throw ResourceError("LiteralPrefilter: implausible table size");
    }
    return n;
  }
  void u64s(std::vector<std::size_t>& v) {
    v.resize(count());
    for (std::size_t& x : v) x = static_cast<std::size_t>(num<std::uint64_t>());
  }
  void i32s(std::vector<std::int32_t>& v) {
    v.resize(count());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(std::int32_t));
  }
  void verify_checksum() {
    const std::uint64_t expect = sum_;
    std::uint64_t stored;
    is_.read(reinterpret_cast<char*>(&stored), sizeof stored);
    if (!is_ || stored != expect) {
      throw ArtifactError("LiteralPrefilter: checksum mismatch");
    }
  }

 private:
  std::istream& is_;
  std::uint64_t sum_ = kCkBasis;
};

// One shipped table section: `count` elements of T at `data`. Reads go
// through memcpy, so the source needs no alignment and nothing is copied
// out of it.
template <typename T>
struct RawTable {
  const std::byte* data = nullptr;
  std::size_t count = 0;

  T operator[](std::size_t i) const {
    T v;
    std::memcpy(&v, data + i * sizeof(T), sizeof v);
    return v;
  }
};

template <typename T>
RawTable<T> raw_table(const std::vector<T>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()), v.size()};
}

// The automaton tables of a serialized prefilter, as shipped.
struct ShippedTables {
  std::array<std::uint16_t, 256> alpha{};
  std::size_t alpha_size = 0;
  RawTable<std::int32_t> next;       // n_states × alpha_size
  RawTable<std::int32_t> out_link;   // nearest suffix state with output
  RawTable<std::int32_t> out_begin;  // per-state slice into out_ids
  RawTable<std::int32_t> out_end;
  RawTable<std::size_t> out_ids;
};

// Structural sanity of the shipped tables: shapes agree, every alphabet
// code, goto target, output link and output slice stays in range, and
// every output id is inside the id space. Returns whether the tables are
// walkable at all (a root state over a non-empty alphabet).
bool validate_tables(const ShippedTables& t, std::size_t id_limit) {
  const std::size_t total = t.out_link.count;
  if (t.alpha_size > 256 || t.out_begin.count != total ||
      t.out_end.count != total || t.next.count != total * t.alpha_size) {
    throw ArtifactError("LiteralPrefilter: inconsistent table shapes");
  }
  for (const std::uint16_t code : t.alpha) {
    if (code != kNoCode && code >= t.alpha_size) {
      throw ArtifactError("LiteralPrefilter: alphabet code out of range");
    }
  }
  for (std::size_t i = 0; i < t.next.count; ++i) {
    const std::int32_t s = t.next[i];
    if (s < 0 || static_cast<std::size_t>(s) >= std::max<std::size_t>(total, 1)) {
      throw ArtifactError("LiteralPrefilter: goto target out of range");
    }
  }
  for (std::size_t s = 0; s < total; ++s) {
    const std::int32_t link = t.out_link[s];
    if (link != kNone &&
        (link < 0 || static_cast<std::size_t>(link) >= total)) {
      throw ArtifactError("LiteralPrefilter: output link out of range");
    }
    const std::int32_t b = t.out_begin[s];
    const std::int32_t e = t.out_end[s];
    if (b < 0 || e < b || static_cast<std::size_t>(e) > t.out_ids.count) {
      throw ArtifactError("LiteralPrefilter: output slice out of range");
    }
  }
  for (std::size_t i = 0; i < t.out_ids.count; ++i) {
    if (t.out_ids[i] >= id_limit) {
      throw ArtifactError("LiteralPrefilter: output id out of range");
    }
  }
  return total > 0 && t.alpha_size > 0;
}

}  // namespace

void LiteralPrefilter::serialize(std::ostream& os,
                                 std::uint32_t version) const {
  if (!built_) {
    throw std::logic_error("LiteralPrefilter: serialize before build()");
  }
  if (version != 1 && version != 2) {
    throw std::logic_error("LiteralPrefilter: unknown serialize version");
  }
  // The full automaton exists only as payload: compiled here from the
  // registrations, written, and dropped.
  const AcTables t = compile_automaton(keywords_);
  if (version == 1) {
    // Legacy layout: stream-framed fields, call-granular checksum.
    CheckedWriter w(os);
    w.bytes(kMagic, sizeof kMagic);
    w.num<std::uint32_t>(1);
    w.num<std::uint32_t>(kEndianSentinel);
    w.num<std::uint64_t>(n_ids_);
    w.num<std::uint64_t>(id_limit_);
    w.num<std::uint64_t>(t.alpha_size);
    w.bytes(t.alpha.data(), t.alpha.size() * sizeof(std::uint16_t));
    w.i32s(t.next);
    w.i32s(t.out_link);
    w.i32s(t.out_begin);
    w.i32s(t.out_end);
    w.u64s(t.out_ids);
    w.u64s(fallback_raw_);
    // Raw keyword registrations ride along so a loaded prefilter supports
    // further add()+build() exactly like the original.
    w.num<std::uint64_t>(keywords_.size());
    for (const Keyword& kw : keywords_) {
      w.num<std::uint64_t>(kw.id);
      w.num<std::uint64_t>(kw.literal.size());
      w.bytes(kw.literal.data(), kw.literal.size());
    }
    w.finish();
    return;
  }

  // v2: header + registrations + a section directory, then the five table
  // sections at 64-byte-aligned offsets (relative to the blob start),
  // each length-prefixed through the directory. The whole payload is
  // checksummed in one pass and the trailer follows it.
  struct Section {
    const void* data;
    std::size_t count;
    std::size_t elem_size;
  };
  const Section sections[] = {
      {t.next.data(), t.next.size(), sizeof(std::int32_t)},
      {t.out_link.data(), t.out_link.size(), sizeof(std::int32_t)},
      {t.out_begin.data(), t.out_begin.size(), sizeof(std::int32_t)},
      {t.out_end.data(), t.out_end.size(), sizeof(std::int32_t)},
      {t.out_ids.data(), t.out_ids.size(), sizeof(std::uint64_t)},
  };
  constexpr std::size_t kNSections = std::size(sections);
  PayloadBuilder p;
  p.bytes(kMagic, sizeof kMagic);
  p.num<std::uint32_t>(2);
  p.num<std::uint32_t>(kEndianSentinel);
  p.num<std::uint32_t>(0);                 // pad / reserved
  p.num<std::uint64_t>(0);                 // payload_size backpatched below
  p.num<std::uint64_t>(n_ids_);
  p.num<std::uint64_t>(id_limit_);
  p.num<std::uint64_t>(t.alpha_size);
  p.bytes(t.alpha.data(), t.alpha.size() * sizeof(std::uint16_t));
  p.num<std::uint64_t>(fallback_raw_.size());
  for (const std::size_t id : fallback_raw_) p.num<std::uint64_t>(id);
  p.num<std::uint64_t>(keywords_.size());
  for (const Keyword& kw : keywords_) {
    p.num<std::uint64_t>(kw.id);
    p.num<std::uint64_t>(kw.literal.size());
    p.bytes(kw.literal.data(), kw.literal.size());
  }

  // Section directory: elem count + blob-relative byte offset per table.
  p.num<std::uint64_t>(kNSections);
  const std::size_t dir_end = p.size() + kNSections * 16;
  std::size_t off = (dir_end + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
  for (const Section& s : sections) {
    p.num<std::uint64_t>(s.count);
    p.num<std::uint64_t>(off);
    const std::size_t bytes = s.count * s.elem_size;
    off = (off + bytes + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
  }
  for (const Section& s : sections) {
    p.pad_to(kSectionAlign);
    p.bytes(s.data, s.count * s.elem_size);
  }
  p.pad_to(kSectionAlign);

  std::string& payload = p.str();
  const auto payload_size = static_cast<std::uint64_t>(payload.size());
  std::memcpy(payload.data() + kV2SizeOffset, &payload_size,
              sizeof payload_size);
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
                "v2 layout assumes 64-bit size_t");
  std::uint64_t sum = kCkBasis;
  checksum_update(sum, payload.data(), payload.size());
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  os.write(reinterpret_cast<const char*>(&sum), sizeof sum);
  if (!os) throw std::runtime_error("LiteralPrefilter: serialize failed");
}

LiteralPrefilter LiteralPrefilter::parse_v2(std::span<const std::byte> blob) {
  BlobCursor header(blob);
  char magic[4];
  header.bytes(magic, sizeof magic);
  if (!std::equal(magic, magic + 4, kMagic)) {
    throw ArtifactError("LiteralPrefilter: bad magic");
  }
  if (header.num<std::uint32_t>() != 2) {
    throw ArtifactError("LiteralPrefilter: not a v2 blob");
  }
  if (header.num<std::uint32_t>() != kEndianSentinel) {
    throw ArtifactError(
        "LiteralPrefilter: artifact endianness does not match this host");
  }
  header.num<std::uint32_t>();  // pad
  const auto payload_size = header.num<std::uint64_t>();
  if (payload_size < kV2FixedHeader) {
    throw ArtifactError("LiteralPrefilter: implausible payload size");
  }
  // Refused before any allocation or read sized by it: a declared
  // multi-gigabyte payload is a resource attack, not a format error.
  if (payload_size > kMaxPayloadBytes) {
    throw ResourceError("LiteralPrefilter: implausible payload size");
  }
  if (payload_size + 8 > blob.size()) {
    throw ArtifactError("LiteralPrefilter: truncated artifact");
  }
  // One pass over the payload seals everything — header, registrations,
  // directory, sections, padding — before any of it is interpreted.
  std::uint64_t sum = kCkBasis;
  checksum_update(sum, blob.data(), static_cast<std::size_t>(payload_size));
  std::uint64_t stored;
  std::memcpy(&stored, blob.data() + payload_size, sizeof stored);
  if (stored != sum) {
    throw ArtifactError("LiteralPrefilter: checksum mismatch");
  }
  const std::span<const std::byte> payload =
      blob.first(static_cast<std::size_t>(payload_size));

  LiteralPrefilter pf;
  ShippedTables t;
  BlobCursor c(payload);
  c.bytes(magic, sizeof magic);  // re-walk the verified header
  c.num<std::uint32_t>();
  c.num<std::uint32_t>();
  c.num<std::uint32_t>();
  c.num<std::uint64_t>();
  pf.n_ids_ = static_cast<std::size_t>(c.num<std::uint64_t>());
  pf.id_limit_ = static_cast<std::size_t>(c.num<std::uint64_t>());
  t.alpha_size = static_cast<std::size_t>(c.num<std::uint64_t>());
  // id_limit_ sizes the per-scan dedup bitmap; an implausible value must
  // fail here, not OOM the first candidates() call.
  if (pf.n_ids_ > kMaxTableElems || pf.id_limit_ > kMaxTableElems) {
    throw ResourceError("LiteralPrefilter: implausible id count");
  }
  c.bytes(t.alpha.data(), t.alpha.size() * sizeof(std::uint16_t));
  pf.fallback_raw_.resize(static_cast<std::size_t>(c.count()));
  for (std::size_t& id : pf.fallback_raw_) {
    id = static_cast<std::size_t>(c.num<std::uint64_t>());
  }
  pf.keywords_.resize(static_cast<std::size_t>(c.count()));
  for (Keyword& kw : pf.keywords_) {
    kw.id = static_cast<std::size_t>(c.num<std::uint64_t>());
    kw.literal.resize(static_cast<std::size_t>(c.count()));
    if (!kw.literal.empty()) c.bytes(kw.literal.data(), kw.literal.size());
  }

  const auto n_sections = c.num<std::uint64_t>();
  if (n_sections != 5) {
    throw ArtifactError("LiteralPrefilter: unexpected section count");
  }
  struct Dir {
    std::size_t count;
    std::size_t offset;
  };
  std::array<Dir, 5> dir{};
  for (Dir& d : dir) {
    d.count = static_cast<std::size_t>(c.count());
    d.offset = static_cast<std::size_t>(c.num<std::uint64_t>());
  }
  const auto section = [&](const Dir& d, auto& table) {
    using T = std::remove_cvref_t<decltype(table[0])>;
    const std::size_t bytes = d.count * sizeof(T);
    if (d.offset % kSectionAlign != 0 || d.offset < c.pos() ||
        d.offset > payload.size() || bytes > payload.size() - d.offset) {
      throw ArtifactError("LiteralPrefilter: section out of bounds");
    }
    table = {payload.data() + d.offset, d.count};
  };
  section(dir[0], t.next);
  section(dir[1], t.out_link);
  section(dir[2], t.out_begin);
  section(dir[3], t.out_end);
  section(dir[4], t.out_ids);

  pf.check_registrations(validate_tables(t, pf.id_limit_));
  return pf;
}

void LiteralPrefilter::check_registrations(bool tables_walkable) const {
  // The raw registrations must be consistent with the header and stay
  // inside the id space — otherwise a later candidates() (or a
  // rebuild-after-load) indexes the dedup bitmap out of bounds.
  if (n_ids_ != keywords_.size() + fallback_raw_.size()) {
    throw ArtifactError(
        "LiteralPrefilter: registration count disagrees with header");
  }
  for (const std::size_t id : fallback_raw_) {
    if (id >= id_limit_) {
      throw ArtifactError("LiteralPrefilter: fallback id out of range");
    }
  }
  for (const Keyword& kw : keywords_) {
    if (kw.id >= id_limit_ || kw.literal.empty()) {
      throw ArtifactError("LiteralPrefilter: bad keyword registration");
    }
  }
  // Registered literals imply a walkable shipped automaton (root state +
  // reduced alphabet).
  if (!keywords_.empty() && !tables_walkable) {
    throw ArtifactError(
        "LiteralPrefilter: automaton tables missing for registered literals");
  }
}

LiteralPrefilter LiteralPrefilter::load(std::span<const std::byte> blob) {
  LiteralPrefilter pf = parse(blob);
  pf.build();
  return pf;
}

LiteralPrefilter LiteralPrefilter::load(std::istream& is) {
  LiteralPrefilter pf = parse(is);
  pf.build();
  return pf;
}

std::size_t LiteralPrefilter::verify(std::span<const std::byte> blob) {
  return parse(blob).n_ids_;
}

std::size_t LiteralPrefilter::verify(std::istream& is) {
  return parse(is).n_ids_;
}

LiteralPrefilter LiteralPrefilter::parse(std::span<const std::byte> blob) {
  // Sniff the version: v2 blobs are verified in place, v1 blobs route
  // through the istream reader.
  if (blob.size() >= 8) {
    std::uint32_t version;
    std::memcpy(&version, blob.data() + 4, sizeof version);
    if (std::memcmp(blob.data(), kMagic, 4) == 0 && version == 2) {
      return parse_v2(blob);
    }
  }
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
  return parse(is);
}

LiteralPrefilter LiteralPrefilter::parse(std::istream& is) {
  // Sniff magic + version outside the checksum framing, then dispatch:
  // v1 re-seeds the legacy call-granular checksum with the bytes already
  // read; v2 slurps the length-prefixed payload and parses it.
  char magic[4];
  std::uint32_t version;
  is.read(magic, sizeof magic);
  is.read(reinterpret_cast<char*>(&version), sizeof version);
  if (!is) throw ArtifactError("LiteralPrefilter: truncated artifact");
  if (!std::equal(magic, magic + 4, kMagic)) {
    throw ArtifactError("LiteralPrefilter: bad magic");
  }
  if (version == 2) {
    // Read endian + pad + payload_size, then the rest of the
    // self-delimiting blob; parse_v2 re-validates everything from the
    // reassembled bytes.
    std::uint32_t endian, pad;
    std::uint64_t payload_size;
    is.read(reinterpret_cast<char*>(&endian), sizeof endian);
    is.read(reinterpret_cast<char*>(&pad), sizeof pad);
    is.read(reinterpret_cast<char*>(&payload_size), sizeof payload_size);
    if (!is) throw ArtifactError("LiteralPrefilter: truncated artifact");
    if (endian != kEndianSentinel) {
      throw ArtifactError(
          "LiteralPrefilter: artifact endianness does not match this host");
    }
    if (payload_size < kV2FixedHeader) {
      throw ArtifactError("LiteralPrefilter: implausible payload size");
    }
    // Refused before the blob below is sized by it (resource attack, not
    // a format error — see the span loader).
    if (payload_size > kMaxPayloadBytes) {
      throw ResourceError("LiteralPrefilter: implausible payload size");
    }
    std::string blob(static_cast<std::size_t>(payload_size) + 8, '\0');
    std::memcpy(blob.data(), magic, 4);
    std::memcpy(blob.data() + 4, &version, 4);
    std::memcpy(blob.data() + 8, &endian, 4);
    std::memcpy(blob.data() + 12, &pad, 4);
    std::memcpy(blob.data() + kV2SizeOffset, &payload_size, 8);
    is.read(blob.data() + 24, static_cast<std::streamsize>(blob.size() - 24));
    if (!is) throw ArtifactError("LiteralPrefilter: truncated artifact");
    return parse_v2(std::as_bytes(std::span<const char>(blob)));
  }
  if (version != 1) {
    throw ArtifactError("LiteralPrefilter: unsupported format version " +
                             std::to_string(version));
  }

  CheckedReader r(is);
  r.absorb(magic, sizeof magic);
  r.absorb(&version, sizeof version);
  const auto endian = r.num<std::uint32_t>();
  if (endian != kEndianSentinel) {
    throw ArtifactError(
        "LiteralPrefilter: artifact endianness does not match this host");
  }

  LiteralPrefilter pf;
  pf.n_ids_ = static_cast<std::size_t>(r.num<std::uint64_t>());
  pf.id_limit_ = static_cast<std::size_t>(r.num<std::uint64_t>());
  ShippedTables t;
  t.alpha_size = static_cast<std::size_t>(r.num<std::uint64_t>());
  // id_limit_ sizes the per-scan dedup bitmap; an implausible value must
  // fail here, not OOM the first candidates() call.
  if (pf.n_ids_ > kMaxTableElems || pf.id_limit_ > kMaxTableElems) {
    throw ResourceError("LiteralPrefilter: implausible id count");
  }
  r.bytes(t.alpha.data(), t.alpha.size() * sizeof(std::uint16_t));
  std::vector<std::int32_t> next, out_link, out_begin, out_end;
  std::vector<std::size_t> out_ids;
  r.i32s(next);
  r.i32s(out_link);
  r.i32s(out_begin);
  r.i32s(out_end);
  r.u64s(out_ids);
  r.u64s(pf.fallback_raw_);
  const std::uint64_t n_keywords = r.count();
  pf.keywords_.resize(static_cast<std::size_t>(n_keywords));
  for (Keyword& kw : pf.keywords_) {
    kw.id = static_cast<std::size_t>(r.num<std::uint64_t>());
    const std::uint64_t len = r.count();
    kw.literal.resize(static_cast<std::size_t>(len));
    if (len > 0) r.bytes(kw.literal.data(), kw.literal.size());
  }
  r.verify_checksum();

  t.next = raw_table(next);
  t.out_link = raw_table(out_link);
  t.out_begin = raw_table(out_begin);
  t.out_end = raw_table(out_end);
  t.out_ids = raw_table(out_ids);
  pf.check_registrations(validate_tables(t, pf.id_limit_));
  return pf;
}

// --------------------------- StreamingMatcher ---------------------------

StreamingMatcher::StreamingMatcher(const LiteralPrefilter& prefilter)
    : pf_(&prefilter) {
  if (!prefilter.built()) {
    throw std::logic_error("StreamingMatcher: prefilter not built");
  }
  seen_.assign(pf_->id_limit_, 0);
}

void StreamingMatcher::feed(std::string_view chunk) {
  bytes_fed_ += chunk.size();
  if (!pf_->teddy_.has_value() || n_seen_ == pf_->n_literal_ids_) {
    return;  // nothing to find (or everything already found)
  }
  if (pf_->n_dense_shards_ > 0) {
    // Dense-shard literals never enter the Teddy window. The sub-automaton
    // is resumable (dense_state_ carries across chunks), so it scans each
    // chunk exactly once with no carry tail.
    n_seen_ = LiteralPrefilter::ac_walk(pf_->dense_, chunk, dense_state_,
                                        seen_, found_, n_seen_,
                                        pf_->n_literal_ids_);
  }
  if (pf_->teddy_active()) feed_teddy(chunk);
}

void StreamingMatcher::feed_teddy(std::string_view chunk) {
  // Unscanned bytes accumulate in window_ and are scanned in batches: the
  // carried tail (longest-literal−1 bytes of already-scanned text) is
  // rescanned on every flush, so flushing per feed would make tiny chunks
  // pay up to tail/chunk-size redundant work. Deferring until a multiple
  // of the tail has arrived caps the overhead at ~25% regardless of how
  // the stream is diced; finish_into() flushes the remainder.
  const std::size_t keep = pf_->teddy_->max_literal_len() - 1;
  const std::size_t flush_at = std::max<std::size_t>(256, 4 * keep);
  // The window is also kept under Teddy's 32-bit position space no matter
  // how large one chunk is.
  constexpr std::size_t kSlice = std::size_t{1} << 30;
  while (!chunk.empty() && n_seen_ < pf_->n_literal_ids_) {
    if (window_.size() >= kSlice) {
      scan_window();  // trims the window back to the carry tail
      continue;
    }
    const std::size_t take = std::min(chunk.size(), kSlice - window_.size());
    window_.append(chunk.substr(0, take));
    chunk.remove_prefix(take);
    pending_ += take;
    if (pending_ >= flush_at) scan_window();
  }
}

void StreamingMatcher::scan_window() {
  pending_ = 0;
  if (n_seen_ == pf_->n_literal_ids_) return;
  const teddy::PlanSet& plans = *pf_->teddy_;
  // Every literal occurrence ending in the unscanned suffix starts inside
  // the window (the carry tail in front of it is longest-literal−1 bytes,
  // the maximum over ALL shards — a shard's own literals may be shorter,
  // but scanning a longer tail only re-confirms ids the seen_ bitmap
  // already holds); occurrences wholly inside the tail were confirmed by
  // the previous flush.
  n_seen_ = plans.find(window_, hits_, seen_, found_, n_seen_,
                       pf_->n_literal_ids_, nullptr, nullptr,
                       pf_->n_dense_shards_ > 0 ? &pf_->dense_shard_
                                                : nullptr);
  const std::size_t keep = plans.max_literal_len() - 1;
  if (window_.size() > keep) window_.erase(0, window_.size() - keep);
}

void StreamingMatcher::finish_into(std::vector<std::size_t>& out) {
  // Flush any deferred Teddy bytes first so the snapshot reflects every
  // fed chunk.
  if (pending_ > 0) scan_window();
  // Snapshot semantics: found_ keeps its discovery order so feeding can
  // continue after a finish(); the sorted merge happens on the copy.
  out = found_;
  std::sort(out.begin(), out.end());
  merge_fallback(out, pf_->fallback_);
}

std::vector<std::size_t> StreamingMatcher::finish() {
  std::vector<std::size_t> out;
  finish_into(out);
  return out;
}

void StreamingMatcher::reset() {
  dense_state_ = 0;
  bytes_fed_ = 0;
  n_seen_ = 0;
  std::fill(seen_.begin(), seen_.end(), 0);
  found_.clear();
  window_.clear();
  pending_ = 0;
}

void StreamingMatcher::rebind(const LiteralPrefilter& prefilter) {
  if (!prefilter.built()) {
    throw std::logic_error("StreamingMatcher: prefilter not built");
  }
  pf_ = &prefilter;
  dense_state_ = 0;
  bytes_fed_ = 0;
  n_seen_ = 0;
  // assign() both sizes the bitmap for the new prefilter and zeroes it; a
  // same-capacity rebind touches no heap.
  seen_.assign(pf_->id_limit_, 0);
  found_.clear();
  window_.clear();
  pending_ = 0;
}

}  // namespace kizzle::match
