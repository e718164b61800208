// Differential oracle for the Teddy SIMD literal first stage
// (match/teddy.h) and its integration into the shared prefilter:
//
//   * kernel agreement — every compiled-in Impl (scalar shift-or, SSSE3,
//     AVX2 where the host supports them) emits byte-identical Hit
//     sequences on random and adversarial texts;
//   * candidate equivalence — a LiteralPrefilter returns exactly the
//     brute-force candidate set (per-literal std::string_view::find,
//     merged with the fallback ids): literal lengths 1..8 (short literals
//     compile into their own K=1/K=2 shards), mixed short/long sets,
//     5k–20k-literal sets spanning multiple shards, Fat (16-bucket) versus
//     8-bucket plans, shared-prefix bucket collisions, occurrences at
//     position 0 and at the last possible position, the full kitgen
//     corpus, and the dense-shard routes (hybrid and all-dense);
//   * streaming equivalence — StreamingMatcher equals the same oracle for
//     every split position and every chunking;
//   * thread safety — one shared plan scanned from many threads (the tsan
//     CI job runs this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kitgen/families.h"
#include "kitgen/packers.h"
#include "kitgen/payload.h"
#include "match/pattern.h"
#include "match/prefilter.h"
#include "match/teddy.h"
#include "support/rng.h"
#include "text/normalize.h"

namespace kizzle::match {
namespace {

std::vector<teddy::Impl> available_impls() {
  std::vector<teddy::Impl> impls;
  for (const teddy::Impl impl :
       {teddy::Impl::kScalar, teddy::Impl::kSsse3, teddy::Impl::kAvx2}) {
    if (teddy::impl_available(impl)) impls.push_back(impl);
  }
  return impls;
}

using Registrations = std::vector<std::pair<std::size_t, std::string>>;

// The brute-force oracle: every id whose literal occurs in `text` (one
// std::string_view::find per registration) plus every fallback id (empty
// literal), sorted and deduplicated — exactly what candidates() promises.
std::vector<std::size_t> brute_force_candidates(const Registrations& regs,
                                                std::string_view text) {
  std::vector<std::size_t> out;
  for (const auto& [id, lit] : regs) {
    if (lit.empty() || text.find(lit) != std::string_view::npos) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// A built prefilter next to the registrations it was built from.
struct Oracle {
  Registrations regs;
  LiteralPrefilter pf;

  std::vector<std::size_t> expect(std::string_view text) const {
    return brute_force_candidates(regs, text);
  }
};

Oracle build_oracle(Registrations regs) {
  Oracle o;
  o.regs = std::move(regs);
  for (const auto& [id, lit] : o.regs) o.pf.add(id, lit);
  o.pf.build();
  return o;
}

void expect_brute_force(const Oracle& o, std::string_view text) {
  EXPECT_EQ(o.pf.candidates(text), o.expect(text)) << "text: " << text;
}

// Streams `text` through a StreamingMatcher over `o.pf` at every split
// position (two feeds; every `split_stride`-th position) and in 1-, 7- and
// 4096-byte chunks and one whole feed, expecting the brute-force set each
// time.
void expect_streaming_brute_force(const Oracle& o, std::string_view text,
                                  std::size_t split_stride = 1) {
  const std::vector<std::size_t> expect = o.expect(text);
  StreamingMatcher stream(o.pf);
  for (std::size_t split = 0; split <= text.size(); split += split_stride) {
    stream.reset();
    stream.feed(text.substr(0, split));
    stream.feed(text.substr(split));
    ASSERT_EQ(stream.finish(), expect) << "split " << split;
  }
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096}, text.size()}) {
    stream.reset();
    for (std::size_t at = 0; at < text.size(); at += std::max<std::size_t>(chunk, 1)) {
      stream.feed(text.substr(at, chunk));
    }
    ASSERT_EQ(stream.finish(), expect) << "chunk " << chunk;
  }
}

// ----------------------------- kernel unit -----------------------------

TEST(TeddyPlan, BuildGatesAndWindowLength) {
  using teddy::Plan;
  // The only per-shard gates left: an empty set, and a single shard past
  // its capacity (PlanSet splits those instead).
  EXPECT_FALSE(Plan::build({}).has_value());
  {
    std::vector<Plan::Literal> many;
    for (std::size_t i = 0; i <= Plan::kShardMaxLiterals; ++i) {
      many.push_back({"lit" + std::to_string(i), i});
    }
    EXPECT_FALSE(Plan::build(many).has_value());
    many.pop_back();
    EXPECT_TRUE(Plan::build(std::move(many)).has_value());
  }
  // The window length tracks the shortest literal, down to a single byte.
  EXPECT_EQ(Plan::build({{"a", 0}})->prefix_len(), 1u);
  EXPECT_EQ(Plan::build({{"ab", 0}, {"wxyz", 1}})->prefix_len(), 2u);
  EXPECT_EQ(Plan::build({{"abc", 0}, {"wxyz", 1}})->prefix_len(), 3u);
  EXPECT_EQ(Plan::build({{"abcd", 0}, {"wxyz", 1}})->prefix_len(), 4u);
}

TEST(TeddyPlanSet, ShardsByLengthClassAndSize) {
  using teddy::Plan;
  using teddy::PlanSet;
  EXPECT_FALSE(PlanSet::build({}).has_value());

  // One shard per populated length class (K = min(4, len)); 5+-byte
  // literals share the K=4 class.
  const auto mixed = PlanSet::build(
      {{"a", 0}, {"xy", 1}, {"abc", 2}, {"wxyz", 3}, {"longer", 4}});
  ASSERT_TRUE(mixed.has_value());
  EXPECT_EQ(mixed->shard_count(), 4u);
  EXPECT_EQ(mixed->literal_count(), 5u);
  EXPECT_EQ(mixed->max_literal_len(), 6u);

  // An oversized class splits into multiple shards; a crowded shard goes
  // Fat (16 buckets).
  std::vector<PlanSet::Literal> many;
  for (std::size_t i = 0; i < Plan::kShardMaxLiterals + 100; ++i) {
    many.push_back({"lit" + std::to_string(i), i});
  }
  const auto big = PlanSet::build(std::move(many));
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->shard_count(), 2u);
  EXPECT_EQ(big->literal_count(), Plan::kShardMaxLiterals + 100);
  for (const Plan& shard : big->shards()) {
    EXPECT_EQ(shard.bucket_count(),
              shard.literal_count() > PlanSet::kFatThreshold ? Plan::kFatBuckets
                                                             : Plan::kBuckets);
  }

  // A small set stays on 8 buckets.
  const auto small = PlanSet::build({{"abcd", 0}, {"wxyz", 1}});
  ASSERT_TRUE(small.has_value());
  ASSERT_EQ(small->shard_count(), 1u);
  EXPECT_EQ(small->shards().front().bucket_count(), Plan::kBuckets);
}

TEST(TeddyPlan, ImplsEmitIdenticalHits) {
  Rng rng(0x7EDD1);
  const std::vector<teddy::Plan::Literal> lits = {
      {"abc", 0}, {"abcd", 1}, {"bcde", 2}, {"fromCharCode", 3},
      {"eval(", 4}, {"\x01\x02\x03", 5}, {"zzz", 6}, {"abz", 7},
  };
  const auto plan = teddy::Plan::build(lits);
  ASSERT_TRUE(plan.has_value());

  std::vector<std::string> texts;
  texts.push_back("");
  texts.push_back("ab");                      // shorter than the prefix
  texts.push_back("abc");                     // exactly one prefix
  texts.push_back("abcabcabcabc");            // dense hits
  texts.push_back(std::string(64, 'a'));      // no hits
  texts.push_back("\x01\x02\x03");            // non-ASCII bytes
  for (int i = 0; i < 32; ++i) {
    // Random lengths around the 16/32-byte block boundaries: tails, exact
    // blocks, one-past.
    const std::size_t len = rng.index(70);
    std::string t = rng.string_over("abcdezf(rom)CharCode\x01\x02\x03", len);
    texts.push_back(std::move(t));
  }
  // Occurrences straddling every block-relative offset.
  for (std::size_t at = 0; at < 40; ++at) {
    std::string t(64, 'q');
    t.replace(at, 4, "abcd");
    texts.push_back(std::move(t));
  }

  const auto impls = available_impls();
  ASSERT_FALSE(impls.empty());
  for (const std::string& text : texts) {
    teddy::HitBuffer reference;
    plan->scan(text, reference, teddy::Impl::kScalar);
    for (const teddy::Impl impl : impls) {
      teddy::HitBuffer hits;
      plan->scan(text, hits, impl);
      EXPECT_EQ(hits, reference)
          << teddy::impl_name(impl) << " diverged on \"" << text << '"';
    }
  }
}

TEST(TeddyPlan, ImplsAgreeForEveryWindowLength) {
  // K = 1..4 exercise every carry arm of the vector kernels (K=1 is a pure
  // table lookup, K=4 uses all three shifted planes).
  Rng rng(0x7EDD2);
  const auto impls = available_impls();
  for (std::size_t min_len = 1; min_len <= 4; ++min_len) {
    std::vector<teddy::Plan::Literal> lits;
    std::size_t id = 0;
    for (std::size_t len = min_len; len <= min_len + 3; ++len) {
      lits.push_back({rng.string_over("abcxyz01", len), id++});
      lits.push_back({std::string(len, 'q'), id++});
    }
    const auto plan = teddy::Plan::build(std::move(lits));
    ASSERT_TRUE(plan.has_value());
    ASSERT_EQ(plan->prefix_len(), min_len);
    for (int i = 0; i < 48; ++i) {
      const std::string t = rng.string_over("abcxyzq01.", rng.index(70));
      teddy::HitBuffer reference;
      plan->scan(t, reference, teddy::Impl::kScalar);
      for (const teddy::Impl impl : impls) {
        teddy::HitBuffer hits;
        plan->scan(t, hits, impl);
        EXPECT_EQ(hits, reference)
            << teddy::impl_name(impl) << " K=" << min_len << " on \"" << t
            << '"';
      }
    }
  }
}

TEST(TeddyPlan, FatImplsEmitIdenticalHits) {
  // A Fat (16-bucket) plan can be forced on a small set; the AVX2 fat
  // kernel and the 16-bit-lane scalar shift-or must agree hit-for-hit.
  Rng rng(0xFA7);
  std::vector<teddy::Plan::Literal> lits;
  for (std::size_t i = 0; i < 40; ++i) {
    lits.push_back({rng.string_over("abcdefgh", 3 + rng.index(6)), i});
  }
  const auto plan =
      teddy::Plan::build(std::move(lits), teddy::Plan::kFatBuckets);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->bucket_count(), teddy::Plan::kFatBuckets);
  for (int i = 0; i < 64; ++i) {
    const std::string t = rng.string_over("abcdefgh.", rng.index(90));
    teddy::HitBuffer reference;
    plan->scan(t, reference, teddy::Impl::kScalar);
    for (const teddy::Impl impl : available_impls()) {
      teddy::HitBuffer hits;
      plan->scan(t, hits, impl);
      EXPECT_EQ(hits, reference)
          << teddy::impl_name(impl) << " diverged on \"" << t << '"';
    }
  }
}

TEST(TeddyPlan, FatAndEightBucketPlansConfirmIdentically) {
  // Bucket masks differ between the two widths, so the comparison happens
  // after confirmation: both plans must surface exactly the same ids.
  Rng rng(0xFA8);
  std::vector<teddy::Plan::Literal> lits;
  const std::size_t n = 200;
  for (std::size_t i = 0; i < n; ++i) {
    lits.push_back({rng.string_over("abcdwxyz", 4 + rng.index(8)), i});
  }
  const auto narrow = teddy::Plan::build(lits, teddy::Plan::kBuckets);
  const auto fat = teddy::Plan::build(lits, teddy::Plan::kFatBuckets);
  ASSERT_TRUE(narrow.has_value());
  ASSERT_TRUE(fat.has_value());

  for (int i = 0; i < 48; ++i) {
    const std::string t = rng.string_over("abcdwxyz.", rng.index(200));
    teddy::HitBuffer hits;
    std::vector<std::uint8_t> seen_narrow(n, 0);
    std::vector<std::uint8_t> seen_fat(n, 0);
    std::vector<std::size_t> out_narrow;
    std::vector<std::size_t> out_fat;
    narrow->scan(t, hits);
    narrow->confirm(t, hits, seen_narrow, out_narrow, 0, n);
    fat->scan(t, hits);
    fat->confirm(t, hits, seen_fat, out_fat, 0, n);
    std::sort(out_narrow.begin(), out_narrow.end());
    std::sort(out_fat.begin(), out_fat.end());
    EXPECT_EQ(out_narrow, out_fat) << "text \"" << t << '"';
  }
}

// --------------------------- candidate oracle ---------------------------

TEST(TeddyPrefilter, EveryLiteralLengthOneToEight) {
  Rng rng(0x1E77);
  // One registration set per minimum length: every set — including ones
  // with 1- and 2-byte literals — routes through the sharded Teddy first
  // stage and must agree with brute force byte-for-byte.
  for (std::size_t min_len = 1; min_len <= 8; ++min_len) {
    Registrations regs;
    std::size_t id = 0;
    for (std::size_t len = min_len; len <= 8; ++len) {
      regs.emplace_back(id++, std::string(len, 'a'));          // runs
      regs.emplace_back(id++, rng.string_over("abcxyz", len)); // random
      std::string edge = "Z" + std::string(len > 1 ? len - 1 : 0, 'y');
      regs.emplace_back(id++, edge);
    }
    regs.emplace_back(id++, "");  // fallback rider
    const Oracle o = build_oracle(regs);
    EXPECT_TRUE(o.pf.teddy_active()) << min_len;

    std::vector<std::string> texts = {"", "a", "aaaaaaaaaa", "Zyyyyyyy",
                                      "xyzabcxyzabc"};
    for (int i = 0; i < 24; ++i) {
      texts.push_back(rng.string_over("abcxyzZ", 3 + rng.index(60)));
    }
    for (const std::string& t : texts) expect_brute_force(o, t);
  }
}

TEST(TeddyPrefilter, SharedPrefixBucketCollisions) {
  // Dozens of literals sharing one 4-byte prefix: they land in the same
  // bucket(s), every occurrence of the prefix lights the bucket, and only
  // exact confirmation may separate them.
  Registrations regs;
  for (std::size_t i = 0; i < 40; ++i) {
    regs.emplace_back(i, "pref" + std::to_string(i));
  }
  regs.emplace_back(100, "prefix_shared_long_tail");
  regs.emplace_back(101, "pref");  // the bare prefix itself
  const Oracle o = build_oracle(regs);
  ASSERT_TRUE(o.pf.teddy_active());

  expect_brute_force(o, "pref");
  expect_brute_force(o, "pref1");
  expect_brute_force(o, "pref39 pref12 pref");
  expect_brute_force(o, "prefix_shared_long_tail");
  expect_brute_force(o, "prefix_shared_long_tai");  // one byte short
  expect_brute_force(o, "xxprefxx pref3 pref33");
  EXPECT_EQ(o.pf.candidates("pref7"), (std::vector<std::size_t>{7, 101}));
}

TEST(TeddyPrefilter, BoundaryPositions) {
  const Oracle o = build_oracle({{0, "needle"}, {1, "end"}, {2, "xyz"}});
  ASSERT_TRUE(o.pf.teddy_active());

  // Occurrence at position 0.
  expect_brute_force(o, "needle");
  expect_brute_force(o, "needle rest of text");
  EXPECT_EQ(o.pf.candidates("needle"), (std::vector<std::size_t>{0}));
  // Occurrence ending exactly at the last byte, across block-relative
  // alignments (the padded-tail path of the vector kernels).
  for (std::size_t pad = 0; pad < 40; ++pad) {
    const std::string tail_hit = std::string(pad, '.') + "end";
    expect_brute_force(o, tail_hit);
    EXPECT_EQ(o.pf.candidates(tail_hit), (std::vector<std::size_t>{1}));
  }
  // Text shorter than any literal / shorter than the prefix window.
  expect_brute_force(o, "");
  expect_brute_force(o, "en");
  expect_brute_force(o, "ne");
  // Truncated occurrence at the very end (prefix present, tail cut off).
  expect_brute_force(o, "....needl");
  expect_brute_force(o, "....nee");
}

TEST(TeddyPrefilter, MixedShortAndLongLiterals) {
  // 1–2-byte literals ride in their own shards next to long ones; the
  // candidate set must stay exact, including texts where a short literal
  // is a prefix/suffix of a long one.
  const Oracle o = build_oracle({{0, "x"},
                                 {1, "ab"},
                                 {2, "abc"},
                                 {3, "abcdef"},
                                 {4, "fromCharCode"},
                                 {5, "f"},
                                 {6, ""}});
  ASSERT_TRUE(o.pf.teddy_active());
  ASSERT_EQ(o.pf.teddy_plans()->shard_count(), 4u);

  Rng rng(0x515);
  std::vector<std::string> texts = {"",       "x",         "ab",
                                    "abc",    "abcdef",    "fromCharCode",
                                    "zzfzz",  "xabcdefx",  "abab",
                                    "fromCharCod", std::string(100, 'a')};
  for (int i = 0; i < 48; ++i) {
    texts.push_back(rng.string_over("abcdefxromCh.", rng.index(80)));
  }
  for (const std::string& t : texts) expect_brute_force(o, t);
}

// `n_lits` random 5–8-byte literals over a six-letter alphabet: small
// enough an alphabet that random texts hit hundreds of them.
Registrations random_literal_set(std::size_t n_lits, Rng& rng) {
  Registrations regs;
  for (std::size_t i = 0; i < n_lits; ++i) {
    regs.emplace_back(i, rng.string_over("abcdef", 5 + rng.index(4)));
  }
  return regs;
}

TEST(TeddyPrefilter, BigSetsSpanMultipleShardsAndStayExact) {
  // 5k–20k literals: well past a single 4096-literal plan, split across
  // shards (the 20k set also crosses the per-shard capacity, and its
  // shards run Fat).
  Rng rng(0xB16);
  for (const std::size_t n_lits : {std::size_t{5000}, std::size_t{20000}}) {
    const Oracle o = build_oracle(random_literal_set(n_lits, rng));
    ASSERT_TRUE(o.pf.teddy_active()) << n_lits;
    const teddy::PlanSet* plans = o.pf.teddy_plans();
    ASSERT_NE(plans, nullptr);
    EXPECT_GE(plans->shard_count(),
              n_lits > teddy::Plan::kShardMaxLiterals ? 2u : 1u);

    for (int i = 0; i < 12; ++i) {
      const std::string t = rng.string_over("abcdef", 200 + rng.index(800));
      expect_brute_force(o, t);
    }
    expect_brute_force(o, "");
    expect_brute_force(o, o.regs.front().second);
    expect_brute_force(o, o.regs.back().second);
  }
}

TEST(TeddyStreaming, TenThousandLiteralsEverySplitAndChunking) {
  Rng rng(0x10C);
  const Oracle o = build_oracle(random_literal_set(10000, rng));
  ASSERT_TRUE(o.pf.teddy_active());
  const std::string text = rng.string_over("abcdef", 600);
  ASSERT_GT(o.expect(text).size(), 100u) << "oracle text hits too little";
  expect_streaming_brute_force(o, text);
}

TEST(TeddyPrefilter, ScanStatsReportRoutingAndCounts) {
  const Oracle o = build_oracle({{0, "x"}, {1, "needle"}, {2, ""}});
  std::vector<std::size_t> out;
  teddy::HitBuffer hits;
  PrefilterStats stats;

  o.pf.candidates_into("a needle in x", out, hits, &stats);
  EXPECT_EQ(stats.fallback, PrefilterFallback::kNone);
  EXPECT_EQ(stats.shards_scanned, 2u);  // K=1 and K=4 length classes
  EXPECT_GE(stats.first_stage_hits, 2u);
  EXPECT_EQ(stats.literal_survivors, 2u);
  EXPECT_EQ(stats.dense_shards, 0u);

  o.pf.candidates_into("nothing here", out, hits, &stats);
  EXPECT_EQ(stats.literal_survivors, 0u);

  const Oracle fallback_only = build_oracle({{0, ""}, {1, ""}});
  fallback_only.pf.candidates_into("a needle in x", out, hits, &stats);
  EXPECT_EQ(stats.fallback, PrefilterFallback::kNoLiterals);
  EXPECT_EQ(out, (std::vector<std::size_t>{0, 1}));
}

// ---------------------------- streaming oracle ----------------------------

TEST(TeddyStreaming, EverySplitPositionMatchesOneShot) {
  const Oracle o = build_oracle(
      {{0, "needle"}, {1, "spanner"}, {2, "xyz"}, {3, ""}, {4, "abcd"}});
  ASSERT_TRUE(o.pf.teddy_active());
  const std::string text =
      "xx needle yy spanner zz abcd xyzxyz needlespanner abcdabcd";
  ASSERT_EQ(o.pf.candidates(text), o.expect(text));
  expect_streaming_brute_force(o, text);
}

TEST(TeddyStreaming, EverySplitAcrossShardBoundaries) {
  // A database whose literals span all four length-class shards, streamed
  // with every split position: occurrences of every class must survive the
  // chunk boundary (the carried tail is sized by the LONGEST literal of
  // the whole set, not of any one shard).
  const Oracle o = build_oracle({{0, "k"},
                                 {1, "qz"},
                                 {2, "abc"},
                                 {3, "straddlers"},
                                 {4, "wxyz"},
                                 {5, ""}});
  ASSERT_TRUE(o.pf.teddy_active());
  ASSERT_EQ(o.pf.teddy_plans()->shard_count(), 4u);
  const std::string text = "..k..qz..abc..straddlers..wxyz..qzk..";
  ASSERT_EQ(o.expect(text), (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
  ASSERT_EQ(o.pf.candidates(text), o.expect(text));
  expect_streaming_brute_force(o, text);
}

TEST(TeddyStreaming, ResetAndRebindClearTheCarriedWindow) {
  const Oracle o = build_oracle({{0, "straddle"}, {1, "abc"}});
  StreamingMatcher stream(o.pf);
  stream.feed("strad");
  stream.reset();
  stream.feed("dle");  // must NOT complete "straddle" across the reset
  EXPECT_TRUE(stream.finish().empty());

  stream.reset();
  stream.feed("strad");
  stream.rebind(o.pf);
  stream.feed("dle");
  EXPECT_TRUE(stream.finish().empty());

  stream.reset();
  stream.feed("strad");
  stream.feed("dle");
  EXPECT_EQ(stream.finish(), (std::vector<std::size_t>{0}));
}

// ----------------------------- kitgen corpus -----------------------------

std::vector<std::string> kitgen_corpus() {
  Rng rng(0xC0FFEE);
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
    spec.family = kitgen::KitFamily::Angler;
    spec.cves = kitgen::kit_info(kitgen::KitFamily::Angler).cves;
    samples.push_back(text::normalize_raw(
        pack_angler(payload_text(spec), kitgen::AnglerPackerState{}, rng)));
  }
  samples.push_back("");
  samples.push_back("no literals in here at all");
  return samples;
}

// Deployed-database-shaped registrations: literal chunks cut from the
// corpus via the real signature-compilation path (Pattern::escape +
// required_literal), most from other samples than the one scanned.
Registrations corpus_registrations(const std::vector<std::string>& corpus) {
  Rng rng(0xBEEF);
  Registrations regs;
  std::size_t id = 0;
  for (const std::string& text : corpus) {
    if (text.size() < 128) continue;
    for (int k = 0; k < 6; ++k) {
      const std::size_t len = 16 + rng.index(32);
      const std::size_t at = rng.index(text.size() - len);
      const Pattern pat = Pattern::compile(
          Pattern::escape(text.substr(at, len)) + "[0-9a-zA-Z]{0,8}");
      regs.emplace_back(id++, pat.required_literal());
    }
  }
  regs.emplace_back(id++, "");  // fallback rider
  return regs;
}

TEST(TeddyPrefilter, KitgenCorpusOneShotEquivalence) {
  const auto corpus = kitgen_corpus();
  const Oracle o = build_oracle(corpus_registrations(corpus));
  ASSERT_TRUE(o.pf.teddy_active());
  for (const std::string& sample : corpus) {
    const auto expect = o.expect(sample);
    EXPECT_EQ(o.pf.candidates(sample), expect);
    if (sample.size() >= 128) EXPECT_GT(expect.size(), 1u);
  }
}

TEST(TeddyStreaming, KitgenCorpusEveryChunking) {
  const auto corpus = kitgen_corpus();
  const Oracle o = build_oracle(corpus_registrations(corpus));
  ASSERT_TRUE(o.pf.teddy_active());
  // Every chunking of every sample; every split position of the first.
  for (const std::string& sample : corpus) {
    expect_streaming_brute_force(o, sample, std::max<std::size_t>(
                                                1, sample.size()));
  }
  expect_streaming_brute_force(o, corpus.front());
}

// ------------------------------ concurrency ------------------------------

TEST(TeddyPrefilter, ConcurrentScansOverOneSharedPlan) {
  const auto corpus = kitgen_corpus();
  const Oracle o = build_oracle(corpus_registrations(corpus));
  ASSERT_TRUE(o.pf.teddy_active());
  std::vector<std::vector<std::size_t>> expect;
  for (const std::string& sample : corpus) expect.push_back(o.expect(sample));

  std::vector<std::thread> workers;
  std::vector<int> mismatches(4, 0);
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < 8; ++round) {
        for (std::size_t i = 0; i < corpus.size(); ++i) {
          if (o.pf.candidates(corpus[i]) != expect[i]) ++mismatches[w];
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const int m : mismatches) EXPECT_EQ(m, 0);
}

// ----------------------------- dense routing -----------------------------

// The bench's short-literal sets (BM_TeddyPrefilterShortLiterals/<count>):
// 1–2-byte alphanumerics admitting most common bytes into the K=1 shard's
// shuffle mask.
Registrations short_literal_set(std::size_t count) {
  constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz0123456789";
  Registrations regs;
  for (std::size_t i = 0; i < count; ++i) {
    std::string lit;
    lit.push_back(kAlpha[i % kAlpha.size()]);
    if (i % 7 != 0) lit.push_back(kAlpha[(i / kAlpha.size()) % kAlpha.size()]);
    regs.emplace_back(i, lit);
  }
  return regs;
}

// Every single-byte alphanumeric: one K=1 shard, past the threshold.
Registrations all_dense_set() {
  constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz0123456789";
  Registrations regs;
  for (std::size_t i = 0; i < kAlpha.size(); ++i) {
    regs.emplace_back(i, std::string(1, kAlpha[i]));
  }
  return regs;
}

// One-shot over the kitgen corpus, every split position of a 160-byte
// window that exercises every route, and every chunking of a full sample.
void expect_routes_exact(const Oracle& o) {
  const auto corpus = kitgen_corpus();
  for (const std::string& sample : corpus) expect_brute_force(o, sample);
  expect_streaming_brute_force(o, std::string_view(corpus.front()).substr(0, 160));
  expect_streaming_brute_force(o, corpus.front(), corpus.front().size());
}

// Routing is decided PER SHARD. At 512 literals the dense K=1 shard is
// excised from the SIMD pass and its literals walk the dense-shard
// sub-automaton, while the selective K=2 shard stays on Teddy (the hybrid
// route); at 64 every shard stays on Teddy. Candidate sets equal brute
// force either way.
TEST(TeddyPrefilter, DenseShardRoutesToSubAutomaton) {
  // Hybrid: the whole-set estimate is past the threshold but only the
  // single-byte shard is dense — one bad length class must not drag the
  // whole database off the SIMD path.
  const Oracle hybrid = build_oracle(short_literal_set(512));
  EXPECT_GT(hybrid.pf.teddy_plans()->expected_hits_per_byte(),
            kDenseRouteHitsPerByte);
  EXPECT_TRUE(hybrid.pf.teddy_active());
  EXPECT_GT(hybrid.pf.dense_shard_count(), 0u);
  EXPECT_LT(hybrid.pf.dense_shard_count(),
            hybrid.pf.teddy_plans()->shard_count());

  // The routing decision is observable in scan stats.
  const std::string text = kitgen_corpus().front();
  std::vector<std::size_t> out;
  teddy::HitBuffer hits;
  PrefilterStats stats;
  hybrid.pf.candidates_into(text, out, hits, &stats);
  EXPECT_EQ(stats.fallback, PrefilterFallback::kNone);
  EXPECT_EQ(stats.dense_shards, hybrid.pf.dense_shard_count());
  EXPECT_EQ(out, hybrid.expect(text));
  expect_routes_exact(hybrid);

  // A sparse fraction of the same generator keeps every shard on Teddy.
  const Oracle sparse = build_oracle(short_literal_set(64));
  EXPECT_LE(sparse.pf.teddy_plans()->expected_hits_per_byte(),
            kDenseRouteHitsPerByte);
  EXPECT_TRUE(sparse.pf.teddy_active());
  EXPECT_EQ(sparse.pf.dense_shard_count(), 0u);
  expect_routes_exact(sparse);

  // Density is derived state: a loaded artifact makes the same per-shard
  // calls and routes identically.
  std::stringstream bytes;
  hybrid.pf.serialize(bytes);
  const LiteralPrefilter loaded = LiteralPrefilter::load(bytes);
  EXPECT_TRUE(loaded.teddy_active());
  EXPECT_EQ(loaded.dense_shard_count(), hybrid.pf.dense_shard_count());
  EXPECT_EQ(loaded.dense_shard_flags(), hybrid.pf.dense_shard_flags());
  EXPECT_EQ(loaded.candidates(text), hybrid.expect(text));
}

// When EVERY shard is dense (a single-byte-only set admits most common
// bytes into its one shuffle mask), the sub-automaton covers every shard
// and the SIMD pass scans nothing.
TEST(TeddyPrefilter, AllDenseSetWalksSubAutomatonOverEveryShard) {
  const Oracle dense = build_oracle(all_dense_set());
  EXPECT_FALSE(dense.pf.teddy_active());
  EXPECT_EQ(dense.pf.dense_shard_count(),
            dense.pf.teddy_plans()->shard_count());

  const std::string text = kitgen_corpus().front();
  std::vector<std::size_t> out;
  teddy::HitBuffer hits;
  PrefilterStats stats;
  dense.pf.candidates_into(text, out, hits, &stats);
  EXPECT_EQ(stats.fallback, PrefilterFallback::kNone);
  EXPECT_EQ(stats.dense_shards, dense.pf.dense_shard_count());
  EXPECT_EQ(stats.shards_scanned, 0u);
  EXPECT_EQ(stats.first_stage_hits, 0u);
  EXPECT_EQ(out, dense.expect(text));
  expect_routes_exact(dense);

  std::stringstream bytes;
  dense.pf.serialize(bytes);
  const LiteralPrefilter loaded = LiteralPrefilter::load(bytes);
  EXPECT_FALSE(loaded.teddy_active());
  EXPECT_EQ(loaded.dense_shard_count(), dense.pf.dense_shard_count());
  EXPECT_EQ(loaded.candidates(text), dense.expect(text));
}

// Dense multi-byte literals: every alphanumeric bigram makes the K=2
// shard dense, so its literals stream through the sub-automaton, whose
// DFA state must carry a literal split across two feeds.
TEST(TeddyStreaming, DenseBigramsStraddleChunkBoundaries) {
  constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyz0123456789";
  Registrations regs;
  for (const char a : kAlpha) {
    for (const char b : kAlpha) regs.emplace_back(regs.size(), std::string{a, b});
  }
  const Oracle o = build_oracle(regs);
  ASSERT_GE(o.pf.dense_shard_count(), 1u);
  ASSERT_FALSE(o.pf.teddy_active());
  // Each bigram occurs only across a separator-free pair, so a split
  // between its two bytes is the only way to see it.
  expect_streaming_brute_force(o, "e.t.a.o.in.s.r.h.l.ea.te.ht");
  expect_routes_exact(o);
}

}  // namespace
}  // namespace kizzle::match
