// Multi-signature scanner: a mutable signature container over the unified
// scan engine (engine/engine.h).
//
// Holds a set of compiled signatures with ids and scans normalized sample
// text against all of them, reporting every hit. Both Kizzle-generated
// and hand-written (simulated-analyst) signatures are deployed through
// this interface.
//
// Scanning routes through engine::scan: one compiled engine::Database
// (shared two-stage literal prefilter — Teddy SIMD first stage with a
// dense-shard sub-automaton, match/prefilter.h — plus patterns, rebuilt
// lazily
// after add()) and a pool of per-worker engine::Scratch instances, so the
// steady-state scan path allocates nothing beyond the returned hit
// vector. scan(), any_match() and scan_batch() are const and safe to call
// concurrently once the signature set is frozen; scan_batch batches on a
// caller-provided pool are isolated per call (each batch waits on its own
// completion latch), so any number of concurrent batches may share one
// pool. The per-signature brute-force path survives as scan_brute_force,
// the oracle for differential tests and the baseline for benchmarks.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.h"
#include "match/pattern.h"

namespace kizzle {
class ThreadPool;
}

namespace kizzle::match {

struct ScanHit {
  std::size_t signature_index;  // index into the scanner's signature list
  std::size_t begin;            // match span in the scanned text
  std::size_t end;
};

class Scanner {
 public:
  Scanner() = default;
  // Scanners are stateful (lazy database, counters); copying one would
  // silently fork those. Keep them pinned.
  Scanner(const Scanner&) = delete;
  Scanner& operator=(const Scanner&) = delete;

  // Adds a compiled signature; returns its index. `name` is a free-form
  // label carried through to reporting. Not safe to call concurrently
  // with scans.
  std::size_t add(std::string name, Pattern pattern);

  std::size_t size() const { return entries_.size(); }
  const std::string& name(std::size_t index) const;
  const Pattern& pattern(std::size_t index) const;

  // Scans `text`, returning one hit per matching signature (first match
  // position each). Signatures whose search exceeds the step budget are
  // skipped and counted in budget_exceeded_count().
  std::vector<ScanHit> scan(std::string_view text) const;

  // Reference path: per-signature search with no shared prefilter. Kept as
  // the oracle for differential tests and the baseline for benchmarks;
  // scan() must return byte-identical hits.
  std::vector<ScanHit> scan_brute_force(std::string_view text) const;

  // Scans a batch of samples across `pool`, one result vector per sample
  // (same order as `texts`). Safe to call concurrently with other batches
  // on the same pool. The overload without a pool spins up a transient one
  // per call (`threads` == 0 means hardware concurrency).
  std::vector<std::vector<ScanHit>> scan_batch(
      std::span<const std::string> texts, ThreadPool& pool) const;
  std::vector<std::vector<ScanHit>> scan_batch(
      std::span<const std::string> texts, std::size_t threads = 0) const;

  // True iff any signature matches.
  bool any_match(std::string_view text) const;

  // The compiled form of the current signature set (rebuilt lazily after
  // add()); scan consumers that want event-driven matching can use it with
  // engine::scan directly.
  const engine::Database& database() const;

  std::uint64_t budget_exceeded_count() const {
    return budget_exceeded_.load(std::memory_order_relaxed);
  }

 private:
  void scan_into(std::string_view text, const engine::Database& db,
                 engine::Scratch& scratch, std::vector<ScanHit>& hits) const;

  struct Entry {
    std::string name;
    Pattern pattern;
  };
  std::vector<Entry> entries_;
  // Concurrent batch scans all bump this; relaxed is fine — it is a
  // monotonic statistic, never synchronizes anything.
  mutable std::atomic<std::uint64_t> budget_exceeded_{0};
  engine::LazyDatabase database_;
  mutable engine::ScratchPool scratches_;
};

}  // namespace kizzle::match
