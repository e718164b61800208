// Serve phase: serve::ScanServer with two workers, driven by one
// load-generator thread (this one) over a seeded mix of one-shot requests
// and chunked streams. Every response is checked against the verdict an
// independently compiled database gave for the same document.
//
//   serve_rps       saturated: a fixed window of requests kept in flight.
//   serve_p50/p99   open loop at one fixed rate, each request timed from
//                   when it was due, not from when it was sent.
//   capacity_rps    the highest rate on a fixed geometric ladder whose
//                   open-loop probe meets p99 <= 1 ms (fast quartile over
//                   the probe's 20 ms windows) with nothing shed or failed and
//                   no backlog left at the end of the schedule. Every
//                   serve unit runs its own binary search over the ladder;
//                   the metric is the upper quartile of the units' results.
//
// The generator sleeps whenever it can: until shortly before each due
// time in the open loop, and while the window is full when saturated. A
// generator that spun through every slice would hold a whole CPU beside
// the two workers and be the first thread a busy host preempts.
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "kbench.h"
#include "serve/server.h"
#include "support/rng.h"

namespace kbench {

namespace engine = kizzle::engine;
namespace serve = kizzle::serve;

namespace {

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kWindow = 128;
constexpr double kStreamFraction = 0.3;
constexpr std::size_t kChunkBytes = 4096;
constexpr std::size_t kMixLength = 1 << 16;
constexpr double kLatencyLimitUs = 1000.0;
constexpr double kOpenLoopRps = 10000.0;
constexpr double kLadderBase = 2000.0;
constexpr double kLadderStep = 1.03;
// Each unit's capacity search covers the ladder between these shares of
// the unit's saturated throughput: a rate above saturation cannot hold
// its schedule, and on the reference machine capacity sat at 0.7-0.9 of
// saturation.
constexpr double kSearchLow = 0.5;
constexpr double kSearchHigh = 1.0;
constexpr double kProbeSeconds = 0.25;
constexpr double kProbeWindowSeconds = 0.02;
constexpr double kWindowSeconds = 0.1;  // open-loop percentile window
// One serve unit: a saturated slice, an open-loop slice, and one capacity
// search.
constexpr double kSaturatedSlice = 0.3;
constexpr double kOpenLoopSlice = 0.5;
constexpr std::size_t kMinUnits = 3;
constexpr double kWarmupSeconds = 0.05;  // window refill per slice
// The open-loop generator sleeps until this long before a due time and
// spins the rest, so that it is not late for it.
constexpr auto kSpinMargin = std::chrono::microseconds(30);
// The saturated generator's nap while its window is full: far shorter
// than the window takes to drain.
constexpr auto kFullWindowNap = std::chrono::microseconds(20);
constexpr std::size_t kDirectSamples = 20000;
constexpr std::size_t kSpanEvery = 16;  // serve.request spans kept per request

// One request of the serve mix (and of the direct-scan reference).
struct MixItem {
  std::uint32_t doc;
  bool stream;
};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Sets the calling thread's timer slack to 1 us while in scope, so short
// sleeps end close to when they were asked to (the default slack is
// 50 us, longer than the gap between two due times).
class FineTimerSlack {
 public:
  FineTimerSlack() : saved_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    if (saved_ > 0) prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  }
  ~FineTimerSlack() {
    if (saved_ > 0) prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(saved_), 0, 0, 0);
  }
  FineTimerSlack(const FineTimerSlack&) = delete;
  FineTimerSlack& operator=(const FineTimerSlack&) = delete;

 private:
  int saved_;
};

std::vector<MixItem> make_mix(std::uint64_t seed, std::size_t docs) {
  kizzle::Rng rng(seed ^ 0x5E5E5E5E5E5E5E5Eull);
  std::vector<MixItem> mix(kMixLength);
  for (MixItem& m : mix) {
    m.doc = static_cast<std::uint32_t>(rng.index(docs));
    m.stream = rng.chance(kStreamFraction);
  }
  return mix;
}

// Response check shared by every phase: served, complete, and the same
// verdict the reference database gave.
struct Checker {
  const std::vector<std::string>* expected;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> deadline_expired{0};

  void check(const serve::ScanResponse& r, std::uint32_t doc) {
    if (r.outcome.status == engine::ScanStatus::kDeadlineExpired) {
      deadline_expired.fetch_add(1, std::memory_order_relaxed);
    }
    const bool ok = r.status == serve::RequestStatus::kOk &&
                    r.outcome.complete() &&
                    (r.matched ? r.signature : std::string()) ==
                        (*expected)[doc];
    if (!ok) failed.fetch_add(1, std::memory_order_relaxed);
  }
};

// Sends one mix item; `done` runs on a worker. Returns kOk when admitted.
template <typename Done>
serve::RequestStatus send(serve::ScanServer& server, const Corpus& corpus,
                          const MixItem& item, Done&& done) {
  const std::string& doc = corpus.docs[item.doc];
  if (!item.stream) return server.submit(doc, std::forward<Done>(done));
  serve::ScanServer::Stream stream = server.open_stream();
  for (std::size_t at = 0; at < doc.size(); at += kChunkBytes) {
    const auto st = stream.feed(doc.substr(at, kChunkBytes));
    if (st != serve::RequestStatus::kOk) return st;
  }
  return stream.finish(std::forward<Done>(done));
}

// Waits until `counter` reaches `target` (bounded: a lost completion must
// fail the run, not hang it).
bool wait_for(const std::atomic<std::uint64_t>& counter, std::uint64_t target) {
  const Clock::time_point limit = Clock::now() + std::chrono::seconds(20);
  while (counter.load(std::memory_order_acquire) < target) {
    if (Clock::now() > limit) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

struct OpenLoopResult {
  std::uint64_t sent = 0;      // admitted
  std::uint64_t shed = 0;      // refused at submit
  std::uint64_t failed = 0;    // wrong verdict, not served, or lost
  std::uint64_t deadline_expired = 0;
  std::uint64_t backlog = 0;   // admitted but unanswered at schedule end
  bool fell_behind = false;    // generator could not keep the schedule
  double p99_us = 0.0;  // over the whole schedule
  // Each window's p50 and p99 (kWindowSeconds of schedule per window).
  std::vector<double> window_p50_us, window_p99_us;
  double lag_p99_us = 0.0;
  std::size_t samples = 0;
};

// Sends `rate` requests per second for `seconds` on a fixed schedule.
// Latency is completion time minus due time. With `abort_on_shed` the
// probe stops at the first refusal (the ladder only needs pass/fail).
OpenLoopResult open_loop(serve::ScanServer& server, const Corpus& corpus,
                         const std::vector<MixItem>& mix,
                         const std::vector<std::string>& expected, double rate,
                         double seconds, double window_s,
                         std::size_t mix_offset, bool abort_on_shed,
                         Tracer* tracer) {
  const auto n = static_cast<std::size_t>(std::ceil(rate * seconds));
  std::vector<std::int64_t> done_ns(n, -1);
  std::vector<double> lag_us;
  lag_us.reserve(n);
  Checker checker;
  checker.expected = &expected;
  OpenLoopResult res;
  const double period_ns = 1e9 / rate;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point give_up =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds + 0.05));
  std::size_t issued = 0;
  for (; issued < n; ++issued) {
    const Clock::time_point due =
        t0 + std::chrono::nanoseconds(
                 static_cast<std::int64_t>(static_cast<double>(issued) * period_ns));
    Clock::time_point now = Clock::now();
    if (due - now > kSpinMargin) {
      std::this_thread::sleep_until(due - kSpinMargin);
      now = Clock::now();
    }
    while (now < due) {
      cpu_relax();
      now = Clock::now();
    }
    if (now > give_up) {
      res.fell_behind = true;
      break;
    }
    lag_us.push_back(std::chrono::duration<double, std::micro>(now - due).count());
    const MixItem& item = mix[(mix_offset + issued) % mix.size()];
    std::int64_t* slot = &done_ns[issued];
    const auto st = send(server, corpus, item,
                         [slot, &checker, doc = item.doc](serve::ScanResponse r) {
                           *slot = to_ns(Clock::now());
                           checker.check(r, doc);
                           checker.completed.fetch_add(1, std::memory_order_release);
                         });
    if (st == serve::RequestStatus::kOk) {
      ++res.sent;
    } else {
      ++res.shed;
      if (abort_on_shed) {
        ++issued;
        break;
      }
    }
  }
  const std::uint64_t answered = checker.completed.load(std::memory_order_acquire);
  res.backlog = res.sent > answered ? res.sent - answered : 0;
  if (!wait_for(checker.completed, res.sent)) {
    res.failed += res.sent - checker.completed.load();
    server.drain();
  }
  res.failed += checker.failed.load();
  res.deadline_expired = checker.deadline_expired.load();

  // Latencies of answered requests, in schedule order. A refused request
  // has none: it is counted in `shed` (and fails a capacity probe).
  std::vector<double> lat_us;
  lat_us.reserve(issued);
  const std::int64_t t0_ns = to_ns(t0);
  for (std::size_t i = 0; i < issued; ++i) {
    const double due_ns = static_cast<double>(t0_ns) +
                          static_cast<double>(i) * period_ns;
    if (done_ns[i] < 0) continue;
    lat_us.push_back((static_cast<double>(done_ns[i]) - due_ns) / 1e3);
    if (tracer != nullptr && i % kSpanEvery == 0) {
      const auto due = Clock::time_point(std::chrono::nanoseconds(
          static_cast<std::int64_t>(due_ns)));
      tracer->add("serve.request", due,
                  Clock::time_point(std::chrono::nanoseconds(done_ns[i])), i);
    }
  }
  res.samples = lat_us.size();
  res.p99_us = percentile(lat_us, 0.99);
  // Per-window percentiles: a stall of the shared machine lands in one
  // window and moves that window's tail, not the median window's.
  const auto per_window = std::max<std::size_t>(
      1, static_cast<std::size_t>(rate * window_s));
  for (std::size_t at = 0; at + per_window <= lat_us.size(); at += per_window) {
    const std::vector<double> win(lat_us.begin() + static_cast<std::ptrdiff_t>(at),
                                  lat_us.begin() + static_cast<std::ptrdiff_t>(at + per_window));
    res.window_p50_us.push_back(percentile(win, 0.5));
    res.window_p99_us.push_back(percentile(win, 0.99));
  }
  res.lag_p99_us = percentile(lag_us, 0.99);
  return res;
}

struct SaturatedResult {
  double rps = 0.0;
  std::uint64_t ok = 0, shed = 0, failed = 0, deadline_expired = 0;
  double batch_mean = 0.0;
};

SaturatedResult saturated(serve::ScanServer& server, const Corpus& corpus,
                          const std::vector<MixItem>& mix,
                          const std::vector<std::string>& expected,
                          double seconds) {
  Checker checker;
  checker.expected = &expected;
  std::atomic<std::int64_t> in_flight{0};
  SaturatedResult res;
  std::uint64_t sent = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point warm = start + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(kWarmupSeconds));
  const Clock::time_point end = warm + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(seconds));
  std::uint64_t at_warm = 0;
  serve::ServerStats stats_warm{};
  bool warmed = false;
  for (std::size_t i = 0;;) {
    const Clock::time_point now = Clock::now();
    if (!warmed && now >= warm) {
      at_warm = checker.completed.load(std::memory_order_acquire);
      stats_warm = server.stats();
      warmed = true;
    }
    if (now >= end) break;
    if (in_flight.load(std::memory_order_acquire) >= static_cast<std::int64_t>(kWindow)) {
      std::this_thread::sleep_for(kFullWindowNap);
      continue;
    }
    in_flight.fetch_add(1, std::memory_order_acq_rel);
    const MixItem& item = mix[i++ % mix.size()];
    const auto st = send(server, corpus, item,
                         [&checker, &in_flight, doc = item.doc](serve::ScanResponse r) {
                           checker.check(r, doc);
                           in_flight.fetch_sub(1, std::memory_order_acq_rel);
                           // Last touch: the generator may return once
                           // every completion is counted.
                           checker.completed.fetch_add(1, std::memory_order_release);
                         });
    if (st == serve::RequestStatus::kOk) {
      ++sent;
    } else {
      ++res.shed;
      in_flight.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  const Clock::time_point stop = Clock::now();
  const std::uint64_t at_end = checker.completed.load(std::memory_order_acquire);
  const serve::ServerStats stats_end = server.stats();
  res.rps = static_cast<double>(at_end - at_warm) /
            std::chrono::duration<double>(stop - warm).count();
  const bool all = wait_for(checker.completed, sent);
  res.failed = checker.failed.load() + (all ? 0 : sent - checker.completed.load());
  if (!all) server.drain();
  res.ok = sent - res.failed;
  res.deadline_expired = checker.deadline_expired.load();
  const auto batches = stats_end.batches - stats_warm.batches;
  res.batch_mean = batches == 0 ? 0.0
                                : static_cast<double>(stats_end.batched_jobs -
                                                      stats_warm.batched_jobs) /
                                      static_cast<double>(batches);
  return res;
}

// Direct single-thread scans of the same mix, timed per request: the
// serve layer's overhead is the serve p50 minus this p50.
double direct_p50_us(const engine::Database& db, const Corpus& corpus,
                     const std::vector<MixItem>& mix) {
  engine::Scratch scratch;
  std::vector<double> us;
  us.reserve(kDirectSamples);
  for (std::size_t i = 0; i < kDirectSamples; ++i) {
    const MixItem& item = mix[i % mix.size()];
    const std::string& doc = corpus.docs[item.doc];
    const Clock::time_point t0 = Clock::now();
    if (item.stream) {
      engine::Stream stream = engine::open_stream(db, scratch);
      for (std::size_t at = 0; at < doc.size(); at += kChunkBytes) {
        stream.feed(std::string_view(doc).substr(at, kChunkBytes));
      }
      stream.finish_first();
    } else {
      engine::first_match(db, doc, scratch);
    }
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return percentile(us, 0.5);
}

double ladder_rate(int k) { return kLadderBase * std::pow(kLadderStep, k); }
// The lowest ladder step at or above `rate` (0 below the ladder).
int ladder_step(double rate) {
  if (rate <= kLadderBase) return 0;
  return static_cast<int>(std::ceil(std::log(rate / kLadderBase) / std::log(kLadderStep)));
}

class ServePhase : public Phase {
 public:
  ServePhase(const Options& opt, const Corpus& corpus, const Serving& serving,
             Run& run)
      : corpus_(corpus),
        serving_(serving),
        run_(run),
        mix_(make_mix(opt.seed, corpus.docs.size())),
        server_(serving.db, server_config()) {
    direct_p50_ = direct_p50_us(*serving_.db, corpus_, mix_);
  }

  bool unit() override {
    SpanGuard phase(run_.tracer, "phase.serve");
    const FineTimerSlack slack;
    const CpuTimes cpu_start = read_cpu_times();
    double rps = 0.0;
    {
      SpanGuard span(run_.tracer, "serve.saturated");
      const SaturatedResult r =
          saturated(server_, corpus_, mix_, serving_.expected, kSaturatedSlice);
      count_slice(r.shed, r.failed, "saturated slice");
      rps = r.rps;
      sat_rps_.push_back(r.rps);
      batch_mean_.push_back(r.batch_mean);
      shed_ += r.shed;
      failed_ += r.failed;
      deadline_expired_ += r.deadline_expired;
    }
    {
      SpanGuard span(run_.tracer, "serve.open_loop");
      const OpenLoopResult r =
          open_loop(server_, corpus_, mix_, serving_.expected, kOpenLoopRps,
                    kOpenLoopSlice, kWindowSeconds, mix_offset_, false,
                    &run_.tracer);
      mix_offset_ += r.samples;
      count_slice(r.shed, r.failed, "open-loop slice");
      p50_.insert(p50_.end(), r.window_p50_us.begin(), r.window_p50_us.end());
      p99_.insert(p99_.end(), r.window_p99_us.begin(), r.window_p99_us.end());
      lag_p99_.push_back(r.lag_p99_us);
      p99_all_.push_back(r.p99_us);
      shed_ += r.shed;
      failed_ += r.failed;
      deadline_expired_ += r.deadline_expired;
    }
    capacity_.push_back(capacity_search(rps));
    unit_steal_.push_back(steal_pct(cpu_start, read_cpu_times()));
    return true;
  }

  bool needs_more() const override { return sat_rps_.size() < kMinUnits; }

  void finish() override {
    server_.stop();
    run_.e2e("serve_rps", high_quartile(sat_rps_), "1/s");
    run_.e2e("serve_p50_us", low_quartile(p50_), "us");
    run_.e2e("serve_p99_us", low_quartile(p99_), "us");
    run_.e2e("capacity_rps", high_quartile(capacity_), "1/s");
    run_.layer("serve.overhead_us", low_quartile(p50_) - direct_p50_, "us");
    run_.layer("serve.batch_mean", median(batch_mean_), "count");
    run_.layer("serve.shed", static_cast<double>(shed_), "count");
    run_.layer("serve.failed", static_cast<double>(failed_), "count");
    run_.layer("serve.deadline_expired", static_cast<double>(deadline_expired_),
               "count");
    run_.layer("serve.generator_lag_p99_us", median(lag_p99_), "us");
    run_.context.push_back({"serve_open_loop_rps", std::to_string(kOpenLoopRps)});
    run_.context.push_back({"serve_units", std::to_string(sat_rps_.size())});
    run_.context.push_back({"serve_open_loop_windows", std::to_string(p99_.size())});
    run_.context.push_back(
        {"serve_open_loop_p99_us_max_slice",
         std::to_string(*std::max_element(p99_all_.begin(), p99_all_.end()))});
    run_.context.push_back({"serve_unit_rps", list(sat_rps_)});
    run_.context.push_back({"serve_unit_capacity_rps", list(capacity_)});
    run_.context.push_back({"serve_unit_steal_pct", list(unit_steal_)});
    run_.context.push_back({"serve_capacity_probes", "[" + probe_log_ + "]"});
  }

 private:
  static serve::ServerConfig server_config() {
    serve::ServerConfig cfg;
    cfg.workers = kWorkers;
    return cfg;
  }

  // A slice of traffic is one operation: failed if any response was wrong
  // or lost, refused if any request was shed. (Per request, the defect's
  // refusals elsewhere in the run would weigh nothing against ~10^5
  // requests.) serve.shed and serve.failed count single requests.
  void count_slice(std::uint64_t shed, std::uint64_t failed, const char* what) {
    run_.op(shed == 0 && failed == 0,
            std::string(what) + ": " + std::to_string(failed) +
                " wrong or lost responses, " + std::to_string(shed) + " shed",
            failed == 0);
  }

  static std::string list(const std::vector<double>& v) {
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.1f", i ? ", " : "", v[i]);
      out += buf;
    }
    return out + "]";
  }

  // Binary search for the highest passing ladder rate between kSearchLow
  // and kSearchHigh of this unit's saturated throughput (0 when none
  // passes). Refusals inside a probe are its verdict (over capacity), not
  // failures; wrong verdicts are failures.
  double capacity_search(double saturated_rps) {
    int pass_at = ladder_step(kSearchLow * saturated_rps) - 1;  // assumed
    int fail_at = ladder_step(kSearchHigh * saturated_rps) + 1;  // assumed
    const int lowest = pass_at;
    while (fail_at - pass_at > 1) {
      const int mid = (pass_at + fail_at) / 2;
      const double rate = ladder_rate(mid);
      SpanGuard probe(run_.tracer, "serve.capacity_probe",
                      static_cast<std::uint64_t>(rate));
      const OpenLoopResult r =
          open_loop(server_, corpus_, mix_, serving_.expected, rate,
                    kProbeSeconds, kProbeWindowSeconds, mix_offset_, true,
                    nullptr);
      mix_offset_ += r.samples;
      count_slice(0, r.failed, "capacity probe");
      const double backlog_limit = std::max(64.0, rate * kLatencyLimitUs / 1e6);
      const double p99 = low_quartile(r.window_p99_us);
      const bool pass = !r.fell_behind && r.shed == 0 && r.failed == 0 &&
                        p99 <= kLatencyLimitUs &&
                        static_cast<double>(r.backlog) <= backlog_limit;
      char line[160];
      std::snprintf(line, sizeof line, "%s[%.0f, %.1f, %llu, %llu, %d, %d]",
                    probe_log_.empty() ? "" : ", ", rate, p99,
                    static_cast<unsigned long long>(r.shed),
                    static_cast<unsigned long long>(r.backlog),
                    r.fell_behind ? 1 : 0, pass ? 1 : 0);
      probe_log_ += line;
      (pass ? pass_at : fail_at) = mid;
    }
    return pass_at == lowest ? 0.0 : ladder_rate(pass_at);
  }

  const Corpus& corpus_;
  const Serving& serving_;
  Run& run_;
  const std::vector<MixItem> mix_;
  serve::ScanServer server_;
  double direct_p50_ = 0.0;
  std::size_t mix_offset_ = 0;
  std::vector<double> sat_rps_, batch_mean_, p50_, p99_, lag_p99_, p99_all_;
  std::vector<double> capacity_, unit_steal_;
  std::uint64_t shed_ = 0, failed_ = 0, deadline_expired_ = 0;
  std::string probe_log_;  // [rate, p99_us, shed, backlog, fell_behind, pass]
};

}  // namespace

std::unique_ptr<Phase> make_serve_phase(const Options& opt,
                                        const Corpus& corpus,
                                        const Serving& serving, Run& run) {
  return std::make_unique<ServePhase>(opt, corpus, serving, run);
}

}  // namespace kbench
