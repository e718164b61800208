// kbench: argument parsing, workload table, run context and the
// result line. Usage:
//
//   kbench --workload <campaign|fleet_10k|release_1k> --seed <n>
//          --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// The last stdout line is {"correct", "attempted", "failed", "metrics"}:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// The line before it is the run context. With --trace 1 the spans are
// written to <work-dir>/trace-<workload>-<seed>.json.
#include <malloc.h>
#include <sys/resource.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "kbench.h"
#include "match/teddy.h"

#ifndef KBENCH_BUILD_TYPE
#define KBENCH_BUILD_TYPE "unknown"
#endif
#ifndef KBENCH_CXX_FLAGS
#define KBENCH_CXX_FLAGS "unknown"
#endif

namespace kbench {
namespace {

// Why each workload exists, and what it loads, is in README.md. Shares are
// of --seconds; set-up and input generation come on top.
constexpr Workload kWorkloads[] = {
    // The paper's loop over all of August: text, cluster, winnow, unpack,
    // sig and the lint gate do the work; the ~20-signature database keeps
    // match/engine cheap, so this is the control for scan-side changes.
    {"campaign", 31, 0.5, 2, 0, 2, 1, 1, 0.40, 0.03, 0.10, 0.35, 0.12},
    // Reads at serving scale: 10,000 signatures, Teddy tiers 1-2 dominate.
    {"fleet_10k", 3, 0.5, 5, 10000, 20, 2, 2, 0.20, 0.10, 0.10, 0.30, 0.30},
    // Release cycles at 1,000 signatures: sigdb, lint and prefilter build
    // dominate; scans run the 8-bucket Teddy plan.
    {"release_1k", 3, 0.5, 5, 1000, 20, 1, 1, 0.20, 0.05, 0.10, 0.30, 0.35},
};

// Rounds of the phase schedule: each round gives every phase its share of
// the round, so every metric samples the whole run.
constexpr int kRounds = 8;

struct Slot {
  std::unique_ptr<Phase> phase;
  double share = 0.0;
  double used_s = 0.0;
  double last_unit_s = 0.0;
  bool done = false;

  void run_unit() {
    const Clock::time_point t0 = Clock::now();
    done = !phase->unit();
    last_unit_s = seconds_since(t0);
    used_s += last_unit_s;
  }
};

// Round r entitles each phase to share * seconds * r / kRounds; a phase
// runs units while it is more than half a unit short of that. Phases then
// top up to their minimum unit counts and report, in slot order.
// Each round also times the reference loop once (`reference_ns`, one value
// per round, for the run context).
void schedule(const Options& opt, std::vector<Slot>& slots,
              std::vector<double>& reference_ns) {
  for (int r = 1; r <= kRounds; ++r) {
    reference_ns.push_back(reference_loop_ns());
    for (Slot& s : slots) {
      const double entitled = s.share * opt.seconds * r / kRounds;
      while (!s.done && s.used_s + s.last_unit_s / 2 < entitled) s.run_unit();
    }
  }
  for (Slot& s : slots) {
    while (!s.done && s.phase->needs_more()) s.run_unit();
  }
  for (Slot& s : slots) s.phase->finish();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}


std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "kbench: " << why
            << "\nusage: kbench --workload <campaign|fleet_10k|release_1k> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = std::stoi(val) != 0;
      } else if (key == "--work-dir") {
        opt.work_dir = val;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  if (opt.work_dir.empty()) opt.work_dir = ".bench_build/kbench-work";
  return opt;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void record_context(const Options& opt, const Serving& serving, Run& run) {
  using kizzle::match::teddy::best_impl;
  using kizzle::match::teddy::impl_name;
  auto& c = run.context;
  c.insert(c.begin(),
           {{"workload", json_str(opt.workload)},
            {"seed", std::to_string(opt.seed)},
            {"seconds", number(opt.seconds)},
            {"trace", opt.trace ? "true" : "false"},
            {"nproc", std::to_string(std::thread::hardware_concurrency())},
            {"avx2", __builtin_cpu_supports("avx2") ? "true" : "false"},
            {"teddy_kernel", json_str(impl_name(best_impl()))},
            {"teddy_active", serving.db->prefilter().teddy_active() ? "true"
                                                                    : "false"},
#if defined(__clang__)
            {"compiler", json_str(std::string("clang ") + __VERSION__)},
#else
            {"compiler", json_str(std::string("gcc ") + __VERSION__)},
#endif
            {"cxx_flags", json_str(KBENCH_CXX_FLAGS)},
            {"build_type", json_str(KBENCH_BUILD_TYPE)}});
}

std::string context_json(const Run& run) {
  std::string out = "{";
  for (std::size_t i = 0; i < run.context.size(); ++i) {
    if (i) out += ", ";
    out += json_str(run.context[i].first) + ": " + run.context[i].second;
  }
  return out + "}";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_str(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           json_str(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::string json_str(const std::string& s) { return "\"" + json_escape(s) + "\""; }

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

void Run::op(bool success, const std::string& what, bool refused_op) {
  ++attempted;
  if (success) {
    ++ok;
    return;
  }
  ++(refused_op ? refused : failed);
  if (errors.size() < 8) {
    errors.push_back(what + (refused_op ? " (refused)" : " (failed)"));
  }
}

}  // namespace kbench

int main(int argc, char** argv) {
  using namespace kbench;
  const Options opt = parse(argc, argv);
  // Freed memory stays in the process for reuse: glibc serves no block
  // from its own mmap and never trims the heap. By default every deploy
  // of a large `.kpf` maps and zero-faults its buffers afresh, and on the
  // shared reference VM that page-fault work was half of a fleet_10k
  // deploy and the part that swung most with the host's load.
  const bool malloc_retains = mallopt(M_MMAP_THRESHOLD, INT_MAX) == 1 &&
                              mallopt(M_TRIM_THRESHOLD, INT_MAX) == 1;
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) usage("unknown workload " + opt.workload);
  std::filesystem::create_directories(opt.work_dir);

  Run run(opt.trace);
  const CpuTimes cpu_start = read_cpu_times();
  const double load_start = loadavg_1m();
  std::vector<double> reference_ns;
  try {
    Corpus corpus;
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Phase> compile = make_compile_phase(*w, opt, run, corpus);
    const double first_rep_s = seconds_since(t0);
    Serving serving;
    std::unique_ptr<Phase> setup = make_setup_phase(*w, opt, corpus, run, serving);
    record_context(opt, serving, run);
    std::vector<Slot> slots;
    slots.push_back({std::move(compile), w->compile_share, first_rep_s});
    slots.push_back({std::move(setup), w->setup_share});
    slots.push_back({make_scan_phase(opt, corpus, serving, run), w->scan_share});
    slots.push_back(
        {make_serve_phase(opt, corpus, serving, run), w->serve_share});
    slots.push_back(
        {make_release_phase(*w, opt, corpus, serving, run), w->release_share});
    schedule(opt, slots, reference_ns);
  } catch (const std::exception& e) {
    std::cerr << "kbench: " << opt.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  run.e2e("ops_ok_frac",
          static_cast<double>(run.ok) / static_cast<double>(run.attempted),
          "fraction");
  run.e2e("peak_rss_mb", peak_rss_mb(), "MB");

  // Machine load over the run: a slow period of the shared machine shows
  // here, not as an effect of the code under test.
  run.context.push_back(
      {"malloc_retains_freed", malloc_retains ? "true" : "false"});
  run.context.push_back(
      {"steal_pct", number(steal_pct(cpu_start, read_cpu_times()))});
  run.context.push_back({"loadavg_1m_start", number(load_start)});
  run.context.push_back({"loadavg_1m_end", number(loadavg_1m())});
  std::string ref = "[";
  for (std::size_t i = 0; i < reference_ns.size(); ++i) {
    ref += (i ? ", " : "") + number(reference_ns[i]);
  }
  run.context.push_back({"reference_loop_ns", ref + "]"});
  run.context.push_back({"ops_attempted", std::to_string(run.attempted)});
  run.context.push_back({"ops_failed", std::to_string(run.failed)});
  run.context.push_back(
      {"ops_refused", std::to_string(run.refused)});
  std::string errs = "[";
  for (std::size_t i = 0; i < run.errors.size(); ++i) {
    errs += (i ? ", " : "") + json_str(run.errors[i]);
  }
  run.context.push_back({"errors", errs + "]"});
  run.context.push_back({"end_to_end", metrics_json(run.end_to_end)});
  for (const std::string& e : run.errors) std::cerr << "kbench: " << e << "\n";

  if (opt.trace) {
    const std::string path = opt.work_dir + "/trace-" + opt.workload + "-" +
                              std::to_string(opt.seed) + ".json";
    run.tracer.write(path, context_json(run));
    run.context.push_back({"trace_file", json_str(path)});
  }
  std::cout << "{\"context\": " << context_json(run) << "}\n";
  const bool correct = run.failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.attempted
            << ", \"failed\": " << run.failed << ", \"metrics\": "
            << metrics_json(opt.trace ? run.per_layer : run.end_to_end)
            << "}" << std::endl;
  return 0;
}
