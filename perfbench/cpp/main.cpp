// Benchmark binary: runs one workload, gates it on correctness, times it,
// and prints (last line of stdout) one JSON object:
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
//
// Usage: eadt_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       [--commit STAMP] [--print-inputs] [--tiny] [--break CHECK]
//
// Earlier lines carry the run stamp (commit, nproc, build type, seed, workers,
// effective cores) and the deterministic digest, kept on separate lines so a
// perf change can show the digest did not move while the timings did.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "util/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Outcome;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "eadt_perfbench: " << why << "\n"
            << "usage: eadt_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "                      [--commit STAMP] [--print-inputs] [--tiny]\n"
               "                      [--break invariant|digest]\n"
               "workloads:";
  for (const auto& w : perfbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << "\n";
  std::exit(2);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Cores this process actually gets: nproc busy loops for 200 ms, CPU time
/// summed over wall time. A shared host gives less than nproc.
double effective_cores() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> cpu(n, 0.0);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const auto t0 = perfbench::Clock::now();
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      const double c0 = thread_cpu_seconds();
      volatile std::uint64_t sink = 0;
      while (!stop.load(std::memory_order_relaxed)) sink = sink + 1;
      cpu[i] = thread_cpu_seconds() - c0;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop = true;
  for (auto& t : threads) t.join();
  const double wall = perfbench::seconds_since(t0);
  double total = 0.0;
  for (const double c : cpu) total += c;
  return wall > 0.0 ? total / wall : 0.0;
}

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string quoted(const std::string& s) {
  std::ostringstream os;
  eadt::write_json_string(os, s);
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  bool print_inputs = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") usage("--trace takes 0 or 1");
        opt.trace = t == "1";
        have_trace = true;
      } else if (arg == "--commit") {
        commit = value();
      } else if (arg == "--print-inputs") {
        print_inputs = true;
      } else if (arg == "--tiny") {
        opt.tiny = true;
      } else if (arg == "--break") {
        opt.break_check = value();
        if (opt.break_check != "invariant" && opt.break_check != "digest") {
          usage("--break takes invariant or digest");
        }
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (!have_seed) usage("--seed is required");

  if (print_inputs) {
    std::cout << (opt.workload == "paper_sweep"
                      ? perfbench::paper_sweep_fingerprint(opt.seed, opt.tiny)
                      : perfbench::schedule_fingerprint(opt.workload, opt.seed, opt.tiny))
              << "\n";
    return 0;
  }
  if (!have_seconds || !have_trace) usage("--seconds and --trace are required");
  if (!(opt.seconds > 0.0) || opt.seconds > 600.0) usage("--seconds must be in (0, 600]");

  const double cores = effective_cores();
  Outcome out;
  try {
    out = opt.workload == "paper_sweep" ? perfbench::run_paper_sweep(opt)
                                        : perfbench::run_schedule_workload(opt);
  } catch (const std::exception& e) {
    out = Outcome{};
    out.attempted = 1;
    out.fail(std::string("uncaught exception: ") + e.what());
  }
  for (const auto& m : out.metrics) {
    if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
  }
  if (out.attempted == 0) out.fail("no operation was attempted");

  std::cout << "stamp {\"commit\": " << quoted(commit)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"workload\": " << quoted(opt.workload) << ", \"seed\": " << opt.seed
            << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"workers\": " << out.workers
            << ", \"pool_workers\": " << out.pool_workers
            << ", \"effective_cores\": " << num(cores)
            << ", \"untraced_instruments\": " << out.untraced_instruments << "}\n";
  std::cout << "digest {\"payload_fnv1a64\": " << quoted(out.digest)
            << ", \"summary\": " << quoted(out.digest_summary) << "}\n";
  for (const auto& p : out.problems) std::cout << "FAILED: " << p << "\n";
  const double failed_frac = out.attempted > 0
                                 ? static_cast<double>(out.failed) /
                                       static_cast<double>(out.attempted)
                                 : 1.0;
  std::cout << "metric ops_failed_frac " << num(failed_frac) << " frac (" << out.failed
            << " of " << out.attempted << " operations)\n";
  for (const auto& m : out.metrics) {
    std::cout << "metric " << m.name << ' ' << num(m.value) << ' ' << m.unit << "\n";
  }
  for (const auto& m : out.raw) {
    std::cout << "raw " << m.name << ' ' << num(m.value) << ' ' << m.unit << "\n";
  }

  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": {";
  if (out.correct) {
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
      const auto& m = out.metrics[i];
      std::cout << (i ? ", " : "") << quoted(m.name) << ": {\"value\": " << num(m.value)
                << ", \"unit\": " << quoted(m.unit) << "}";
    }
  }
  std::cout << "}}" << std::endl;
  return out.correct ? 0 : 1;
}
