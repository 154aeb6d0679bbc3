#include "common.hpp"

#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>
#include <thread>

#include "exp/tick_pool.hpp"

namespace perfbench {

int bench_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(n), 1, 4);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  std::uint64_t z = seed;
  for (const std::uint64_t part : {stream, index}) {
    z += 0x9e3779b97f4a7c15ULL + part;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
  }
  return z != 0 ? z : 0x9e3779b97f4a7c15ULL;
}

std::string hash_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void release_free_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) kib = -1;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double reference_kernel_s(int threads) {
  static const std::vector<double> base = [] {
    std::vector<double> v(std::size_t{1} << 19);
    std::mt19937_64 rng(0x5eed);
    std::uniform_real_distribution<double> u;
    for (double& x : v) x = u(rng);
    return v;
  }();
  const auto n = static_cast<std::size_t>(std::max(threads, 1));
  std::vector<std::vector<double>> copies(n, base);
  const auto t0 = Clock::now();
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < n; ++i) {
    helpers.emplace_back([&copies, i] { std::sort(copies[i].begin(), copies[i].end()); });
  }
  std::sort(copies[0].begin(), copies[0].end());
  for (auto& t : helpers) t.join();
  return seconds_since(t0);
}

double tickpool_roundtrip_us(int workers) {
  constexpr int kRounds = 2000;
  eadt::exp::TickPool pool(workers);
  const auto noop = [](void*, std::size_t) {};
  const auto count = static_cast<std::size_t>(std::max(workers, 1));
  for (int i = 0; i < 100; ++i) pool.run(count, noop, nullptr);  // wake the workers
  std::vector<double> us;
  us.reserve(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    const auto t0 = Clock::now();
    pool.run(count, noop, nullptr);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(std::move(us));
}

std::vector<Metric> end_to_end_metrics(const EndToEnd& e) {
  return {{"setup_s", e.setup_s, "s"},          {"wall_s", e.wall_s, "s"},
          {"tick_ms_mean", e.tick_ms_mean, "ms"}, {"run_ms_p50", e.run_ms_p50, "ms"},
          {"run_ms_p90", e.run_ms_p90, "ms"},   {"peak_rss_mb", e.peak_rss_mb, "MiB"}};
}

std::vector<Metric> layer_metrics(const LayerValues& l) {
  std::vector<Metric> m{
      {"testbeds.dataset_ms", l.dataset_ms, "ms"},
      {"baselines.plan_us", l.baselines_plan_us, "us"},
      {"core.plan_us", l.core_plan_us, "us"},
      {"core.controller_calls", l.core_controller_calls, "count"},
      {"core.controller_us", l.core_controller_us, "us"},
      {"proto.session_ms", l.proto_session_ms, "ms"},
      {"proto.tick_us", l.proto_tick_us, "us"},
      {"sim.events_fired", l.sim_events_fired, "count"},
      {"sim.events_cancelled", l.sim_events_cancelled, "count"},
      {"sim.ticks", l.sim_ticks, "count"},
      {"sim.peak_queue", l.sim_peak_queue, "count"},
      {"exp.sweep.busy_frac", l.sweep_busy_frac, "frac"},
      {"exp.sweep.task_ms_max", l.sweep_task_ms_max, "ms"},
      {"exp.ticks", l.exp_ticks, "count"},
  };
  static const char* const kPhases[4] = {"prepare", "arbiter", "apply", "commit"};
  for (int p = 0; p < 4; ++p) {
    const std::string base = std::string("exp.tick.") + kPhases[p];
    m.push_back({base + "_us_p50", l.phase_p50[p], "us"});
    m.push_back({base + "_us_p99", l.phase_p99[p], "us"});
  }
  for (int p = 0; p < 4; ++p) {
    m.push_back({std::string("exp.tick.") + kPhases[p] + "_share", l.phase_share[p], "frac"});
  }
  m.push_back({"exp.tick.other_share", l.other_share, "frac"});
  m.push_back({"exp.tickpool.roundtrip_us", l.tickpool_roundtrip_us, "us"});
  m.push_back({"exp.tickpool.ops_imbalance", l.tickpool_ops_imbalance, "ratio"});
  m.push_back({"exp.tickpool.tick_ms_mean", l.tickpool_tick_ms_mean, "ms"});
  m.push_back({"exp.tickpool.speedup", l.tickpool_speedup, "ratio"});
  m.push_back({"exp.attempts", l.attempts, "count"});
  m.push_back({"exp.preemptions", l.preemptions, "count"});
  m.push_back({"exp.resumes", l.resumes, "count"});
  m.push_back({"exp.shed", l.shed, "count"});
  m.push_back({"exp.deferrals", l.deferrals, "count"});
  m.push_back({"obs.traced_overhead_frac", l.traced_overhead_frac, "frac"});
  return m;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper_sweep", "fleet_steady",
                                              "multitenant_churn"};
  return names;
}

}  // namespace perfbench
