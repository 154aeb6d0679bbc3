// Shared vocabulary of the benchmark binary: command-line options, the
// metric/outcome records every workload returns, and small timing and
// statistics helpers. Everything wall-clock lives here or in the workload
// files; the engine is only ever called through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement budget of the timed loop
  bool trace = false;     ///< false: end-to-end metrics; true: per-layer metrics
  /// Test-only: shrink every input so the self-tests finish in seconds. The
  /// measured workloads never set it.
  bool tiny = false;
  /// Test-only: corrupt the named check's input after the program returns
  /// ("invariant" or "digest"), to prove the gate fails the command.
  std::string break_check;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload invocation hands back to main(): the verdict, the
/// operation counts, the metrics to print, and the deterministic digest
/// (kept apart from every wall-clock number).
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< one line per failed check
  std::vector<Metric> metrics;
  /// The untraced timings before host-speed scaling, and the reference
  /// kernel's own time: printed on `raw` lines, never in the JSON result.
  std::vector<Metric> raw;
  std::string digest;          ///< 64-bit hash of the deterministic payload
  std::string digest_summary;  ///< headline simulated totals, for humans
  int workers = 1;       ///< threads of the timed calls
  int pool_workers = 0;  ///< TickPool workers of the pooled pass (0: none)
  /// Observers found on the SweepTasks of timed untraced sweep calls. Must
  /// stay 0; the self-tests read it. Scheduler exposes no getter for what is
  /// attached to it, so the scheduler workloads leave this 0: their untraced
  /// calls attach nothing by construction (run_cells), which is not measured.
  int untraced_instruments = 0;

  void fail(std::string what) {
    correct = false;
    ++failed;
    problems.push_back(std::move(what));
  }
};

/// The end-to-end metrics (untraced runs), in BENCHMARK.json order. Every
/// time is scaled to reference host speed (see reference_kernel_s).
struct EndToEnd {
  double setup_s = 0.0;       ///< median set-up (input generation + construction)
  double wall_s = 0.0;        ///< median host seconds of the timed call
  double tick_ms_mean = 0.0;  ///< host ms per simulated tick
  double run_ms_p50 = 0.0;    ///< host ms per run: median ...
  double run_ms_p90 = 0.0;    ///< ... and 90th percentile
  double peak_rss_mb = 0.0;
};

/// The per-layer metrics (traced runs), in BENCHMARK.json order. Every
/// workload prints every name; a layer the workload never enters reads 0
/// (1 for the imbalance ratio), as documented in perfbench/README.md.
struct LayerValues {
  double dataset_ms = 0.0;
  double baselines_plan_us = 0.0;
  double core_plan_us = 0.0;
  double core_controller_calls = 0.0;
  double core_controller_us = 0.0;
  double proto_session_ms = 0.0;
  double proto_tick_us = 0.0;
  double sim_events_fired = 0.0;
  double sim_events_cancelled = 0.0;
  double sim_ticks = 0.0;
  double sim_peak_queue = 0.0;
  double sweep_busy_frac = 0.0;
  double sweep_task_ms_max = 0.0;
  double exp_ticks = 0.0;
  double phase_p50[4] = {};  ///< prepare, arbiter, apply, commit
  double phase_p99[4] = {};
  double phase_share[4] = {};
  double other_share = 0.0;
  double tickpool_roundtrip_us = 0.0;
  double tickpool_ops_imbalance = 1.0;
  double tickpool_tick_ms_mean = 0.0;
  double tickpool_speedup = 0.0;
  double attempts = 0.0;
  double preemptions = 0.0;
  double resumes = 0.0;
  double shed = 0.0;
  double deferrals = 0.0;
  double traced_overhead_frac = 0.0;
};

[[nodiscard]] std::vector<Metric> end_to_end_metrics(const EndToEnd& e);
[[nodiscard]] std::vector<Metric> layer_metrics(const LayerValues& l);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// min(nproc, 4): the worker count of every parallel pass.
[[nodiscard]] int bench_workers();

/// splitmix64 over (seed, stream, index): the benchmark's only source of
/// generated seeds. Never returns 0.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                        std::uint64_t index);

/// FNV-1a 64 of `text`, as 16 hex digits.
[[nodiscard]] std::string hash_hex(const std::string& text);

/// Median and linear-interpolated quantile (q in [0, 1]) of a sample set;
/// 0 for an empty set.
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// Hand freed heap memory back to the system between repetitions (outside
/// every timed region), so the resident high-water mark tracks what one call
/// needs rather than how fragmentation grew over earlier calls.
void release_free_memory();

/// Reset the resident high-water mark (Linux /proc/self/clear_refs), so
/// that peak_rss_mb() reads the peak since this call. Where the reset is not
/// available the mark is left alone and peak_rss_mb() reads the process peak.
void reset_peak_rss();

/// Resident high-water mark of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Host-speed calibration of the end-to-end timings. On a shared host the
/// other tenants slow a core by up to 2x for tens of seconds at a time, and
/// a program's wall time follows. So each untraced repetition runs this
/// fixed kernel right after its timed call, and the repetition's times are
/// multiplied by kReferenceKernelS / (the kernel's time): the metrics read
/// as seconds at the speed of the host the baseline was measured on.
///
/// The kernel: `threads` threads at once, each sorting its own copy of one
/// fixed array of 2^19 doubles; returns the wall seconds of the sorts. It is
/// benchmark code, so no change to the program moves it.
[[nodiscard]] double reference_kernel_s(int threads);

/// About the reference kernel's median time on the baseline host
/// (perfbench/README.md, "Host-speed scaling").
inline constexpr double kReferenceKernelS = 0.060;

/// Median microseconds of one empty-phase TickPool::run over `workers`
/// workers (one index per worker), timed from outside the pool.
[[nodiscard]] double tickpool_roundtrip_us(int workers);

// --- workloads -------------------------------------------------------------

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Fingerprint of the inputs generated for (workload, seed): equal seeds give
/// equal fingerprints, and the program is handed exactly these inputs.
[[nodiscard]] std::string paper_sweep_fingerprint(std::uint64_t seed, bool tiny);
[[nodiscard]] std::string schedule_fingerprint(const std::string& workload,
                                               std::uint64_t seed, bool tiny);

[[nodiscard]] Outcome run_paper_sweep(const Options& opt);
[[nodiscard]] Outcome run_schedule_workload(const Options& opt);

}  // namespace perfbench
