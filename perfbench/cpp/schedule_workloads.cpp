// The two exp::Scheduler workloads:
//
//   fleet_steady       ~1,000 same-shape tenants on one path, no faults;
//   multitenant_churn  the overload_ramp, power_capped and tariff_deferral
//                      cells, one after another.
//
// Each cell is one closed batch call: the benchmark generates the schedule
// from the workload seed, constructs the Scheduler, and times run() to
// completion. Timed calls run the master tick serially (policy.jobs = 1).
// The parallel tick pipeline (min(nproc, 4) TickPool workers) runs the same
// schedule in the gate, which requires its report to be byte-identical, and
// in the traced run, which times it per layer. It is not an end-to-end
// workload: its condvar fork/join is bound by vCPU wake-up latency, and its
// wall time swung 2-5x between repetitions on a shared 4-vCPU host.
//
// Traced calls attach an obs::TickProfiler on a registry the benchmark owns
// (no collector); untraced timed calls attach nothing. Scheduler has no
// getter for its attachments, so that holds by construction of run_cells()
// and is not checked at run time.
#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "exp/scheduler.hpp"
#include "exp/service.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "power/tariff.hpp"
#include "testbeds/testbeds.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace eadt;

constexpr int kMinReps = 3;
constexpr int kFleetTenants = 1000;
constexpr unsigned kFleetScale = 4;  ///< divides per-tenant file sizes (4 MB floor)
constexpr unsigned kChurnScale = 16;  ///< divides the multitenant byte totals

struct Cell {
  std::string name;
  testbeds::Testbed base;
  BitsPerSecond reference_rate = 0.0;
  exp::SchedulerPolicy policy;
  proto::SessionConfig config;
  proto::FaultPlan faults;
  bool tariffed = false;
  Seconds tariff_start = 0.0;
  std::vector<exp::SchedulerJob> jobs;
};

/// service_fleet's schedule with generated per-tenant seeds: 2-4 files of
/// 8-40 MB (divided by the scale, 4 MB floor), a balanced/green/deadline
/// policy mix, arrivals 5 ms apart, every tenant admitted at once.
std::vector<Cell> fleet_cells(std::uint64_t seed, bool tiny, int jobs, double& dataset_ms) {
  const int n = tiny ? 48 : kFleetTenants;
  const unsigned scale = tiny ? 16 : kFleetScale;
  Cell c;
  c.name = "fleet";
  c.base = testbeds::xsede();
  c.reference_rate = gbps(7.0);
  c.policy.max_concurrent = n;
  c.policy.max_queue_depth = n;
  c.policy.horizon = 24.0 * 3600;
  c.policy.jobs = jobs;
  c.config.sample_interval = 1.0;
  const auto t0 = Clock::now();
  const Bytes floor_bytes = 4 * kMB;
  for (int i = 0; i < n; ++i) {
    Rng rng(derive_seed(seed, 1, static_cast<std::uint64_t>(i)));
    exp::TransferJob job;
    job.name = "t" + std::to_string(i);
    const int files = static_cast<int>(rng.uniform_int(2, 4));
    for (int f = 0; f < files; ++f) {
      const Bytes raw = static_cast<Bytes>(rng.uniform_int(8, 40)) * kMB;
      job.dataset.files.push_back({std::max(raw / scale, floor_bytes)});
    }
    switch (i % 3) {
      case 0: job.policy = exp::JobPolicy::kBalanced; break;
      case 1: job.policy = exp::JobPolicy::kGreen; break;
      default: job.policy = exp::JobPolicy::kDeadline; break;
    }
    job.max_channels = 2;
    c.jobs.push_back({std::move(job), 0.005 * i});
  }
  dataset_ms = seconds_since(t0) * 1e3;
  std::vector<Cell> cells;
  cells.push_back(std::move(c));
  return cells;
}

/// service_multitenant's three cells with generated tenant dataset seeds and
/// fault seed, after the same clean calibration probe (T = one uncontended
/// tenant job, and the reference rate every cell shares).
std::vector<Cell> churn_cells(std::uint64_t seed, bool tiny, int jobs, double& dataset_ms) {
  const unsigned scale = tiny ? 4 * kChurnScale : kChurnScale;
  auto base = testbeds::xsede();
  base.recipe.total_bytes /= scale * 4;
  for (auto& band : base.recipe.bands) {
    band.max_size = std::max(band.max_size / (scale * 4), band.min_size * 2);
  }
  auto tenant_tb = testbeds::xsede();
  tenant_tb.recipe.total_bytes /= scale;
  dataset_ms = 0.0;
  const auto tenant_dataset = [&](std::uint64_t i) {
    const auto t0 = Clock::now();
    auto tb = tenant_tb;
    tb.dataset_seed = derive_seed(seed, 2, i);
    auto ds = tb.make_dataset();
    dataset_ms += seconds_since(t0) * 1e3;
    return ds;
  };

  exp::TransferService probe(base, 0.0, {});
  const BitsPerSecond reference_rate = probe.reference_rate();
  Seconds T = 0.0;
  {
    std::vector<exp::TransferJob> probe_jobs;
    probe_jobs.push_back({"probe", tenant_dataset(0), exp::JobPolicy::kBalanced, 0, 0, 4});
    T = probe.run_queue(probe_jobs).jobs[0].result.duration;
  }
  const Watts session_peak = exp::session_peak_power_bound(base.env);

  std::vector<Cell> cells;
  const auto cell = [&](const char* name) -> Cell& {
    Cell& c = cells.emplace_back();
    c.name = name;
    c.base = base;
    c.reference_rate = reference_rate;
    c.policy.jobs = jobs;
    return c;
  };
  {  // 48 tenants at ~2x the drain rate under a brownout storm
    Cell& c = cell("overload_ramp");
    c.policy.max_concurrent = 32;
    c.policy.max_queue_depth = 8;
    c.policy.supervision.attempt_deadline = 120.0 * T;
    c.policy.supervision.max_attempts = 6;
    c.policy.supervision.degrade_after = 1;
    c.policy.horizon = 400.0 * T;
    c.policy.link_brownouts.push_back({3.0 * T, 2.0 * T, 0.35});
    c.policy.link_brownouts.push_back({6.0 * T, 1.5 * T, 0.5});
    c.faults.stochastic.channel_drop_rate = 0.002;
    c.faults.seed = derive_seed(seed, 3, 0);
    for (int i = 0; i < 32; ++i) {
      const auto policy = i % 4 == 3 ? exp::JobPolicy::kBalanced : exp::JobPolicy::kGreen;
      c.jobs.push_back({{"bg" + std::to_string(i), tenant_dataset(i), policy, 0, 0, 4},
                        0.02 * T * i});
    }
    for (int i = 0; i < 16; ++i) {
      const auto policy = i % 4 == 0 ? exp::JobPolicy::kSla : exp::JobPolicy::kDeadline;
      c.jobs.push_back({{"fg" + std::to_string(i), tenant_dataset(32 + i), policy,
                         /*sla_percent=*/2.0, 0, 6},
                        2.0 * T + 0.125 * T * i});
    }
  }
  {  // a site power cap with room for 5 of 8 slots
    Cell& c = cell("power_capped");
    c.policy.max_concurrent = 8;
    c.policy.max_queue_depth = 16;
    c.policy.power_cap = session_peak * 5.0;
    c.policy.horizon = 400.0 * T;
    for (int i = 0; i < 12; ++i) {
      c.jobs.push_back({{"cap" + std::to_string(i), tenant_dataset(60 + i),
                         exp::JobPolicy::kBalanced, 0, 0, 4},
                        0.1 * T * i});
    }
  }
  {  // scavengers submitted in the expensive band, deferred to the cheap one
    Cell& c = cell("tariff_deferral");
    c.policy.max_concurrent = 4;
    c.policy.max_queue_depth = 16;
    c.policy.max_defer = 24.0 * 3600;
    c.policy.horizon = 48.0 * 3600 + 400.0 * T;
    c.tariffed = true;
    c.tariff_start = 10.0 * 3600;
    for (int i = 0; i < 6; ++i) {
      c.jobs.push_back({{"night" + std::to_string(i), tenant_dataset(80 + i),
                         exp::JobPolicy::kGreen, 0, 0, 4},
                        60.0 * i});
    }
  }
  return cells;
}

std::vector<Cell> make_cells(const std::string& workload, std::uint64_t seed, bool tiny,
                             int jobs, double& dataset_ms) {
  return workload == "multitenant_churn" ? churn_cells(seed, tiny, jobs, dataset_ms)
                                         : fleet_cells(seed, tiny, jobs, dataset_ms);
}

/// Generated cells plus their constructed, not yet run, Schedulers.
struct Prepared {
  std::vector<Cell> cells;
  std::vector<std::unique_ptr<exp::Scheduler>> schedulers;
  double dataset_ms = 0.0;
};

Prepared prepare(const std::string& workload, std::uint64_t seed, bool tiny, int jobs) {
  static const power::Tariff tariff = power::Tariff::time_of_use(0.05, {{8.0, 20.0, 0.30}});
  Prepared p;
  p.cells = make_cells(workload, seed, tiny, jobs, p.dataset_ms);
  for (const Cell& c : p.cells) {
    auto& s = p.schedulers.emplace_back(
        std::make_unique<exp::Scheduler>(c.base, c.reference_rate, c.policy, c.config));
    s->set_fault_plan(c.faults);
    if (c.tariffed) s->set_tariff(tariff, c.tariff_start);
  }
  return p;
}

struct Call {
  std::vector<exp::SchedulerReport> reports;
  double wall_s = 0.0;  ///< host seconds in Scheduler::run, summed over cells
  std::vector<double> cell_wall_s;  ///< the same, per cell
  std::vector<obs::MetricSnapshot> profile;  ///< profiled calls only
};

/// Run every cell once. `profiled` attaches a TickProfiler (on a registry
/// this function owns) to each Scheduler; nothing else is ever attached.
Call run_cells(Prepared& p, bool profiled) {
  Call call;
  for (std::size_t i = 0; i < p.cells.size(); ++i) {
    std::vector<exp::SchedulerJob> jobs = std::move(p.cells[i].jobs);
    obs::MetricsRegistry registry;
    std::unique_ptr<obs::TickProfiler> profiler;
    if (profiled) {
      profiler = std::make_unique<obs::TickProfiler>(registry);
      p.schedulers[i]->set_tick_profiler(profiler.get());
    }
    const auto t0 = Clock::now();
    call.reports.push_back(p.schedulers[i]->run(std::move(jobs)));
    call.cell_wall_s.push_back(seconds_since(t0));
    call.wall_s += call.cell_wall_s.back();
    if (profiled) {
      p.schedulers[i]->set_tick_profiler(nullptr);
      auto snap = registry.snapshot();
      call.profile.insert(call.profile.end(), snap.begin(), snap.end());
    }
  }
  return call;
}

/// Hash of the cells' scheduler_report_payload texts: the deterministic
/// digest two calls of one schedule must agree on.
std::string digest_of(const Prepared& p, const std::vector<exp::SchedulerReport>& reports) {
  std::string text;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    text += "cell " + p.cells[i].name + "\n";
    text += exp::scheduler_report_payload(reports[i]);
  }
  return hash_hex(text);
}

/// The invariants every cell must hold; one failure per broken check or
/// failed tenant. Every tenant job is one attempted operation.
void check_reports(const Prepared& p, const std::vector<exp::SchedulerReport>& reports,
                   Outcome& out) {
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    const std::string& cell = p.cells[i].name;
    out.attempted += static_cast<std::uint64_t>(r.submitted);
    if (!r.accounting_consistent()) out.fail(cell + ": accounting is not conservative");
    if (r.power_cap_violations != 0) out.fail(cell + ": site power cap was exceeded");
    for (const auto& job : r.jobs) {
      if (!job.rejected && (job.failed || job.finished_at <= 0.0)) {
        out.fail(cell + ": accepted tenant " + job.name + " did not complete");
      }
    }
  }
}

std::string summarize(const Prepared& p, const std::vector<exp::SchedulerReport>& reports) {
  std::string out;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s%s: submitted=%d completed=%d shed=%d energy_j=%.6f bytes=%llu "
                  "makespan_s=%.6f",
                  i ? "; " : "", p.cells[i].name.c_str(), r.submitted, r.completed,
                  r.rejected, r.total_energy, static_cast<unsigned long long>(r.total_bytes),
                  r.makespan);
    out += buf;
  }
  return out;
}

/// Sum profiles of several cells/calls: histogram buckets, counts and sums,
/// and gauge values (the per-worker ops) add up.
void merge(std::map<std::string, obs::MetricSnapshot>& acc,
           const std::vector<obs::MetricSnapshot>& snaps) {
  for (const auto& s : snaps) {
    auto [it, fresh] = acc.try_emplace(s.name, s);
    if (fresh) continue;
    obs::MetricSnapshot& m = it->second;
    m.count += s.count;
    m.value += s.value;
    for (std::size_t b = 0; b < m.buckets.size() && b < s.buckets.size(); ++b) {
      m.buckets[b] += s.buckets[b];
    }
  }
}

std::uint64_t active_ticks(const std::vector<obs::MetricSnapshot>& profile) {
  std::uint64_t n = 0;
  for (const auto& s : profile) {
    if (s.name == "tickpipe.prepare_us") n += s.count;
  }
  return n;
}

}  // namespace

std::string schedule_fingerprint(const std::string& workload, std::uint64_t seed,
                                 bool tiny) {
  double dataset_ms = 0.0;
  const auto cells = make_cells(workload, seed, tiny, 1, dataset_ms);
  std::ostringstream os;
  for (const Cell& c : cells) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " ref=%a seed=%llu", c.reference_rate,
                  static_cast<unsigned long long>(c.faults.seed));
    os << c.name << buf << '\n';
    for (const auto& j : c.jobs) {
      std::snprintf(buf, sizeof buf, " at=%a", j.submit_at);
      os << j.job.name << buf << " policy=" << static_cast<int>(j.job.policy);
      for (const auto& f : j.job.dataset.files) os << ' ' << f.size;
      os << '\n';
    }
  }
  return hash_hex(os.str());
}

/// The deterministic counts the per-layer metrics read from a report.
void count_layers(const std::vector<exp::SchedulerReport>& reports, LayerValues& l) {
  for (const auto& r : reports) {
    // A tenant's RunResult carries the shared simulation's counters as of its
    // close-out; the last tenant to finish saw the whole schedule.
    sim::SimCounters last;
    for (const auto& job : r.jobs) {
      const auto& c = job.result.sim_counters;
      if (c.fired > last.fired) last = c;
    }
    l.sim_events_fired += static_cast<double>(last.fired);
    l.sim_events_cancelled += static_cast<double>(last.cancelled);
    l.sim_ticks += static_cast<double>(last.ticks);
    l.sim_peak_queue = std::max(l.sim_peak_queue, static_cast<double>(last.peak_queue));
    l.preemptions += r.preemptions;
    l.shed += r.rejected;
    l.deferrals += r.deferrals;
    for (const auto& job : r.jobs) {
      l.attempts += job.attempts;
      l.resumes += job.recovery.count(exp::RecoveryAction::kResume);
    }
  }
}

Outcome run_schedule_workload(const Options& opt) {
  Outcome out;
  const int pool_workers = bench_workers();
  out.workers = 1;
  out.pool_workers = pool_workers;

  std::vector<double> setup_s;
  std::vector<double> dataset_ms;
  const auto setup = [&](int jobs) {
    const auto t0 = Clock::now();
    Prepared p = prepare(opt.workload, opt.seed, opt.tiny, jobs);
    setup_s.push_back(seconds_since(t0));
    dataset_ms.push_back(p.dataset_ms);
    return p;
  };

  // Correctness gate, untimed. Its profiler only counts the active master
  // ticks (a deterministic number) that tick_ms_mean divides by.
  LayerValues l;
  std::string digest;
  std::uint64_t ticks = 0;
  {
    Prepared p = setup(1);
    Call gate = run_cells(p, /*profiled=*/true);
    if (opt.break_check == "invariant") --gate.reports.front().completed;
    check_reports(p, gate.reports, out);
    digest = digest_of(p, gate.reports);
    out.digest_summary = summarize(p, gate.reports);
    count_layers(gate.reports, l);
    ticks = active_ticks(gate.profile);
  }
  out.digest = digest;
  if (pool_workers > 1) {
    // The --jobs N contract: the parallel pipeline's report is byte-identical
    // to the serial tick's on the same schedule.
    Prepared pooled = prepare(opt.workload, opt.seed, opt.tiny, pool_workers);
    const Call ref = run_cells(pooled, false);
    check_reports(pooled, ref.reports, out);
    if (digest_of(pooled, ref.reports) != digest) {
      out.fail("report at " + std::to_string(pool_workers) +
               " tick workers differs from the serial tick's");
    }
  }
  if (ticks == 0) out.fail("the schedule ran no active master tick");
  if (!out.correct) return out;

  // Untraced repetitions, each scaled to reference host speed by the
  // kernel run right after its call (reference_kernel_s).
  std::vector<double> wall;     // per timed batch call (every cell, in order)
  std::vector<double> cell_ms;  // per cell's Scheduler::run in a timed call
  std::vector<double> rep_setup_s;
  std::vector<double> raw_wall;
  std::vector<double> kernel_s;
  std::vector<double> rss_mb;  // resident peak from set-up to the call's end
  std::vector<double> traced_wall;
  std::vector<double> pooled_wall;
  std::map<std::string, obs::MetricSnapshot> profile;
  std::map<std::string, obs::MetricSnapshot> pooled_profile;
  // One traced call: a fresh set-up, a profiled run, the digest check.
  const auto traced_call = [&](int jobs, std::vector<double>& walls,
                               std::map<std::string, obs::MetricSnapshot>& into) {
    release_free_memory();
    Prepared p = setup(jobs);
    const Call traced = run_cells(p, true);
    walls.push_back(traced.wall_s);
    check_reports(p, traced.reports, out);
    if (digest_of(p, traced.reports) != digest) {
      out.fail("traced call at " + std::to_string(jobs) +
               " tick workers: report differs from the untraced digest");
    }
    merge(into, traced.profile);
  };
  int reps = 0;
  const auto loop0 = Clock::now();
  while (reps < kMinReps || seconds_since(loop0) < opt.seconds) {
    release_free_memory();
    {
      reset_peak_rss();
      Prepared p = setup(1);
      const Call call = run_cells(p, false);
      rss_mb.push_back(peak_rss_mb());
      const double k = reference_kernel_s(1);
      const double scale = kReferenceKernelS / k;
      kernel_s.push_back(k);
      raw_wall.push_back(call.wall_s);
      rep_setup_s.push_back(setup_s.back() * scale);
      wall.push_back(call.wall_s * scale);
      for (const double s : call.cell_wall_s) cell_ms.push_back(s * 1e3 * scale);
      check_reports(p, call.reports, out);
      std::string got = digest_of(p, call.reports);
      if (opt.break_check == "digest" && reps == 0) got = "broken";
      if (got != digest) out.fail("untraced call: report differs from the gate's");
    }
    if (opt.trace) {
      traced_call(1, traced_wall, profile);
      if (pool_workers > 1) traced_call(pool_workers, pooled_wall, pooled_profile);
    }
    ++reps;
  }
  if (!out.correct) return out;

  if (!opt.trace) {
    // A run here is one cell's Scheduler::run. The fleet has one cell, so
    // its run_ms_p50 is wall_s in ms; tick_ms_mean is wall_s over a
    // deterministic tick count. Neither is separate evidence from wall_s.
    EndToEnd e;
    e.setup_s = median(rep_setup_s);
    e.wall_s = median(wall);
    e.tick_ms_mean = e.wall_s * 1e3 / static_cast<double>(ticks);
    e.run_ms_p50 = quantile(cell_ms, 0.5);
    e.run_ms_p90 = quantile(cell_ms, 0.9);
    e.peak_rss_mb = median(rss_mb);
    out.metrics = end_to_end_metrics(e);
    out.raw = {{"wall_s", median(raw_wall), "s"}, {"kernel_s", median(kernel_s), "s"}};
    return out;
  }

  l.dataset_ms = median(dataset_ms);
  l.exp_ticks = static_cast<double>(ticks);
  static const char* const kPhases[4] = {"prepare", "arbiter", "apply", "commit"};
  double traced_us = 0.0;
  for (const double s : traced_wall) traced_us += s * 1e6;
  double phase_share_sum = 0.0;
  for (int ph = 0; ph < 4; ++ph) {
    const auto& h = profile[std::string("tickpipe.") + kPhases[ph] + "_us"];
    l.phase_p50[ph] = obs::histogram_quantile(h, 0.50);
    l.phase_p99[ph] = obs::histogram_quantile(h, 0.99);
    l.phase_share[ph] = traced_us > 0.0 ? h.value / traced_us : 0.0;
    phase_share_sum += l.phase_share[ph];
  }
  l.other_share = 1.0 - phase_share_sum;
  double most = 0.0;
  double total = 0.0;
  for (int w = 0; w < pool_workers; ++w) {
    const auto it = pooled_profile.find("tickpipe.worker" + std::to_string(w) + ".ops");
    const double ops = it != pooled_profile.end() ? it->second.value : 0.0;
    most = std::max(most, ops);
    total += ops;
  }
  l.tickpool_ops_imbalance = total > 0.0 ? most / (total / pool_workers) : 1.0;
  l.tickpool_roundtrip_us = tickpool_roundtrip_us(pool_workers);
  if (!pooled_wall.empty()) {
    l.tickpool_tick_ms_mean = median(pooled_wall) * 1e3 / static_cast<double>(ticks);
    l.tickpool_speedup = median(traced_wall) / median(pooled_wall);
  }
  l.traced_overhead_frac = median(traced_wall) / median(raw_wall) - 1.0;
  out.metrics = layer_metrics(l);
  return out;
}

}  // namespace perfbench
