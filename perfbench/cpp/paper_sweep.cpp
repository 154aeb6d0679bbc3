// Workload `paper_sweep`: the paper's Figure 2-4 concurrency grids (six
// algorithms x levels, plus brute force 1-20) and Figure 5-7 SLAEE grids on
// XSEDE, FutureGrid and DIDCLAB, over several generated dataset seeds, fanned
// out through exp::SweepRunner.
//
// Untraced, one timed call is the whole grid through SweepRunner::run. The
// traced call replays the same tasks itself — plan_* functions, a timing
// decorator around the runtime controller, TransferSession::run — so each
// layer is timed from outside the engine, and its results must match the
// SweepRunner's bit for bit.
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "baselines/baselines.hpp"
#include "common.hpp"
#include "core/algorithms.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "testbeds/testbeds.hpp"

namespace perfbench {
namespace {

using namespace eadt;

constexpr int kDatasetSeeds = 3;
constexpr int kMinReps = 3;

struct Instance {
  testbeds::Testbed testbed;
  proto::Dataset dataset;
  int promc_level = 12;  ///< ProMC run whose throughput calibrates the SLA targets
};

struct SweepInputs {
  std::vector<Instance> instances;  ///< one per (dataset seed, testbed)
  std::vector<exp::SweepTask> grid;
  std::vector<std::size_t> promc_task;  ///< per instance: its ProMC grid index
  double dataset_ms = 0.0;
};

SweepInputs make_inputs(std::uint64_t seed, bool tiny) {
  SweepInputs in;
  const auto t0 = Clock::now();
  const int seeds = tiny ? 1 : kDatasetSeeds;
  for (int k = 0; k < seeds; ++k) {
    int b = 0;
    for (const auto make : {&testbeds::xsede, &testbeds::futuregrid, &testbeds::didclab}) {
      Instance inst;
      inst.testbed = make();
      // The figure benches fix dataset_seed = 42; here it is generated.
      inst.testbed.dataset_seed = derive_seed(seed, 0, static_cast<std::uint64_t>(3 * k + b));
      if (tiny) inst.testbed.recipe.total_bytes /= 64;
      inst.promc_level = b == 2 ? 1 : 12;  // as Figures 5-7
      inst.dataset = inst.testbed.make_dataset();
      in.instances.push_back(std::move(inst));
      ++b;
    }
  }
  in.dataset_ms = seconds_since(t0) * 1e3;

  const auto levels = exp::figure_concurrency_levels();
  for (std::size_t j = 0; j < in.instances.size(); ++j) {
    const Instance& inst = in.instances[j];
    in.promc_task.push_back(0);
    const auto add = [&](exp::Algorithm a, int level) {
      if (a == exp::Algorithm::kProMc && level == inst.promc_level) {
        in.promc_task[j] = in.grid.size();
      }
      exp::SweepTask task;
      task.testbed = inst.testbed;
      task.dataset = inst.dataset;
      task.algorithm = a;
      task.concurrency = level;
      in.grid.push_back(std::move(task));
    };
    for (const auto a : exp::figure_algorithms()) {
      for (const int level : levels) {
        // GUC and GO take no concurrency: one run each, as in the figures.
        if ((a == exp::Algorithm::kGuc || a == exp::Algorithm::kGo) &&
            level != levels.front()) {
          continue;
        }
        add(a, level);
      }
    }
    for (const int level : exp::bf_concurrency_levels()) add(exp::Algorithm::kBf, level);
  }
  return in;
}

/// The SLA grid: every target of Figures 5-7 against the instance's ProMC
/// maximum, which the concurrency grid has already measured.
std::vector<exp::SweepTask> sla_tasks(const SweepInputs& in,
                                      const std::vector<exp::SweepTaskResult>& grid) {
  std::vector<exp::SweepTask> tasks;
  for (std::size_t j = 0; j < in.instances.size(); ++j) {
    const BitsPerSecond max_thr = grid[in.promc_task[j]].run.result.avg_throughput();
    for (const double target : exp::sla_target_percents()) {
      exp::SweepTask task;
      task.kind = exp::SweepTask::Kind::kSla;
      task.testbed = in.instances[j].testbed;
      task.dataset = in.instances[j].dataset;
      task.concurrency = 12;
      task.target_percent = target;
      task.max_throughput = max_thr;
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

/// The untraced timed call: both grids through the program's SweepRunner.
std::vector<exp::SweepTaskResult> run_sweep(const SweepInputs& in, int workers) {
  const exp::SweepRunner runner(workers);
  auto results = runner.run(in.grid);
  auto sla = runner.run(sla_tasks(in, results));
  for (auto& r : sla) {
    r.index = results.size();
    results.push_back(std::move(r));
  }
  return results;
}

// --- traced replay -----------------------------------------------------------

struct TaskLayers {
  double plan_us = 0.0;
  bool core_plan = false;  ///< plan came from core::, not baselines::
  std::uint64_t controller_calls = 0;
  double controller_us = 0.0;
  double session_us = 0.0;  ///< construction + run(), controller time excluded
  double wall_ms = 0.0;
  std::thread::id worker;
};

/// Forwards every callback to the real controller and times it.
class TimedController final : public proto::Controller {
 public:
  TimedController(proto::Controller& inner, TaskLayers& layers)
      : inner_(inner), layers_(layers) {}

  std::optional<int> initial_concurrency() override {
    return inner_.initial_concurrency();
  }
  void on_start(proto::TransferSession& session) override {
    const auto t0 = Clock::now();
    inner_.on_start(session);
    layers_.controller_us += seconds_since(t0) * 1e6;
  }
  void on_sample(proto::TransferSession& session, const proto::SampleStats& stats) override {
    const auto t0 = Clock::now();
    inner_.on_sample(session, stats);
    layers_.controller_us += seconds_since(t0) * 1e6;
    ++layers_.controller_calls;
  }

 private:
  proto::Controller& inner_;
  TaskLayers& layers_;
};

/// One task, as exp::run_algorithm / exp::run_slaee would run it (the grid's
/// tasks use seed 0, so the testbed and fault plan are taken as given).
exp::SweepTaskResult replay_task(const exp::SweepTask& task, std::size_t index,
                                 TaskLayers& lt) {
  const auto start = Clock::now();
  exp::SweepTaskResult out;
  out.index = index;
  out.kind = task.kind;
  out.testbed = task.testbed.env.name;
  const bool sla = task.kind == exp::SweepTask::Kind::kSla;
  out.derived_seed = exp::derive_task_seed(sla ? "SLAEE" : exp::to_string(task.algorithm),
                                           task.testbed.env.name, task.concurrency,
                                           task.seed);
  const auto& env = task.testbed.env;
  const auto& ds = task.dataset;
  const int cc = task.concurrency;

  proto::TransferPlan plan;
  const auto p0 = Clock::now();
  if (sla) {
    plan = core::plan_slaee(env, ds, cc);
    lt.core_plan = true;
  } else {
    switch (task.algorithm) {
      case exp::Algorithm::kGuc: plan = baselines::plan_guc(env, ds); break;
      case exp::Algorithm::kGo: plan = baselines::plan_go(env, ds); break;
      case exp::Algorithm::kSc: plan = baselines::plan_single_chunk(env, ds, cc); break;
      case exp::Algorithm::kProMc: plan = baselines::plan_promc(env, ds, cc); break;
      case exp::Algorithm::kBf: plan = baselines::plan_brute_force(env, ds, cc); break;
      case exp::Algorithm::kMinE:
        plan = core::plan_min_energy(env, ds, cc);
        lt.core_plan = true;
        break;
      case exp::Algorithm::kHtee:
        plan = core::plan_htee(env, ds, cc);
        lt.core_plan = true;
        break;
    }
  }
  lt.plan_us = seconds_since(p0) * 1e6;

  std::optional<core::HteeController> htee;
  std::optional<core::SlaeeController> slaee;
  proto::Controller* inner = nullptr;
  if (sla) {
    out.sla.target_percent = task.target_percent;
    out.sla.target_throughput = task.max_throughput * task.target_percent / 100.0;
    inner = &slaee.emplace(out.sla.target_throughput, cc);
  } else if (task.algorithm == exp::Algorithm::kHtee) {
    inner = &htee.emplace(cc);
  }
  std::optional<TimedController> timed;
  if (inner != nullptr) timed.emplace(*inner, lt);

  const auto s0 = Clock::now();
  proto::TransferSession session(env, ds, std::move(plan), task.config);
  session.set_fault_plan(task.faults);
  proto::RunResult result = session.run(timed ? &*timed : nullptr);
  lt.session_us = seconds_since(s0) * 1e6 - lt.controller_us;

  if (sla) {
    out.sla.result = std::move(result);
    out.sla.final_concurrency = slaee->final_level();
    out.sla.rearranged = slaee->rearranged();
  } else {
    out.run.algorithm = task.algorithm;
    out.run.concurrency = cc;
    out.run.result = std::move(result);
    switch (task.algorithm) {
      case exp::Algorithm::kGuc: out.run.chosen_concurrency = 1; break;
      case exp::Algorithm::kGo: out.run.chosen_concurrency = 2; break;
      case exp::Algorithm::kHtee: out.run.chosen_concurrency = htee->chosen_level(); break;
      default: out.run.chosen_concurrency = cc; break;
    }
  }
  lt.wall_ms = seconds_since(start) * 1e3;
  return out;
}

struct ReplayCall {
  std::vector<exp::SweepTaskResult> results;
  std::vector<TaskLayers> layers;
  std::size_t grid_tasks = 0;  ///< layers[0, grid_tasks) ran in the grid phase
  double wall_s = 0.0;
};

/// Max / mean of the tasks each worker ran in layers[begin, end): one
/// parallel_indexed phase, whose pool's thread ids are its workers.
double phase_imbalance(const std::vector<TaskLayers>& layers, std::size_t begin,
                       std::size_t end, int workers) {
  if (end <= begin) return 1.0;
  std::map<std::thread::id, double> per_worker;
  for (std::size_t i = begin; i < end; ++i) per_worker[layers[i].worker] += 1.0;
  double most = 0.0;
  for (const auto& [id, n] : per_worker) most = std::max(most, n);
  return most / (static_cast<double>(end - begin) / workers);
}

ReplayCall replay_sweep(const SweepInputs& in, int workers) {
  ReplayCall call;
  const auto t0 = Clock::now();
  const auto phase = [&](const std::vector<exp::SweepTask>& tasks) {
    const std::size_t base = call.results.size();
    call.results.resize(base + tasks.size());
    call.layers.resize(base + tasks.size());
    exp::SweepRunner::parallel_indexed(workers, tasks.size(), [&](std::size_t i) {
      TaskLayers& lt = call.layers[base + i];
      lt.worker = std::this_thread::get_id();
      call.results[base + i] = replay_task(tasks[i], base + i, lt);
    });
  };
  phase(in.grid);
  call.grid_tasks = call.results.size();
  phase(sla_tasks(in, call.results));
  call.wall_s = seconds_since(t0);
  return call;
}

// --- checks ------------------------------------------------------------------

std::string task_label(const exp::SweepTaskResult& r) {
  std::ostringstream os;
  os << "task " << r.index << " ("
     << (r.kind == exp::SweepTask::Kind::kSla ? "SLAEE" : exp::to_string(r.run.algorithm))
     << ' ' << r.testbed << ')';
  return os.str();
}

/// Every run completes with finite, positive energy and throughput.
void check_results(const std::vector<exp::SweepTaskResult>& results, Outcome& out) {
  out.attempted += results.size();
  for (const auto& r : results) {
    const auto& res = r.result();
    const double energy = res.end_system_energy;
    const double thr = res.avg_throughput();
    if (!res.completed || !std::isfinite(energy) || energy <= 0.0 ||
        !std::isfinite(thr) || thr <= 0.0) {
      out.fail(task_label(r) + " did not complete with finite positive energy and "
                               "throughput");
    }
  }
}

/// Lines of `got` that differ from `want` (one payload line per task).
std::size_t mismatched_lines(const std::string& want, const std::string& got) {
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  std::size_t bad = 0;
  for (;;) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) return bad;
    if (ha != hb || la != lb) ++bad;
  }
}

void check_payload(const std::string& want, const std::string& got, const char* what,
                   Outcome& out) {
  const std::size_t bad = mismatched_lines(want, got);
  for (std::size_t i = 0; i < bad; ++i) {
    out.fail(std::string(what) + ": a task's result differs from the gate's");
  }
}

std::string summarize(const std::vector<exp::SweepTaskResult>& results) {
  double joules = 0.0;
  double sim_s = 0.0;
  unsigned long long bytes = 0;
  for (const auto& r : results) {
    joules += r.result().end_system_energy;
    sim_s += r.result().duration;
    bytes += r.result().bytes;
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, "tasks=%zu energy_j=%.6f bytes=%llu sim_s=%.6f",
                results.size(), joules, bytes, sim_s);
  return buf;
}

}  // namespace

std::string paper_sweep_fingerprint(std::uint64_t seed, bool tiny) {
  const SweepInputs in = make_inputs(seed, tiny);
  std::ostringstream os;
  for (const auto& inst : in.instances) {
    os << inst.testbed.env.name << ' ' << inst.testbed.dataset_seed << ':';
    for (const auto& f : inst.dataset.files) os << ' ' << f.size;
    os << '\n';
  }
  os << "tasks " << in.grid.size() << '\n';
  return hash_hex(os.str());
}

Outcome run_paper_sweep(const Options& opt) {
  Outcome out;
  const int workers = bench_workers();
  out.workers = workers;

  std::vector<double> setup_s;
  std::vector<double> dataset_ms;
  const auto setup = [&] {
    const auto t0 = Clock::now();
    SweepInputs in = make_inputs(opt.seed, opt.tiny);
    setup_s.push_back(seconds_since(t0));
    dataset_ms.push_back(in.dataset_ms);
    return in;
  };

  // Correctness gate: one untimed call, checked before anything is timed.
  std::string payload;
  LayerValues layers;
  {
    const SweepInputs in = setup();
    auto gate = run_sweep(in, workers);
    if (opt.break_check == "invariant") gate.front().run.result.end_system_energy = NAN;
    check_results(gate, out);
    payload = exp::sweep_payload(gate);
    out.digest_summary = summarize(gate);
    std::uint64_t peak = 0;
    for (const auto& r : gate) {
      const auto& c = r.result().sim_counters;
      layers.sim_events_fired += static_cast<double>(c.fired);
      layers.sim_events_cancelled += static_cast<double>(c.cancelled);
      layers.sim_ticks += static_cast<double>(c.ticks);
      peak = std::max(peak, c.peak_queue);
    }
    layers.sim_peak_queue = static_cast<double>(peak);
  }
  out.digest = hash_hex(payload);
  if (!out.correct) return out;

  // Untraced repetitions, each scaled to reference host speed by the
  // kernel run right after its call (reference_kernel_s, on as many threads
  // as the sweep's workers).
  std::vector<double> wall;        // per untraced call
  std::vector<double> run_ms;      // per simulated transfer
  std::vector<double> tick_ms;     // per call: task host ms / session ticks
  std::vector<double> rep_setup_s;
  std::vector<double> raw_wall;
  std::vector<double> kernel_s;
  std::vector<double> rss_mb;  // resident peak from set-up to the call's end
  std::vector<double> traced_wall;  // per traced replay
  std::vector<double> plan_b, plan_c, ctrl_us, session_ms, tick_us, busy, task_max, imbalance;
  int reps = 0;
  const auto loop0 = Clock::now();
  while (reps < kMinReps || seconds_since(loop0) < opt.seconds) {
    release_free_memory();
    reset_peak_rss();
    const SweepInputs in = setup();
    for (const auto& task : in.grid) out.untraced_instruments += task.obs != nullptr;
    const auto t0 = Clock::now();
    auto results = run_sweep(in, workers);
    const double call_s = seconds_since(t0);
    rss_mb.push_back(peak_rss_mb());
    const double k = reference_kernel_s(workers);
    const double scale = kReferenceKernelS / k;
    kernel_s.push_back(k);
    raw_wall.push_back(call_s);
    rep_setup_s.push_back(setup_s.back() * scale);
    wall.push_back(call_s * scale);
    check_results(results, out);
    std::string got = exp::sweep_payload(results);
    if (opt.break_check == "digest" && reps == 0) got.front() ^= 1;
    check_payload(payload, got, "untraced call", out);
    double task_ms = 0.0;
    std::uint64_t ticks = 0;
    for (const auto& r : results) {
      run_ms.push_back(r.wall_ms * scale);
      task_ms += r.wall_ms * scale;
      ticks += r.result().sim_counters.ticks;
    }
    tick_ms.push_back(ticks > 0 ? task_ms / static_cast<double>(ticks) : 0.0);

    if (opt.trace) {
      const ReplayCall call = replay_sweep(in, workers);
      traced_wall.push_back(call.wall_s);
      check_results(call.results, out);
      check_payload(payload, exp::sweep_payload(call.results), "traced replay", out);
      double b = 0.0, c = 0.0, cu = 0.0, su = 0.0, busy_ms = 0.0, tmax = 0.0;
      std::uint64_t calls = 0, session_ticks = 0;
      for (std::size_t i = 0; i < call.layers.size(); ++i) {
        const TaskLayers& lt = call.layers[i];
        (lt.core_plan ? c : b) += lt.plan_us;
        cu += lt.controller_us;
        calls += lt.controller_calls;
        su += lt.session_us;
        busy_ms += lt.wall_ms;
        tmax = std::max(tmax, lt.wall_ms);
        session_ticks += call.results[i].result().sim_counters.ticks;
      }
      plan_b.push_back(b);
      plan_c.push_back(c);
      ctrl_us.push_back(cu);
      layers.core_controller_calls = static_cast<double>(calls);
      session_ms.push_back(su / 1e3);
      tick_us.push_back(session_ticks > 0 ? su / static_cast<double>(session_ticks) : 0.0);
      busy.push_back(busy_ms / (workers * call.wall_s * 1e3));
      task_max.push_back(tmax);
      // Each phase builds its own pool, so worker ids are only comparable
      // within a phase; report the worse phase.
      imbalance.push_back(
          std::max(phase_imbalance(call.layers, 0, call.grid_tasks, workers),
                   phase_imbalance(call.layers, call.grid_tasks, call.layers.size(),
                                   workers)));
    }
    ++reps;
  }
  if (!out.correct) return out;

  if (!opt.trace) {
    EndToEnd e;
    e.setup_s = median(rep_setup_s);
    e.wall_s = median(wall);
    e.tick_ms_mean = median(tick_ms);
    e.run_ms_p50 = quantile(run_ms, 0.5);
    e.run_ms_p90 = quantile(run_ms, 0.9);
    e.peak_rss_mb = median(rss_mb);
    out.metrics = end_to_end_metrics(e);
    out.raw = {{"wall_s", median(raw_wall), "s"}, {"kernel_s", median(kernel_s), "s"}};
    return out;
  }

  layers.dataset_ms = median(dataset_ms);
  layers.baselines_plan_us = median(plan_b);
  layers.core_plan_us = median(plan_c);
  layers.core_controller_us = median(ctrl_us);
  layers.proto_session_ms = median(session_ms);
  layers.proto_tick_us = median(tick_us);
  layers.sweep_busy_frac = median(busy);
  layers.sweep_task_ms_max = median(task_max);
  layers.tickpool_roundtrip_us = tickpool_roundtrip_us(workers);
  layers.tickpool_ops_imbalance = median(imbalance);
  layers.traced_overhead_frac = median(traced_wall) / median(raw_wall) - 1.0;
  out.metrics = layer_metrics(layers);
  return out;
}

}  // namespace perfbench
