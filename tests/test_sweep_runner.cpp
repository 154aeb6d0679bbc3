// The parallel sweep executor's contract: output is bit-identical whatever
// the worker count, repeated sweeps in one process agree byte-for-byte (no
// hidden static state), the fan-out primitive visits every index exactly
// once, a big faulted sweep with checkpoint sinks is race-free (the TSan
// CI job runs this file under -fsanitize=thread), and a task whose session
// inputs are bit-identical to an earlier task's copies that session's result
// exactly as if it had run its own.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "exp/sweep.hpp"
#include "obs/obs.hpp"

namespace eadt::exp {
namespace {

testbeds::Testbed tiny(testbeds::Testbed t, unsigned div = 64) {
  t.recipe.total_bytes /= div;
  for (auto& band : t.recipe.bands) {
    band.max_size = std::max(band.max_size / div, band.min_size * 2);
  }
  return t;
}

std::vector<testbeds::Testbed> tiny_testbeds(unsigned div = 64) {
  return {tiny(testbeds::xsede(), div), tiny(testbeds::futuregrid(), div),
          tiny(testbeds::didclab(), div)};
}

/// The golden grid of the issue: 3 testbeds x 6 algorithms x 5 concurrency
/// levels = 90 tasks.
std::vector<SweepTask> golden_grid() {
  std::vector<SweepTask> tasks;
  for (const auto& t : tiny_testbeds()) {
    const auto dataset = t.make_dataset();
    for (const auto a : figure_algorithms()) {
      for (const int cc : {1, 2, 4, 8, 12}) {
        SweepTask task;
        task.testbed = t;
        task.dataset = dataset;
        task.algorithm = a;
        task.concurrency = cc;
        task.config.sample_interval = 1.0;
        tasks.push_back(std::move(task));
      }
    }
  }
  return tasks;
}

TEST(SweepRunner, ParallelOutputIsByteIdenticalToSequential) {
  const auto tasks = golden_grid();
  ASSERT_EQ(tasks.size(), 90u);

  const auto seq = SweepRunner(1).run(tasks);
  const std::string golden = sweep_payload(seq);
  ASSERT_FALSE(golden.empty());

  for (const int jobs : {4, 8}) {
    const auto par = SweepRunner(jobs).run(tasks);
    EXPECT_EQ(sweep_payload(par), golden) << "jobs=" << jobs;
  }

  // Spot-check the payload is substantive: every task completed and moved
  // the whole dataset.
  for (const auto& r : seq) {
    EXPECT_TRUE(r.result().completed);
    EXPECT_GT(r.result().bytes, 0u);
    EXPECT_GT(r.result().sim_counters.fired, 0u);
    EXPECT_GE(r.result().sim_counters.scheduled, r.result().sim_counters.fired);
  }
}

TEST(SweepRunner, RepeatedSweepInOneProcessIsByteIdentical) {
  // No hidden static state: the same runner, run twice back to back in this
  // process, must reproduce the payload byte-for-byte.
  std::vector<SweepTask> tasks;
  const auto t = tiny(testbeds::xsede());
  const auto dataset = t.make_dataset();
  for (const auto a : figure_algorithms()) {
    for (const int cc : {1, 4, 12}) {
      SweepTask task;
      task.testbed = t;
      task.dataset = dataset;
      task.algorithm = a;
      task.concurrency = cc;
      task.config.sample_interval = 1.0;
      tasks.push_back(std::move(task));
    }
  }
  const SweepRunner runner(4);
  const auto first = runner.run(tasks);
  const auto second = runner.run(tasks);
  EXPECT_EQ(sweep_payload(first), sweep_payload(second));
}

TEST(SweepRunner, SlaTasksAreDeterministicToo) {
  const auto t = tiny(testbeds::xsede());
  const auto dataset = t.make_dataset();

  // Calibrate the target off one ProMC run, as the SLA figures do.
  std::vector<SweepTask> promc(1);
  promc[0].testbed = t;
  promc[0].dataset = dataset;
  promc[0].algorithm = Algorithm::kProMc;
  promc[0].concurrency = 12;
  const auto max_thr = SweepRunner(1).run(promc)[0].result().avg_throughput();
  ASSERT_GT(max_thr, 0.0);

  std::vector<SweepTask> tasks;
  for (const double pct : sla_target_percents()) {
    SweepTask task;
    task.kind = SweepTask::Kind::kSla;
    task.testbed = t;
    task.dataset = dataset;
    task.concurrency = 12;
    task.target_percent = pct;
    task.max_throughput = max_thr;
    tasks.push_back(std::move(task));
  }
  const auto seq = SweepRunner(1).run(tasks);
  const auto par = SweepRunner(8).run(tasks);
  EXPECT_EQ(sweep_payload(seq), sweep_payload(par));
  for (const auto& r : seq) {
    EXPECT_EQ(r.kind, SweepTask::Kind::kSla);
    EXPECT_TRUE(r.result().completed);
  }
}

TEST(SweepRunner, StressFaultedSweepWithCheckpointSinksIsRaceFree) {
  // 200 tasks under an active fault plan, each with a checkpoint sink. The
  // shared counter is atomic and the per-task tallies are index-addressed,
  // so TSan passing over this test certifies the executor adds no races.
  constexpr std::size_t kTasks = 200;
  const auto t = tiny(testbeds::xsede(), 256);
  const auto dataset = t.make_dataset();

  proto::FaultPlan faults;
  faults.stochastic.channel_drop_rate = 0.05;
  faults.stochastic.checksum_failure_prob = 0.002;

  std::vector<int> checkpoints_per_task(kTasks, 0);
  std::atomic<int> total_checkpoints{0};

  const Algorithm algorithms[] = {Algorithm::kSc, Algorithm::kMinE,
                                  Algorithm::kProMc, Algorithm::kHtee};
  std::vector<SweepTask> tasks;
  for (std::size_t i = 0; i < kTasks; ++i) {
    SweepTask task;
    task.testbed = t;
    task.dataset = dataset;
    task.algorithm = algorithms[i % std::size(algorithms)];
    task.concurrency = 1 + static_cast<int>(i % 12);
    task.faults = faults;
    task.seed = i + 1;  // decorrelate the fault histories per grid point
    task.config.sample_interval = 1.0;
    task.config.checkpoint_interval = 1.0;
    task.checkpoints = [&checkpoints_per_task, &total_checkpoints,
                        i](const proto::TransferCheckpoint&) {
      ++checkpoints_per_task[i];
      total_checkpoints.fetch_add(1, std::memory_order_relaxed);
    };
    tasks.push_back(std::move(task));
  }

  const auto par = SweepRunner(8).run(tasks);
  ASSERT_EQ(par.size(), kTasks);
  int sum = 0;
  for (const auto& n : checkpoints_per_task) sum += n;
  EXPECT_EQ(sum, total_checkpoints.load());
  for (const auto& r : par) {
    EXPECT_TRUE(r.result().completed) << "task " << r.index;
    EXPECT_EQ(r.result().goodput_bytes(), dataset.total_bytes()) << "task " << r.index;
    EXPECT_NE(r.derived_seed, 0u);
  }

  // And the faulted parallel sweep replays bit-identically in sequence.
  std::vector<SweepTask> no_sink = tasks;
  for (auto& task : no_sink) task.checkpoints = {};
  const auto seq = SweepRunner(1).run(no_sink);
  EXPECT_EQ(sweep_payload(seq), sweep_payload(par));
}

TEST(SweepRunner, ParallelIndexedVisitsEveryIndexOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  SweepRunner::parallel_indexed(8, kCount, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
  // Zero tasks is a no-op, not a hang.
  SweepRunner::parallel_indexed(4, 0, [&](std::size_t) { FAIL(); });
}

TEST(SweepRunner, WorkerExceptionsPropagate) {
  EXPECT_THROW(
      SweepRunner::parallel_indexed(4, 100,
                                    [&](std::size_t i) {
                                      if (i == 57) throw std::runtime_error("boom");
                                    }),
      std::runtime_error);
}

TEST(SweepRunner, ResolveJobsPolicy) {
  EXPECT_EQ(resolve_jobs(3), 3);
  EXPECT_EQ(resolve_jobs(1), 1);

  ::setenv("EADT_JOBS", "5", 1);
  EXPECT_EQ(resolve_jobs(0), 5);
  EXPECT_EQ(resolve_jobs(2), 2);  // explicit wins over the environment
  ::setenv("EADT_JOBS", "junk", 1);
  EXPECT_GE(resolve_jobs(0), 1);  // falls through to hardware_concurrency
  ::unsetenv("EADT_JOBS");
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-4), 1);
}

TEST(SweepRunner, DerivedSeedReKeysStochasticStreams) {
  // With a non-zero base seed, two grid points that differ only in
  // concurrency get different jitter streams — their derived seeds differ —
  // while the same point replays identically.
  auto t = tiny(testbeds::xsede());
  t.env.rate_jitter_sd = 0.10;
  const auto dataset = t.make_dataset();
  auto make = [&](int cc, std::uint64_t seed) {
    SweepTask task;
    task.testbed = t;
    task.dataset = dataset;
    task.algorithm = Algorithm::kProMc;
    task.concurrency = cc;
    task.seed = seed;
    return task;
  };
  const auto r = SweepRunner(1).run({make(4, 7), make(8, 7), make(4, 7), make(4, 9)});
  EXPECT_NE(r[0].derived_seed, r[1].derived_seed);
  EXPECT_EQ(r[0].derived_seed, r[2].derived_seed);
  EXPECT_NE(r[0].derived_seed, r[3].derived_seed);
  EXPECT_DOUBLE_EQ(r[0].result().duration, r[2].result().duration);
  // Different base seed, same point: different jitter history.
  EXPECT_NE(r[0].result().duration, r[3].result().duration);
}

// --- session sharing ---------------------------------------------------------

std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Every field of a RunResult, doubles by bit pattern.
std::string full_dump(const proto::RunResult& r) {
  std::ostringstream os;
  os << r.completed << ' ' << hexf(r.duration) << ' ' << r.bytes << ' '
     << hexf(r.end_system_energy) << ' ' << hexf(r.network_energy) << ' '
     << r.final_concurrency << ' ' << r.error << ' ' << r.checkpoint.has_value() << '\n';
  const auto& f = r.faults;
  os << f.retries << ' ' << f.channel_drops << ' ' << f.checksum_failures << ' '
     << f.server_outages << ' ' << f.quarantined_channels << ' ' << f.wasted_bytes << ' '
     << hexf(f.wasted_joules) << ' ' << hexf(f.channel_downtime) << ' '
     << hexf(f.server_downtime) << '\n';
  const auto& c = r.sim_counters;
  os << c.scheduled << ' ' << c.fired << ' ' << c.cancelled << ' ' << c.ticks << ' '
     << c.peak_queue << '\n';
  for (const auto& w : r.samples) {
    os << hexf(w.window_start) << ' ' << hexf(w.window_end) << ' ' << w.bytes << ' '
       << hexf(w.end_system_energy) << ' ' << w.active_channels << ' ' << w.wasted_bytes
       << ' ' << w.down_channels << '\n';
  }
  for (const auto* side : {&r.source_servers, &r.destination_servers}) {
    for (const auto& e : *side) {
      os << e.name << ' ' << hexf(e.joules) << ' ' << hexf(e.active_time) << '\n';
    }
  }
  return os.str();
}

SweepTask run_task(const testbeds::Testbed& t, const proto::Dataset& dataset, Algorithm a,
                   int cc) {
  SweepTask task;
  task.testbed = t;
  task.dataset = dataset;
  task.algorithm = a;
  task.concurrency = cc;
  task.config.sample_interval = 1.0;
  return task;
}

/// A grid that overlaps with itself: BF repeats ProMC at every level, GUC
/// and GO ignore the level, and MinE's plan saturates on the tiny testbeds.
std::vector<SweepTask> overlapping_grid() {
  std::vector<SweepTask> tasks;
  for (const auto& t : {tiny(testbeds::futuregrid()), tiny(testbeds::didclab())}) {
    const auto dataset = t.make_dataset();
    for (const int cc : {1, 2, 4, 8, 12}) {
      for (const auto a : {Algorithm::kGuc, Algorithm::kGo, Algorithm::kSc,
                           Algorithm::kMinE, Algorithm::kProMc, Algorithm::kBf}) {
        tasks.push_back(run_task(t, dataset, a, cc));
      }
    }
  }
  return tasks;
}

/// What each task yields when run on its own through run_algorithm.
std::vector<SweepTaskResult> direct_results(const std::vector<SweepTask>& tasks) {
  std::vector<SweepTaskResult> out(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const SweepTask& task = tasks[i];
    out[i].index = i;
    out[i].testbed = task.testbed.env.name;
    out[i].derived_seed = derive_task_seed(to_string(task.algorithm), task.testbed.env.name,
                                           task.concurrency, task.seed);
    out[i].run = run_algorithm(task.algorithm, task.testbed, task.dataset,
                               task.concurrency, task.config, task.faults);
  }
  return out;
}

std::vector<std::optional<std::size_t>> shared_from(const std::vector<SweepTaskResult>& r) {
  std::vector<std::optional<std::size_t>> out;
  for (const auto& t : r) out.push_back(t.shared_from);
  return out;
}

TEST(SweepRunner, SharedSessionsMatchRunningEveryTaskDirectly) {
  const auto tasks = overlapping_grid();
  const auto direct = direct_results(tasks);
  const std::string want = sweep_payload(direct);

  const auto seq = SweepRunner(1).run(tasks);
  for (const int jobs : {1, 4}) {
    const auto got = jobs == 1 ? seq : SweepRunner(jobs).run(tasks);
    ASSERT_EQ(got.size(), tasks.size());
    EXPECT_EQ(sweep_payload(got), want) << "jobs=" << jobs;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(full_dump(got[i].result()), full_dump(direct[i].run.result))
          << "jobs=" << jobs << " task " << i;
    }
  }

  std::size_t copies = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const auto& from = seq[i].shared_from;
    if (!from) continue;
    ++copies;
    // A copy names an earlier task that ran its own session, and reports
    // that session's wall time rather than a free 0 ms.
    ASSERT_LT(*from, i);
    EXPECT_FALSE(seq[*from].shared_from.has_value());
    EXPECT_EQ(seq[i].wall_ms, seq[*from].wall_ms);
    EXPECT_GT(seq[i].wall_ms, 0.0);
    EXPECT_EQ(seq[i].run.algorithm, tasks[i].algorithm);
    EXPECT_EQ(seq[i].run.concurrency, tasks[i].concurrency);
  }
  // BF is ProMC's plan, so every BF task copies the ProMC task just before it.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].algorithm == Algorithm::kBf) {
      ASSERT_EQ(tasks[i - 1].algorithm, Algorithm::kProMc);
      EXPECT_EQ(seq[i].shared_from, i - 1) << "task " << i;
    }
  }
  // GUC and GO ignore the level and MinE saturates: far more than BF shares.
  EXPECT_GT(copies, tasks.size() / 3);
}

TEST(SweepRunner, SharingIsTheSameAtAnyJobCount) {
  const auto tasks = overlapping_grid();
  const auto want = shared_from(SweepRunner(1).run(tasks));
  for (const int jobs : {2, 3, 8}) {
    EXPECT_EQ(shared_from(SweepRunner(jobs).run(tasks)), want) << "jobs=" << jobs;
  }
}

TEST(SweepRunner, NeverSharesAcrossASingleInputDifference) {
  const auto t = tiny(testbeds::xsede());
  const auto dataset = t.make_dataset();
  const auto base = run_task(t, dataset, Algorithm::kProMc, 4);
  proto::FaultPlan faults;
  faults.stochastic.checksum_failure_prob = 0.01;

  struct Case {
    const char* name;
    std::function<void(SweepTask&)> both;     ///< applied to every task
    std::function<void(SweepTask&)> variant;  ///< applied to the middle one
  };
  const auto none = [](SweepTask&) {};
  const std::vector<Case> cases = {
      {"file size", none, [](SweepTask& k) { k.dataset.files[0].size += 1; }},
      {"env double by one ulp", none,
       [](SweepTask& k) {
         auto& v = k.testbed.env.per_file_cost;
         v = std::nextafter(v, std::numeric_limits<double>::infinity());
       }},
      {"+0.0 vs -0.0", [](SweepTask& k) { k.testbed.env.path.background_traffic = 0.0; },
       [](SweepTask& k) { k.testbed.env.path.background_traffic = -0.0; }},
      {"jitter seed", [](SweepTask& k) { k.testbed.env.rate_jitter_sd = 0.1; },
       [](SweepTask& k) { k.testbed.env.jitter_seed += 1; }},
      {"fault seed", [&](SweepTask& k) { k.faults = faults; },
       [](SweepTask& k) { k.faults.seed += 1; }},
      {"config tick", none, [](SweepTask& k) { k.config.tick = 0.05; }},
  };
  for (const Case& c : cases) {
    std::vector<SweepTask> tasks(3, base);
    for (auto& task : tasks) c.both(task);
    c.variant(tasks[1]);
    for (const int jobs : {1, 4}) {
      const auto r = SweepRunner(jobs).run(tasks);
      EXPECT_FALSE(r[1].shared_from.has_value()) << c.name << " jobs=" << jobs;
      // The unchanged twin still shares, so the difference is what split them.
      EXPECT_EQ(r[2].shared_from, 0u) << c.name << " jobs=" << jobs;
      EXPECT_EQ(full_dump(r[1].result()), full_dump(direct_results({tasks[1]})[0].run.result))
          << c.name << " jobs=" << jobs;
    }
  }
}

TEST(SweepRunner, NeverSharesTasksWithSinksOrControllers) {
  const auto t = tiny(testbeds::xsede());
  const auto dataset = t.make_dataset();
  obs::ObsCollector collector;
  std::atomic<int> checkpoints{0};

  auto observed = run_task(t, dataset, Algorithm::kProMc, 4);
  observed.obs = &collector;
  auto journaled = run_task(t, dataset, Algorithm::kProMc, 8);
  journaled.config.checkpoint_interval = 1.0;
  journaled.checkpoints = [&](const proto::TransferCheckpoint&) { ++checkpoints; };
  auto htee = run_task(t, dataset, Algorithm::kHtee, 4);
  SweepTask sla = run_task(t, dataset, Algorithm::kSc, 12);
  sla.kind = SweepTask::Kind::kSla;
  sla.target_percent = 80.0;
  sla.max_throughput = 5e9;

  // Each twin pair sits next to each other; the obs twins take their own slots.
  std::vector<SweepTask> tasks;
  for (const SweepTask* task : {&observed, &journaled, &htee, &sla}) {
    tasks.push_back(*task);
    tasks.push_back(*task);
  }
  const auto r = SweepRunner(4).run(tasks);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_FALSE(r[i].shared_from.has_value()) << "task " << i;
    EXPECT_TRUE(r[i].result().completed) << "task " << i;
  }
  // Both journaled twins ran their own session and emitted the same journal.
  EXPECT_EQ(full_dump(r[2].result()), full_dump(r[3].result()));
  EXPECT_GT(checkpoints.load(), 0);
  EXPECT_EQ(checkpoints.load() % 2, 0);
}

TEST(SweepRunner, LeaderExceptionsPropagate) {
  // A shareable session calls nothing outside the engine, so the throw comes
  // from a journal sink on a twin of a ProMC task that BF copies; the sink
  // makes the twin lead its own class, amid a grid that shares.
  auto tasks = overlapping_grid();
  SweepTask boom = tasks[4];
  ASSERT_EQ(boom.algorithm, Algorithm::kProMc);
  boom.config.checkpoint_interval = 1.0;
  boom.checkpoints = [](const proto::TransferCheckpoint&) {
    throw std::runtime_error("journal full");
  };
  tasks.insert(tasks.begin() + 7, boom);
  for (const int jobs : {1, 4}) {
    EXPECT_THROW((void)SweepRunner(jobs).run(tasks), std::runtime_error) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace eadt::exp
