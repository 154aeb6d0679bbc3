// Rate-pipeline regression pins.
//
// The figure goldens cover fault-free runs only, and the fuzz battery's
// same-seed checks compare the engine against itself. Neither would notice a
// rate pipeline that silently kept a channel's stale caps after its layout
// changed. These pins freeze the exact hex-float RunResult payload of
// sessions that walk through every layout mutation the engine has: server
// outages that migrate channels, drops with backoff/revive/quarantine,
// dry-chunk rebalances, SLAEE concurrency steps and its Large-chunk cap,
// checkpoint resume, and Scheduler schedules (preemption; a plain run, two
// sites and a one-option PathSet through the tick pipeline). Further pins
// cover the per-server limits (NIC ceilings, single-disk pools on both sides)
// and the edge ranges of the per-file overhead. A pure performance change to
// the pipeline must leave every pin unchanged.
//
// The pins are exact bits: they assume IEEE doubles without FMA contraction
// (x86-64 defaults), the same assumption as the committed bench golden.
// If the model changes on purpose, print the payloads and update the hashes
// together with CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "exp/runner.hpp"
#include "exp/scheduler.hpp"
#include "host/server.hpp"
#include "net/path_set.hpp"
#include "obs/obs.hpp"
#include "obs/telemetry.hpp"
#include "power/tariff.hpp"
#include "proto/session.hpp"
#include "sim/simulation.hpp"
#include "test_env.hpp"

namespace eadt::proto {
namespace {

using testutil::dataset_of;
using testutil::mixed_dataset;
using testutil::small_env;

std::string hexf(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Everything deterministic in a RunResult, doubles in hex-float.
std::string payload(const RunResult& r) {
  std::ostringstream os;
  os << "completed=" << r.completed << " duration=" << hexf(r.duration)
     << " bytes=" << r.bytes << " end_j=" << hexf(r.end_system_energy)
     << " net_j=" << hexf(r.network_energy) << " final_cc=" << r.final_concurrency
     << " ticks=" << r.sim_counters.ticks << '\n';
  const auto& f = r.faults;
  os << "faults retries=" << f.retries << " drops=" << f.channel_drops
     << " checksum=" << f.checksum_failures << " outages=" << f.server_outages
     << " quarantined=" << f.quarantined_channels << " wasted=" << f.wasted_bytes
     << " wasted_j=" << hexf(f.wasted_joules) << " ch_down=" << hexf(f.channel_downtime)
     << " srv_down=" << hexf(f.server_downtime) << '\n';
  for (const auto& s : r.samples) {
    os << "sample " << hexf(s.window_start) << ' ' << hexf(s.window_end) << ' ' << s.bytes
       << ' ' << hexf(s.end_system_energy) << ' ' << s.active_channels << ' '
       << s.wasted_bytes << ' ' << s.down_channels << '\n';
  }
  for (const auto* side : {&r.source_servers, &r.destination_servers}) {
    for (const auto& s : *side) {
      os << "server " << s.name << ' ' << hexf(s.joules) << ' ' << hexf(s.active_time)
         << '\n';
    }
  }
  return os.str();
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

#define EXPECT_PINNED(text, hash) \
  EXPECT_EQ(fnv1a(text), hash) << "payload now reads:\n" << (text)

TransferPlan one_chunk_plan(const Dataset& ds, int channels, int parallelism) {
  TransferPlan plan;
  Chunk all{SizeClass::kLarge, {}, 0};
  for (std::uint32_t i = 0; i < ds.files.size(); ++i) {
    all.file_ids.push_back(i);
    all.total += ds.files[i].size;
  }
  plan.chunks.push_back(all);
  plan.params.push_back({1, parallelism, channels});
  return plan;
}

/// Small files on two channels next to a bulk chunk on two: the small chunk
/// runs dry first and its channels are rebalanced onto the bulk files.
TransferPlan two_chunk_plan(const Dataset& ds) {
  TransferPlan plan;
  Chunk small{SizeClass::kSmall, {}, 0};
  Chunk large{SizeClass::kLarge, {}, 0};
  for (std::uint32_t i = 0; i < ds.files.size(); ++i) {
    Chunk& c = ds.files[i].size < 10 * kMB ? small : large;
    c.file_ids.push_back(i);
    c.total += ds.files[i].size;
  }
  plan.chunks = {small, large};
  plan.params = {{4, 1, 2}, {1, 2, 2}};
  return plan;
}

testbeds::Testbed tiny_xsede() {
  auto t = testbeds::xsede();
  t.recipe.total_bytes /= 64;
  for (auto& band : t.recipe.bands) {
    band.max_size = std::max(band.max_size / 64, band.min_size * 2);
  }
  return t;
}

SessionConfig fast_cfg() {
  SessionConfig cfg;
  cfg.sample_interval = 1.0;
  return cfg;
}

TEST(RatePipelinePinned, OutagesMigrateChannelsAcrossServers) {
  const auto env = small_env(2);
  const auto ds = mixed_dataset();
  auto plan = one_chunk_plan(ds, 4, 2);
  plan.placement = Placement::kRoundRobin;
  FaultPlan faults;
  faults.outages.push_back({/*source_side=*/true, 0, 0.5, 3.0});
  faults.outages.push_back({/*source_side=*/false, 1, 2.0, 2.0});
  TransferSession session(env, ds, plan, fast_cfg());
  session.set_fault_plan(faults);
  const auto r = session.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.faults.server_outages, 2);
  EXPECT_GT(r.faults.channel_downtime, 0.0);  // displaced channels backed off
  EXPECT_PINNED(payload(r), 0xb886c41c87a4f499ULL);
}

TEST(RatePipelinePinned, DropsBackoffReviveAndQuarantine) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  FaultPlan faults;
  faults.channel_drops.push_back({0.7, 1});
  faults.stochastic.channel_drop_rate = 2.0;
  faults.stochastic.checksum_failure_prob = 0.05;
  faults.retry.channel_retry_budget = 2;
  faults.retry.backoff_initial = 0.3;
  faults.retry.restart_markers = false;
  faults.seed = 11;
  TransferSession session(env, ds, one_chunk_plan(ds, 3, 2), fast_cfg());
  session.set_fault_plan(faults);
  const auto r = session.run();
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.faults.channel_drops, 2);
  EXPECT_GT(r.faults.quarantined_channels, 0);
  EXPECT_PINNED(payload(r), 0xeac210df89c6c1adULL);
}

TEST(RatePipelinePinned, DryChunkRebalance) {
  const auto env = small_env(2);
  const auto ds = mixed_dataset();
  auto plan = two_chunk_plan(ds);
  plan.placement = Placement::kRoundRobin;
  TransferSession session(env, ds, plan, fast_cfg());
  const auto r = session.run();
  ASSERT_TRUE(r.completed);
  EXPECT_PINNED(payload(r), 0x1d1722d7d57bb6b1ULL);
}

TEST(RatePipelinePinned, SlaeeConcurrencyStepsAndLargeChunkCap) {
  const auto tb = tiny_xsede();
  const auto ds = tb.make_dataset();
  const auto promc = exp::run_algorithm(exp::Algorithm::kProMc, tb, ds, 12, fast_cfg());
  ASSERT_TRUE(promc.result.completed);
  EXPECT_PINNED(payload(promc.result), 0x9401884e4eedb5ccULL);
  // A loose target steps the level from the SLAEE start; a tight one with a
  // low channel ceiling climbs to it and then lifts the Large-chunk cap.
  const auto loose = exp::run_slaee(tb, ds, 70.0, promc.result.avg_throughput(), 12,
                                    fast_cfg());
  const auto tight = exp::run_slaee(tb, ds, 95.0, promc.result.avg_throughput(), 4,
                                    fast_cfg());
  ASSERT_TRUE(loose.result.completed);
  ASSERT_TRUE(tight.result.completed);
  EXPECT_TRUE(tight.rearranged);
  EXPECT_PINNED(payload(loose.result) + payload(tight.result) +
                    " final=" + std::to_string(loose.final_concurrency) + "," +
                    std::to_string(tight.final_concurrency),
                0x7a3f0a374e9a523eULL);
}

TEST(RatePipelinePinned, CheckpointResumeUnderFaults) {
  const auto env = small_env(2);
  const auto ds = mixed_dataset();
  auto plan = two_chunk_plan(ds);
  plan.placement = Placement::kRoundRobin;
  FaultPlan faults;
  faults.stochastic.channel_drop_rate = 1.0;
  faults.seed = 5;
  SessionConfig first = fast_cfg();
  first.max_sim_time = 2.5;
  TransferSession leg1(env, ds, plan, first);
  leg1.set_fault_plan(faults);
  const auto r1 = leg1.run();
  ASSERT_FALSE(r1.completed);
  ASSERT_TRUE(r1.checkpoint.has_value());

  // The resumed leg runs a narrower plan, so its channel layout differs from
  // the one the checkpoint was taken under.
  auto narrower = plan;
  narrower.params = {{4, 1, 1}, {1, 2, 1}};
  TransferSession leg2(env, ds, narrower, fast_cfg());
  leg2.set_fault_plan(faults);
  std::string error;
  ASSERT_TRUE(leg2.resume_from(*r1.checkpoint, &error)) << error;
  const auto r2 = leg2.run();
  ASSERT_TRUE(r2.completed);
  EXPECT_EQ(r2.goodput_bytes(), ds.total_bytes());
  EXPECT_PINNED(payload(r1) + payload(r2), 0x41c3c8b2fc4d5f5cULL);
}

TEST(RatePipelinePinned, SchedulerChurnWithPreemption) {
  const auto tb = tiny_xsede();
  Dataset green, urgent, mid;
  for (int i = 0; i < 12; ++i) green.files.push_back({100 * kMB});
  for (int i = 0; i < 4; ++i) urgent.files.push_back({100 * kMB});
  for (int i = 0; i < 6; ++i) mid.files.push_back({30 * kMB + i * kMB});

  exp::SchedulerPolicy policy;
  policy.max_concurrent = 2;
  exp::Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
  FaultPlan faults;
  faults.stochastic.channel_drop_rate = 0.5;
  faults.seed = 17;
  scheduler.set_fault_plan(faults);
  std::vector<exp::SchedulerJob> jobs;
  jobs.push_back({{"bg", green, exp::JobPolicy::kGreen, 0, 0, 4}, 0.0});
  jobs.push_back({{"mid", mid, exp::JobPolicy::kBalanced, 0, 0, 4}, 0.2});
  jobs.push_back({{"urgent", urgent, exp::JobPolicy::kDeadline, 0, 0, 4}, 0.5});
  const auto report = scheduler.run(std::move(jobs));
  EXPECT_GE(report.preemptions, 1);
  EXPECT_TRUE(report.accounting_consistent());
  EXPECT_PINNED(exp::scheduler_report_payload(report), 0x9d0ce99baf73d80bULL);
}

// The Scheduler's tick pipeline in each of its placements: a plain run (one
// site, the testbed's own environment), a PathSet of two sites with a
// partition that forces a migration, and a PathSet of one option. Each pin
// covers the report payload and, where a sampler is attached, its export.

std::vector<exp::SchedulerJob> pin_jobs(const char* prefix, int count, int files,
                                        Bytes file, exp::JobPolicy policy) {
  std::vector<exp::SchedulerJob> jobs;
  for (int i = 0; i < count; ++i) {
    Dataset ds;
    for (int f = 0; f < files; ++f) ds.files.push_back({file + f * kMB + i * 3 * kMB});
    jobs.push_back({{std::string(prefix) + std::to_string(i), ds, policy, 0, 0, 4},
                    0.25 * i});
  }
  return jobs;
}

std::size_t count_action(const exp::SchedulerReport& report, exp::RecoveryAction action) {
  std::size_t n = 0;
  for (const auto& out : report.jobs) n += out.recovery.count(action);
  return n;
}

TEST(RatePipelinePinned, SchedulerPlainRunBrownoutCapWatchdogAndDeferral) {
  const auto tb = tiny_xsede();
  exp::SchedulerPolicy policy;
  policy.max_concurrent = 3;
  // Room for two sessions' provable peaks, not three.
  policy.power_cap = exp::session_peak_power_bound(tb.env) * 2.5;
  policy.supervision.attempt_deadline = 1.5;
  policy.supervision.max_attempts = 12;
  policy.max_defer = 60.0;
  policy.link_brownouts.push_back({0.5, 1.5, 0.3});
  exp::Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
  // Peak price all day but for 00:00-01:00; the schedule starts 20 s before
  // midnight, so a scavenger is deferred into the cheap hour.
  scheduler.set_tariff(power::Tariff::time_of_use(0.30, {{0.0, 1.0, 0.05}}),
                       power::kSecondsPerDay - 20.0);
  obs::TelemetryHub hub(0.5, 512, 1);
  scheduler.set_telemetry(&hub);

  auto jobs = pin_jobs("bulk", 3, 8, 120 * kMB, exp::JobPolicy::kBalanced);
  auto green = pin_jobs("green", 1, 4, 40 * kMB, exp::JobPolicy::kGreen);
  jobs.insert(jobs.end(), green.begin(), green.end());
  const auto report = scheduler.run(std::move(jobs));

  EXPECT_TRUE(report.accounting_consistent());
  EXPECT_EQ(report.completed, 4);
  EXPECT_EQ(report.deferrals, 1);
  EXPECT_EQ(report.max_concurrent_observed, 2);
  EXPECT_EQ(report.power_cap_violations, 0);
  EXPECT_GE(count_action(report, exp::RecoveryAction::kDeadlineAbort), 1u);
  EXPECT_GE(count_action(report, exp::RecoveryAction::kReduceChannels), 1u);
  EXPECT_PINNED(exp::scheduler_report_payload(report) + hub.to_json(), 0xba9b774701efa2c7ULL);
}

exp::SchedulerPolicy two_site_partition_policy(const testbeds::Testbed& tb) {
  exp::SchedulerPolicy policy;
  policy.max_concurrent = 4;
  policy.max_queue_depth = 8;
  policy.paths.add({"primary", tb.env.path, tb.env.route, 0});
  net::PathSpec detour = tb.env.path;
  detour.rtt *= 1.5;
  policy.paths.add({"backup", detour, net::futuregrid_route(), 1});
  const Watts peak = exp::session_peak_power_bound(tb.env);
  policy.path_power_caps = {peak * 2.5, peak * 1.5};
  policy.supervision.attempt_deadline = 2.0;
  policy.supervision.max_attempts = 12;
  policy.supervision.degrade_after = 3;
  // The primary is partitioned for the rest of the run; the backup browns
  // out briefly on its own.
  policy.link_brownouts.push_back({0.5, 1000.0, 0.0, /*path=*/0});
  policy.link_brownouts.push_back({1.0, 0.5, 0.6, /*path=*/1});
  return policy;
}

TEST(RatePipelinePinned, SchedulerTwoSitesPartitionMigratesUnderSiteCaps) {
  const auto tb = tiny_xsede();
  exp::Scheduler scheduler(tb, gbps(7.0), two_site_partition_policy(tb), fast_cfg());
  obs::TelemetryHub hub(0.5, 512, 2);
  scheduler.set_telemetry(&hub);
  const auto report =
      scheduler.run(pin_jobs("part", 3, 6, 80 * kMB, exp::JobPolicy::kBalanced));

  EXPECT_TRUE(report.accounting_consistent());
  EXPECT_EQ(report.completed, 3);
  EXPECT_GE(report.migrations, 1);
  EXPECT_EQ(report.power_cap_violations, 0);
  for (const auto& out : report.jobs) EXPECT_EQ(out.path, 1);
  EXPECT_PINNED(exp::scheduler_report_payload(report) + hub.to_json(), 0x5d9fb8f47de5ac81ULL);
}

TEST(RatePipelinePinned, SchedulerTwoSitesObsExports) {
  // The same schedule with a collector: per-path phi gauges and trace tracks,
  // read while the partitioned primary sits idle and its demerits decay.
  const auto tb = tiny_xsede();
  exp::Scheduler scheduler(tb, gbps(7.0), two_site_partition_policy(tb), fast_cfg());
  obs::ObsCollector collector;
  scheduler.set_collector(&collector);
  const auto report =
      scheduler.run(pin_jobs("part", 3, 6, 80 * kMB, exp::JobPolicy::kBalanced));

  EXPECT_GE(report.migrations, 1);
  std::ostringstream trace, metrics, decisions;
  collector.write_chrome_trace(trace);
  collector.write_metrics_json(metrics);
  collector.write_decisions_json(decisions);
  EXPECT_NE(trace.str().find("path.primary.phi"), std::string::npos);
  EXPECT_PINNED(trace.str() + metrics.str() + decisions.str(), 0x6ba7f43cad850ffaULL);
}

TEST(RatePipelinePinned, SchedulerOneOptionPathSet) {
  const auto tb = tiny_xsede();
  exp::SchedulerPolicy policy;
  policy.max_concurrent = 2;
  net::PathSpec only = tb.env.path;
  only.rtt *= 1.2;
  policy.paths.add({"only", only, net::futuregrid_route(), 0});
  policy.link_brownouts.push_back({0.5, 1.0, 0.5, /*path=*/1});  // no such site
  policy.link_brownouts.push_back({2.0, 1.0, 0.6});
  exp::Scheduler scheduler(tb, gbps(7.0), policy, fast_cfg());
  FaultPlan faults;
  faults.brownouts.push_back({1.0, 1.0, 0.5, /*path=*/0});
  faults.brownouts.push_back({2.5, 1.0, 0.2, /*path=*/1});  // filtered away
  faults.brownouts.push_back({4.0, 1.0, 0.7});
  scheduler.set_fault_plan(faults);
  const auto report =
      scheduler.run(pin_jobs("one", 3, 5, 90 * kMB, exp::JobPolicy::kBalanced));

  EXPECT_TRUE(report.accounting_consistent());
  EXPECT_EQ(report.completed, 3);
  EXPECT_EQ(report.migrations, 0);
  EXPECT_PINNED(exp::scheduler_report_payload(report), 0x2c192094eeb7970bULL);
}

// --- per-server limits and the per-file overhead's edge ranges --------------
//
// The figure testbeds never bind a NIC ceiling and rarely put both sides'
// disk pools under water at once; these pins walk the per-server limits and
// every range boundary of the steady per-file overhead (the checksum pass,
// zero RTT, a BDP below the initial window, files around max(BDP, 64 KiB),
// and channels changing pipelining depth mid-run).

/// Two servers per side behind a link far wider than either NIC: windows,
/// CPU and disks all clear the NICs, so each server's NIC is its binding cap.
Environment nic_env(BitsPerSecond src0, BitsPerSecond src1, BitsPerSecond dst0,
                    BitsPerSecond dst1) {
  auto env = small_env(2);
  env.path = {gbps(10.0), 0.002, 32 * kMB, 1500};
  for (auto* ep : {&env.source, &env.destination}) {
    for (auto& s : ep->servers) {
      s.cores = 8;
      s.per_core_goodput = gbps(2.0);
      s.disk = {host::DiskKind::kParallelArray, gbps(40.0), 1.0, 0.0};
    }
  }
  env.source.servers[0].nic_speed = src0;
  env.source.servers[1].nic_speed = src1;
  env.destination.servers[0].nic_speed = dst0;
  env.destination.servers[1].nic_speed = dst1;
  return env;
}

TEST(RatePipelinePinned, NicCeilingsBelowTheLinkOnEitherSide) {
  const auto ds = dataset_of({300 * kMB, 280 * kMB, 260 * kMB, 240 * kMB, 220 * kMB,
                              200 * kMB, 30 * kMB, 20 * kMB});
  auto plan = one_chunk_plan(ds, 6, 2);
  plan.placement = Placement::kRoundRobin;
  struct Case {
    BitsPerSecond src0, src1, dst0, dst1;
  };
  const Case cases[] = {
      {mbps(300.0), mbps(600.0), gbps(40.0), gbps(40.0)},  // source NICs bind
      {gbps(40.0), gbps(40.0), mbps(500.0), mbps(250.0)},  // destination NICs bind
      {mbps(400.0), mbps(900.0), mbps(700.0), mbps(200.0)},  // both sides bind
  };
  std::string all;
  for (const Case& c : cases) {
    const auto env = nic_env(c.src0, c.src1, c.dst0, c.dst1);
    TransferSession session(env, ds, plan, fast_cfg());
    const auto r = session.run();
    ASSERT_TRUE(r.completed);
    // Nothing but the NICs sits below the 10 Gbps link, so the NICs set the
    // pace: the run can move no faster than the slower side's cards.
    const BitsPerSecond nic_bound = std::min(c.src0 + c.src1, c.dst0 + c.dst1);
    EXPECT_LE(r.avg_throughput(), nic_bound);
    EXPECT_GT(r.avg_throughput(), 0.5 * nic_bound);
    all += payload(r);
  }
  EXPECT_PINNED(all, 0x0c0afd6c8516208aULL);
}

TEST(RatePipelinePinned, SingleDiskPoolsOversubscribedOnBothSides) {
  auto env = small_env(2);
  env.path = {gbps(10.0), 0.004, 32 * kMB, 1500};
  for (auto* ep : {&env.source, &env.destination}) {
    for (auto& s : ep->servers) {
      s.nic_speed = gbps(10.0);
      s.cores = 8;
      s.per_core_goodput = gbps(2.0);
    }
  }
  env.source.servers[0].disk = {host::DiskKind::kSingleDisk, mbps(780.0), 0.0, 0.20};
  env.source.servers[1].disk = {host::DiskKind::kSingleDisk, mbps(600.0), 0.0, 0.30};
  env.destination.servers[0].disk = {host::DiskKind::kSingleDisk, mbps(500.0), 0.0, 0.25};
  env.destination.servers[1].disk = {host::DiskKind::kSingleDisk, mbps(900.0), 0.0, 0.10};
  const auto ds = mixed_dataset();
  auto plan = two_chunk_plan(ds);
  plan.params = {{1, 1, 4}, {1, 2, 4}};
  plan.placement = Placement::kRoundRobin;
  TransferSession session(env, ds, plan, fast_cfg());
  const auto r = session.run();
  ASSERT_TRUE(r.completed);
  // Eight channels on four single disks: each pool thrashes well below the
  // sum of its channels' caps, on the source and the destination alike.
  EXPECT_LT(r.avg_throughput(), mbps(1400.0));
  EXPECT_PINNED(payload(r), 0xc69be0997bb3dcabULL);
}

TEST(RatePipelinePinned, ChecksumPassScalesEveryFilesOverhead) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  auto plan = two_chunk_plan(ds);
  plan.params = {{1, 1, 2}, {1, 2, 2}};
  plan.checksum_rate = gbps(2.0);
  TransferSession session(env, ds, plan, fast_cfg());
  const auto r = session.run();
  ASSERT_TRUE(r.completed);
  EXPECT_PINNED(payload(r), 0xa3d390cfa3e5ece0ULL);
}

TEST(RatePipelinePinned, ZeroRttAndSubInitialWindowBdpPaths) {
  Dataset ds = mixed_dataset();
  for (const Bytes b : {10 * kKB, 64 * kKB - 1, 64 * kKB, 64 * kKB + 1, 200 * kKB}) {
    ds.files.push_back({b});
  }
  auto plan = two_chunk_plan(ds);
  plan.params = {{1, 1, 2}, {1, 2, 2}};
  std::string all;
  for (const Seconds rtt : {0.0, 0.0002}) {
    auto env = small_env();
    env.path.rtt = rtt;  // 0.2 ms at 1 Gbps: a 25 kB BDP, below 64 KiB
    ASSERT_LT(env.path.bdp(), 64 * kKB);
    TransferSession session(env, ds, plan, fast_cfg());
    const auto r = session.run();
    ASSERT_TRUE(r.completed);
    all += payload(r);
  }
  EXPECT_PINNED(all, 0x8508c56a42f429d6ULL);
}

TEST(RatePipelinePinned, FilesStraddlingTheSteadyOverheadThreshold) {
  const auto env = small_env();
  const Bytes bdp = env.path.bdp();
  ASSERT_GT(bdp, 64 * kKB);
  Dataset ds;
  for (const Bytes b : {bdp - 1, bdp, bdp + 1, 64 * kKB - 1, 64 * kKB, 64 * kKB + 1,
                        2 * bdp, bdp / 2, 3 * bdp + 7, 40 * kMB}) {
    ds.files.push_back({b});
  }
  std::string all;
  // Unpipelined channels pay the warm slow-start ramp; pipelined ones skip it.
  for (const int pp : {1, 3}) {
    auto plan = one_chunk_plan(ds, 3, 2);
    plan.params[0].pipelining = pp;
    TransferSession session(env, ds, plan, fast_cfg());
    const auto r = session.run();
    ASSERT_TRUE(r.completed);
    all += payload(r);
  }
  EXPECT_PINNED(all, 0xe9b37a3afdbc3132ULL);
}

/// Counts, per tick, the open channels of each chunk.
class ChunkCensus : public SessionObserver {
 public:
  void on_tick(const TickTrace& t) override {
    std::vector<int> n;
    for (const auto& ch : t.channels) {
      if (ch.chunk < 0) continue;
      const auto c = static_cast<std::size_t>(ch.chunk);
      if (n.size() <= c) n.resize(c + 1, 0);
      ++n[c];
    }
    ticks.push_back(std::move(n));
  }
  std::vector<std::vector<int>> ticks;
};

TEST(RatePipelinePinned, SlaeeMovesChannelsAcrossPipeliningDepths) {
  const auto tb = tiny_xsede();
  const auto ds = tb.make_dataset();
  const auto plan = core::plan_slaee(tb.env, ds, 4);
  // The chunks run different pipelining depths, so a channel SLAEE moves
  // between them changes the depth its per-file overhead is computed for.
  int min_pp = plan.params.front().pipelining, max_pp = min_pp;
  for (const auto& p : plan.params) {
    min_pp = std::min(min_pp, p.pipelining);
    max_pp = std::max(max_pp, p.pipelining);
  }
  ASSERT_LT(min_pp, max_pp);
  const auto promc = exp::run_algorithm(exp::Algorithm::kProMc, tb, ds, 12, fast_cfg());
  core::SlaeeController controller(0.95 * promc.result.avg_throughput(), 4);
  TransferSession session(tb.env, ds, plan, fast_cfg());
  ChunkCensus census;
  session.set_observer(&census);
  const auto r = session.run(&controller);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(controller.rearranged());
  // Some chunk gained a channel on a tick another chunk lost one.
  bool moved = false;
  for (std::size_t i = 1; i < census.ticks.size() && !moved; ++i) {
    const auto& a = census.ticks[i - 1];
    const auto& b = census.ticks[i];
    bool gained = false, lost = false;
    for (std::size_t c = 0; c < std::max(a.size(), b.size()); ++c) {
      const int before = c < a.size() ? a[c] : 0;
      const int after = c < b.size() ? b[c] : 0;
      gained |= after > before;
      lost |= after < before;
    }
    moved = gained && lost;
  }
  EXPECT_TRUE(moved);
  EXPECT_PINNED(payload(r) + " final=" + std::to_string(controller.final_level()),
                0xdafadf9d77df339fULL);
}

// The planners give a depth above 1 only to chunks whose average file is
// below the BDP, whose files stay below the steady-overhead floor. Here two
// chunks that both hold files above the floor run different depths, so a
// channel SLAEE moves between them keeps streaming steady-range files under
// a new depth.
TEST(RatePipelinePinned, SlaeeMovesChannelsBetweenSteadyRangeDepths) {
  const auto env = small_env();
  Dataset ds;
  for (int i = 0; i < 60; ++i) ds.files.push_back({1 * kMB + i * 24 * kKB});
  for (int i = 0; i < 24; ++i) ds.files.push_back({20 * kMB + i * kMB});
  for (int i = 0; i < 6; ++i) ds.files.push_back({300 * kMB + i * 50 * kMB});
  auto plan = core::plan_slaee(env, ds, 4);
  const Bytes floor = std::max(env.path.bdp(), 64 * kKB + 1);
  int deep = 0, shallow = 0;
  for (std::size_t c = 0; c < plan.chunks.size(); ++c) {
    const auto& ids = plan.chunks[c].file_ids;
    if (std::none_of(ids.begin(), ids.end(),
                     [&](std::uint32_t id) { return ds.files[id].size >= floor; })) {
      continue;
    }
    const bool make_deep = deep <= shallow;
    plan.params[c].pipelining = make_deep ? 4 : 1;
    ++(make_deep ? deep : shallow);
  }
  ASSERT_GT(deep, 0);
  ASSERT_GT(shallow, 0);
  core::SlaeeController controller(mbps(900.0), 4);
  TransferSession session(env, ds, plan, fast_cfg());
  const auto r = session.run(&controller);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(controller.rearranged());
  EXPECT_PINNED(payload(r) + " final=" + std::to_string(controller.final_level()),
                0xea92b3970e1c1987ULL);
}

// Every bench testbed has identical servers per side, so a memoised cap that
// forgot which server it was computed for would still reproduce their bits.
// Here the two source servers differ: an outage moves the only channel from
// the fast one to the slow one, and the first busy tick after the move must
// publish the slow server's CPU cap.
TEST(RatePipelineHeterogeneous, MigratedChannelTakesTheNewServersCpuCap) {
  auto env = small_env(2);
  // Zero RTT and per-file cost give a duty cycle of 1, and a wide link, NIC
  // and disk leave the source CPU cap as the binding term of the demand.
  env.path.rtt = 0.0;
  env.path.bandwidth = gbps(10.0);
  env.per_file_cost = 0.0;
  for (auto* ep : {&env.source, &env.destination}) {
    for (auto& s : ep->servers) {
      s.nic_speed = gbps(40.0);
      s.disk.max_bandwidth = gbps(40.0);
      s.per_core_goodput = gbps(1.0);
    }
  }
  host::ServerSpec& fast = env.source.servers[0];
  fast.cores = 8;
  fast.per_core_goodput = mbps(600.0);
  host::ServerSpec& slow = env.source.servers[1];
  slow.cores = 2;
  slow.per_core_goodput = mbps(150.0);
  const BitsPerSecond fast_cap = host::channel_cpu_cap(fast, 1, 2, 2);
  const BitsPerSecond slow_cap = host::channel_cpu_cap(slow, 1, 2, 2);
  ASSERT_NE(fast_cap, slow_cap);

  const auto ds = dataset_of({4 * kGB});
  auto plan = one_chunk_plan(ds, 1, 2);
  plan.placement = Placement::kPacked;  // starts on source server 0
  FaultPlan faults;
  faults.outages.push_back({/*source_side=*/true, 0, 0.55, 100.0});

  sim::Simulation sim;
  TransferSession session(sim, env, ds, plan);
  session.set_fault_plan(faults);
  ASSERT_FALSE(session.begin().has_value());
  std::vector<std::pair<Seconds, BitsPerSecond>> caps;  // (tick time, demand cap)
  std::vector<BitsPerSecond> alloc;
  sim.add_ticker(0.1, [&] {
    session.tick_prepare();
    session.collect_link_demands();
    const auto demands = session.link_demands();
    EXPECT_EQ(demands.size(), 1u);
    caps.emplace_back(sim.now(), demands.empty() ? 0.0 : demands[0].cap);
    alloc.assign(demands.size(), 0.0);
    for (std::size_t i = 0; i < demands.size(); ++i) alloc[i] = demands[i].cap;
    session.apply_link_allocation(alloc, 1.0, 1.0);
    return session.advance_tick() && sim.now() < 3.0;
  });
  sim.run_until(3.5);

  ASSERT_FALSE(caps.empty());
  EXPECT_EQ(caps.front().second, fast_cap);
  // After the outage: backoff ticks publish no demand, then the revived
  // channel streams from the slow server at its cap.
  std::size_t first_busy_after = caps.size();
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (caps[i].first > 0.55 && caps[i].second > 0.0) {
      first_busy_after = i;
      break;
    }
  }
  ASSERT_LT(first_busy_after, caps.size()) << "the channel never revived";
  EXPECT_GT(caps[first_busy_after - 1].first, 0.55);
  EXPECT_EQ(caps[first_busy_after - 1].second, 0.0);  // it was down in between
  EXPECT_EQ(caps[first_busy_after].second, slow_cap);
  EXPECT_EQ(caps.back().second, slow_cap);
  (void)session.finalize(false, sim.now());
}

}  // namespace
}  // namespace eadt::proto
