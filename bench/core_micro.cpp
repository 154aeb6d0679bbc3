// Core microbenchmark suite: the engine hot paths, self-timed, with the
// event queue raced against the std::map implementation it replaced.
//
// Six series (BENCH_core.json, schema eadt-bench-v1, `micro` section):
//   * event_queue_sched_fire_cancel — randomized schedule/fire/cancel churn
//     on sim::Simulation vs the reference std::map queue (same op sequence;
//     the speedup figure is the PR-over-PR perf gate);
//   * ticker_churn — re-arm fast path: many concurrent tickers firing;
//   * fair_share_rounds — net::fair_share_into with a warmed scratch;
//   * fair_share_waterfill_dist — net::WaterfillSolver dist mode at 10^6
//     flows (10^5 under --quick) vs the per-flow reference loop on the same
//     round, bitwise-checked before timing (its speedup is a CI tripwire);
//   * fair_share_fleet_round — the fleet tick's joint round: 2,000 distinct
//     busy demands through net::LinkArbiter::submit_groups, a terminal round in
//     which nobody caps, bitwise-checked before timing; `counts.ordered`
//     reports the groups the solver sorted (0: the lazy order is never read);
//   * session_ticks — whole TransferSession steady-state ticks per second on
//     DIDCLAB (1+1 servers, ProMC cc = 4);
//   * session_ticks_xsede — the same on XSEDE (4+4 DTNs, ProMC cc = 12), where
//     the per-channel caps and per-server loops carry real weight;
//   * session_ticks_diskbound — the same on DIDCLAB's single-disk servers at
//     ProMC cc = 8, where both disk pools are oversubscribed and run their
//     fair-share round on every busy tick.
//
// Wall-clock numbers are the *non-deterministic* side of the schema: the ops
// counts are replay-stable, the rates are the perf trajectory.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <utility>
#include <vector>

#include "baselines/baselines.hpp"
#include "bench_common.hpp"
#include "net/fair_share.hpp"
#include "obs/obs.hpp"
#include "proto/session.hpp"
#include "sim/simulation.hpp"
#include "testbeds/testbeds.hpp"
#include "util/rng.hpp"

namespace {

using namespace eadt;

volatile double g_sink = 0.0;  // defeats dead-code elimination

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The event engine this PR replaced, verbatim: a std::map over (time, seq)
/// with eager cancellation, and tickers implemented as a shared_ptr registry
/// whose re-arm closure is re-scheduled — i.e. a fresh std::function (heap
/// clone: the closure outgrows the SBO buffer) plus a map node per
/// occurrence. Kept here as the baseline the heap engine is raced against
/// (the differential test in tests/test_simulation.cpp uses the same
/// reference to check behaviour, op for op).
class MapQueue {
 public:
  struct Id {
    double time = 0.0;
    std::uint64_t seq = 0;
  };

  [[nodiscard]] double now() const { return now_; }

  Id schedule_at(double t, std::function<void()> fn) {
    const double when = std::max(t, now_);
    const Id id{when, next_seq_++};
    queue_.emplace(std::make_pair(when, id.seq), std::move(fn));
    return id;
  }

  Id add_ticker(double interval, std::function<bool()> fn) {
    const std::uint64_t key = next_seq_;  // seq the first occurrence will get
    auto state = std::make_shared<TickerState>();
    state->fn = std::move(fn);
    state->rearm = [this, interval, key]() {
      const auto it = tickers_.find(key);
      if (it == tickers_.end()) return;  // cancelled while this firing was queued
      const auto st = it->second;
      if (!st->fn()) {
        tickers_.erase(key);
        return;
      }
      if (tickers_.count(key) != 0) {  // fn may have cancelled its own ticker
        st->current = schedule_at(now_ + std::max(interval, 0.0), st->rearm);
      }
    };
    tickers_.emplace(key, state);
    state->current = schedule_at(now_ + std::max(interval, 0.0), state->rearm);
    return state->current;
  }

  bool cancel(Id id) {
    if (auto it = tickers_.find(id.seq); it != tickers_.end()) {
      const Id current = it->second->current;
      tickers_.erase(it);
      queue_.erase({current.time, current.seq});
      return true;
    }
    return queue_.erase({id.time, id.seq}) > 0;
  }

  std::uint64_t run_until(double deadline) {
    std::uint64_t fired = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= deadline) {
      const auto it = queue_.begin();
      now_ = it->first.first;
      auto fn = std::move(it->second);
      queue_.erase(it);
      fn();
      ++fired;
    }
    return fired;
  }

 private:
  struct TickerState {
    Id current;
    std::function<bool()> fn;
    std::function<void()> rearm;
  };

  double now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::map<std::pair<double, std::uint64_t>, std::function<void()>> queue_;
  std::map<std::uint64_t, std::shared_ptr<TickerState>> tickers_;
};

/// sim::Simulation behind the MapQueue interface, so both run the exact same
/// churn loop. Both consume one seq per occurrence, so tie-breaks — and
/// therefore the fired-event sequence — are identical.
class HeapQueue {
 public:
  using Id = sim::EventId;
  [[nodiscard]] double now() const { return sim_.now(); }
  Id schedule_at(double t, std::function<void()> fn) {
    return sim_.schedule_at(t, std::move(fn));
  }
  Id add_ticker(double interval, std::function<bool()> fn) {
    return sim_.add_ticker(interval, std::move(fn));
  }
  bool cancel(Id id) { return sim_.cancel(id); }
  std::uint64_t run_until(double deadline) { return sim_.run_until(deadline); }

 private:
  sim::Simulation sim_;
};

/// One deterministic session-shaped churn round-trip, mirroring what the
/// golden counters say real runs look like (ticks dominate fired events and
/// the queue stays shallow): every round starts a finite ticker, schedules a
/// burst of one-shot control events, cancels a wave of remembered ids (some
/// already fired, some mid-flight tickers — both implementations pay the
/// same misses), then advances time so the live tickers fire. Returns the
/// number of queue operations performed.
template <typename Queue>
std::uint64_t queue_churn(Queue& q, int rounds) {
  Rng rng(0xC0DEC0DEULL);
  std::vector<typename Queue::Id> ids;
  ids.reserve(64);
  std::uint64_t ops = 0;
  int spin = 0;
  const auto payload = [&] { ++spin; };
  for (int r = 0; r < rounds; ++r) {
    // ~6 tickers stay live in steady state (one added per round, each
    // self-stopping after 64 occurrences), each firing ~10 times per round:
    // ticks end up ~85% of fired events, like a session's counters.
    {
      auto left = 64;
      ids.push_back(q.add_ticker(rng.uniform(0.05, 0.4),
                                 [left, &spin]() mutable {
                                   ++spin;
                                   return --left > 0;
                                 }));
      ++ops;
    }
    for (int k = 0; k < 8; ++k) {
      ids.push_back(q.schedule_at(q.now() + rng.uniform(0.0, 4.0), payload));
      ++ops;
    }
    for (int k = 0; k < 3 && !ids.empty(); ++k) {
      const std::size_t pick = rng.uniform_int(0, ids.size() - 1);
      q.cancel(ids[pick]);
      ++ops;
      ids[pick] = ids.back();
      ids.pop_back();
    }
    ops += q.run_until(q.now() + 2.0);
  }
  ops += q.run_until(1e18);  // drain: every ticker self-stops
  g_sink = static_cast<double>(spin);
  return ops;
}

exp::MicroSample bench_event_queue(int rounds) {
  // Untimed warm-up pass so both sides measure steady-state allocator and
  // cache behaviour, not first-touch page faults.
  {
    HeapQueue w1;
    queue_churn(w1, rounds / 8 + 1);
    MapQueue w2;
    queue_churn(w2, rounds / 8 + 1);
  }
  HeapQueue heap;
  auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t ops = queue_churn(heap, rounds);
  const double heap_ms = ms_since(t0);

  MapQueue map;
  t0 = std::chrono::steady_clock::now();
  const std::uint64_t map_ops = queue_churn(map, rounds);
  const double map_ms = ms_since(t0);
  if (map_ops != ops) {
    std::cerr << "FATAL: baseline executed a different op count (" << map_ops
              << " vs " << ops << ")\n";
    std::exit(1);
  }

  exp::MicroSample m;
  m.name = "event_queue_sched_fire_cancel";
  m.ops = ops;
  m.wall_ms = heap_ms;
  m.ops_per_sec = heap_ms > 0.0 ? static_cast<double>(ops) * 1000.0 / heap_ms : 0.0;
  m.baseline_ops_per_sec =
      map_ms > 0.0 ? static_cast<double>(ops) * 1000.0 / map_ms : 0.0;
  m.speedup =
      m.baseline_ops_per_sec > 0.0 ? m.ops_per_sec / m.baseline_ops_per_sec : 0.0;
  return m;
}

exp::MicroSample bench_ticker_churn(int tickers, std::uint64_t fires_each) {
  sim::Simulation sim;
  for (int i = 0; i < tickers; ++i) {
    auto left = fires_each;
    sim.add_ticker(0.1 + 0.01 * static_cast<double>(i % 7),
                   [left]() mutable { return --left > 0; });
  }
  const auto t0 = std::chrono::steady_clock::now();
  sim.run_until();
  const double ms = ms_since(t0);
  g_sink = sim.now();

  exp::MicroSample m;
  m.name = "ticker_churn";
  m.ops = sim.counters().ticks;
  m.wall_ms = ms;
  m.ops_per_sec = ms > 0.0 ? static_cast<double>(m.ops) * 1000.0 / ms : 0.0;
  return m;
}

exp::MicroSample bench_fair_share(int calls) {
  Rng rng(7);
  std::vector<net::Demand> demands;
  for (int i = 0; i < 64; ++i) {
    demands.push_back({rng.uniform(1e8, 5e9), rng.uniform(1.0, 4.0)});
  }
  net::FairShareScratch scratch;
  std::vector<BitsPerSecond> alloc;
  double acc = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < calls; ++i) {
    // Nudge the capacity per call so the loop cannot be folded away.
    const double cap = gbps(10.0) + static_cast<double>(i % 97);
    acc += net::fair_share_into(cap, demands, alloc, scratch);
  }
  const double ms = ms_since(t0);
  g_sink = acc;

  exp::MicroSample m;
  m.name = "fair_share_rounds";
  m.ops = static_cast<std::uint64_t>(calls);
  m.wall_ms = ms;
  m.ops_per_sec = ms > 0.0 ? static_cast<double>(m.ops) * 1000.0 / ms : 0.0;
  return m;
}

/// Fair share at fleet scale: one arbiter-shaped round of `flows` flows in
/// 96 duplicate-demand clusters forming a capping CASCADE — each cluster's
/// cap/weight ratio sits just inside the next filling round's waterlevel
/// window, so progressive filling retires exactly one cluster per round and
/// pays rounds * survivors, the per-flow loop's real cost model under
/// heterogeneous fleets. The waterfill solver takes the same round in dist
/// form — 96 group entries — and is raced against the reference loop on the
/// expansion. Before any timing, one solve is checked BITWISE against the
/// reference (per-member rates and total); a mismatch is fatal, because the
/// solver's whole contract is exact equivalence.
exp::MicroSample bench_waterfill(std::uint64_t flows) {
  Rng rng(0xFA17CAFEULL);
  constexpr int kClusters = 96;
  constexpr int kSurvivors = 4;  // left uncapped: the terminal waterlevel round
  const std::uint64_t count = std::max<std::uint64_t>(flows / kClusters, 1);

  std::vector<double> weights;
  double w_active = 0.0;
  for (int j = 0; j < kClusters; ++j) {
    weights.push_back(static_cast<double>(rng.uniform_int(1, 8)));
    weights.back() += rng.uniform(0.0, 0.5);  // no two clusters collapse
    w_active += weights.back() * static_cast<double>(count);
  }

  // Walk the filling recurrence to place each cluster's ratio inside the
  // (share_{j-1}, share_j] window: cluster j then caps in round j and no
  // earlier. Windows are ~1e-4 wide relative — far above the solver's 1e-12
  // certification band, far below anything that would merge rounds.
  const BitsPerSecond capacity = 1e12;
  std::vector<net::DemandGroup> groups;
  double remaining = capacity;
  double prev_share = 0.0;
  for (int j = 0; j < kClusters - kSurvivors; ++j) {
    const double share = remaining / w_active;  // round j's waterlevel
    const double key = prev_share + 0.9 * (share - prev_share);
    const double cap = key * weights[static_cast<std::size_t>(j)];
    groups.push_back({cap, weights[static_cast<std::size_t>(j)], count});
    remaining -= cap * static_cast<double>(count);
    w_active -= weights[static_cast<std::size_t>(j)] * static_cast<double>(count);
    prev_share = share;
  }
  for (int j = kClusters - kSurvivors; j < kClusters; ++j) {
    // Survivors: ratio far above any waterlevel, so the final round splits
    // what's left by weight — the convergence the acceptance check pins.
    groups.push_back({prev_share * weights[static_cast<std::size_t>(j)] * 8.0,
                      weights[static_cast<std::size_t>(j)], count});
  }
  const std::uint64_t members = count * static_cast<std::uint64_t>(kClusters);

  std::vector<net::Demand> expanded;
  expanded.reserve(members);
  for (const auto& g : groups) {
    expanded.insert(expanded.end(), static_cast<std::size_t>(g.count),
                    net::Demand{g.cap, g.weight});
  }

  // Correctness gate, untimed: dist solve vs reference on the expansion.
  net::WaterfillSolver solver;
  net::FairShareScratch scratch;
  std::vector<BitsPerSecond> group_rates;
  std::vector<BitsPerSecond> ref_alloc;
  const BitsPerSecond total = solver.solve_dist(capacity, groups, group_rates);
  const BitsPerSecond ref_total =
      net::fair_share_reference_into(capacity, expanded, ref_alloc, scratch);
  if (total != ref_total) {
    std::cerr << "FATAL: waterfill total diverged from reference ("
              << total << " vs " << ref_total << ")\n";
    std::exit(1);
  }
  std::size_t at = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::uint64_t k = 0; k < groups[g].count; ++k, ++at) {
      if (group_rates[g] != ref_alloc[at]) {
        std::cerr << "FATAL: waterfill rate diverged from reference at flow "
                  << at << " (" << group_rates[g] << " vs " << ref_alloc[at]
                  << ")\n";
        std::exit(1);
      }
    }
  }
  // Convergence: oversubscribed, so the fill must place (essentially) the
  // whole capacity.
  if (!(total > 0.999999 * capacity && total < 1.000001 * capacity)) {
    std::cerr << "FATAL: waterfill did not converge (placed " << total
              << " of " << capacity << ")\n";
    std::exit(1);
  }

  const bool quick = flows < 1000000;
  const int dist_calls = quick ? 8 : 24;
  const int ref_calls = quick ? 2 : 3;

  double acc = 0.0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < dist_calls; ++i) {
    // Nudge the capacity per call so the loop cannot be folded away.
    acc += solver.solve_dist(capacity + static_cast<double>(i % 97), groups,
                             group_rates);
  }
  const double dist_ms = ms_since(t0);

  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < ref_calls; ++i) {
    acc += net::fair_share_reference_into(capacity + static_cast<double>(i % 97),
                                          expanded, ref_alloc, scratch);
  }
  const double ref_ms = ms_since(t0);
  g_sink = acc;

  // Both sides are rated in flow-allocations per second, so the speedup is
  // the per-flow cost ratio even though the call counts differ.
  exp::MicroSample m;
  m.name = "fair_share_waterfill_dist";
  m.ops = static_cast<std::uint64_t>(dist_calls) * members;
  m.wall_ms = dist_ms;
  m.ops_per_sec = dist_ms > 0.0 ? static_cast<double>(m.ops) * 1000.0 / dist_ms : 0.0;
  const double ref_ops = static_cast<double>(ref_calls) * static_cast<double>(members);
  m.baseline_ops_per_sec = ref_ms > 0.0 ? ref_ops * 1000.0 / ref_ms : 0.0;
  m.speedup =
      m.baseline_ops_per_sec > 0.0 ? m.ops_per_sec / m.baseline_ops_per_sec : 0.0;
  return m;
}

/// The fleet's steady joint round: 1,000 tenants of two distinct busy
/// channels each plus an idle one, every cap/weight ratio far above the
/// waterlevel — the terminal no-cap round the scheduler runs every tick. One
/// round is checked BITWISE against the reference on the flattened demand
/// list before any timing; a mismatch is fatal.
exp::MicroSample bench_fleet_round(int calls) {
  Rng rng(0xF1EE7);
  constexpr int kTenants = 1000;
  std::vector<std::vector<net::DemandGroup>> tenants;
  std::vector<net::Demand> flat;
  double min_key = 1e300;
  double weight_sum = 0.0;
  for (int t = 0; t < kTenants; ++t) {
    std::vector<net::DemandGroup> groups;
    for (int c = 0; c < 2; ++c) {
      const double weight = static_cast<double>(rng.uniform_int(1, 8));
      groups.push_back({rng.uniform(1e8, 1e9) * weight, weight, rng.uniform_int(1, 3)});
      min_key = std::min(min_key, groups.back().cap / weight);
      weight_sum += weight * static_cast<double>(groups.back().count);
    }
    groups.push_back({0.0, 1.0, 1});  // an idle channel
    for (const auto& g : groups) {
      flat.insert(flat.end(), static_cast<std::size_t>(g.count),
                  net::Demand{g.cap, g.weight});
    }
    tenants.push_back(std::move(groups));
  }
  const BitsPerSecond capacity = 0.5 * min_key * weight_sum;

  net::LinkArbiter arbiter;
  const auto round = [&](BitsPerSecond cap) {
    arbiter.begin_round(cap);
    for (const auto& groups : tenants) arbiter.submit_groups(groups);
    arbiter.allocate();
    return arbiter.total();
  };

  // Correctness gate, untimed: every tenant's slice vs the reference.
  const BitsPerSecond total = round(capacity);
  const std::uint64_t ordered = arbiter.solver_stats().ordered;
  net::FairShareScratch scratch;
  std::vector<BitsPerSecond> ref;
  const BitsPerSecond ref_total =
      net::fair_share_reference_into(capacity, flat, ref, scratch);
  bool same = total == ref_total;
  std::size_t at = 0;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (const BitsPerSecond a : arbiter.slice(t)) same = same && a == ref[at++];
  }
  if (!same || at != flat.size()) {
    std::cerr << "FATAL: fleet round diverged from the reference\n";
    std::exit(1);
  }

  double acc = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < calls; ++i) {
    // Nudge the capacity per call so the loop cannot be folded away.
    acc += round(capacity + static_cast<double>(i % 97));
  }
  const double ms = ms_since(t0);
  g_sink = acc;

  exp::MicroSample m;
  m.name = "fair_share_fleet_round";
  m.ops = static_cast<std::uint64_t>(calls);
  m.wall_ms = ms;
  m.ops_per_sec = ms > 0.0 ? static_cast<double>(m.ops) * 1000.0 / ms : 0.0;
  m.counts.emplace_back("ordered", ordered);
  return m;
}

/// Whole-session ticks of a ProMC run at concurrency `cc` on `t`. A run lasts
/// only a few milliseconds, so an unobserved series repeats identical runs
/// until kMinSeriesMs of wall time has passed and reports ops/s over that
/// total; an observed one runs once, so its trace holds one session.
constexpr double kMinSeriesMs = 200.0;

exp::MicroSample bench_session_ticks(const char* name, testbeds::Testbed t, int cc,
                                     unsigned scale, obs::ObsSinks* sinks) {
  t.recipe.total_bytes = std::max<Bytes>(t.recipe.total_bytes / scale, 64ULL << 20);
  const auto ds = t.make_dataset();
  const auto plan = baselines::plan_promc(t.env, ds, cc);
  proto::SessionConfig config;
  config.obs = sinks;  // null on unobserved runs: the timed loop is untouched
  double ms = 0.0;
  std::uint64_t ticks = 0;
  do {
    proto::TransferSession session(t.env, ds, plan, config);
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = session.run();
    ms += ms_since(t0);
    g_sink = res.duration;
    ticks += res.sim_counters.ticks;
  } while (sinks == nullptr && ms < kMinSeriesMs);

  exp::MicroSample m;
  m.name = name;
  m.ops = ticks;
  m.wall_ms = ms;
  m.ops_per_sec = ms > 0.0 ? static_cast<double>(m.ops) * 1000.0 / ms : 0.0;
  return m;
}

void print_sample(const exp::MicroSample& m) {
  std::cout << "  " << m.name << ": " << m.ops << " ops in " << m.wall_ms << " ms  ("
            << static_cast<std::uint64_t>(m.ops_per_sec) << " ops/s";
  if (m.baseline_ops_per_sec > 0.0) {
    std::cout << ", reference baseline " << static_cast<std::uint64_t>(m.baseline_ops_per_sec)
              << " ops/s, speedup " << m.speedup << "x";
  }
  for (const auto& [key, value] : m.counts) std::cout << ", " << key << " " << value;
  std::cout << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  // --quick raises scale to >= 32, which also shrinks the op counts below.
  const int div = opt.scale > 1 ? 8 : 1;

  std::cout << "== core microbenchmarks ==\n";
  // --trace-out/--metrics-out/--decisions observe the one real-engine series
  // (session_ticks); the raw queue/fair-share loops have nothing to trace.
  const auto collector = bench::make_collector(opt);
  exp::BenchRecord record;
  record.name = "core";  // BENCH_core.json, whatever the binary is called
  const auto t0 = std::chrono::steady_clock::now();

  record.micro.push_back(bench_event_queue(20000 / div));
  print_sample(record.micro.back());
  record.micro.push_back(bench_ticker_churn(64, static_cast<std::uint64_t>(40000 / div)));
  print_sample(record.micro.back());
  record.micro.push_back(bench_fair_share(200000 / div));
  print_sample(record.micro.back());
  record.micro.push_back(
      bench_waterfill(static_cast<std::uint64_t>(1000000 / div)));
  print_sample(record.micro.back());
  record.micro.push_back(bench_fleet_round(4000 / div));
  print_sample(record.micro.back());
  record.micro.push_back(bench_session_ticks(
      "session_ticks", testbeds::didclab(), 4, opt.scale,
      collector ? collector->slot(0, "session_ticks") : nullptr));
  print_sample(record.micro.back());
  record.micro.push_back(
      bench_session_ticks("session_ticks_xsede", testbeds::xsede(), 12, opt.scale, nullptr));
  print_sample(record.micro.back());
  record.micro.push_back(bench_session_ticks("session_ticks_diskbound", testbeds::didclab(),
                                             8, opt.scale, nullptr));
  print_sample(record.micro.back());

  record.total_wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  if (collector) {
    bench::write_obs_outputs(opt, *collector);
    record.metrics = collector->metrics().snapshot();
  }
  bench::write_bench_record(opt, std::move(record));
  return 0;
}
