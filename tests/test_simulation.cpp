#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace eadt::sim {
namespace {

TEST(Simulation, FiresInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulation, EqualTimesFireInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run_until();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_after(2.5, [&] { fired_at = sim.now(); });
  });
  sim.run_until();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulation, PastTimesClampToNow) {
  Simulation sim;
  double fired_at = -1.0;
  sim.schedule_at(5.0, [&] {
    sim.schedule_at(1.0, [&] { fired_at = sim.now(); });  // in the past
  });
  sim.run_until();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  const auto id = sim.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run_until();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelInvalidIdIsFalse) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(EventId{}));
}

TEST(Simulation, CountersTrackScheduleFireCancelAndPeak) {
  Simulation sim;
  const auto id = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  sim.schedule_at(3.0, [] {});
  EXPECT_EQ(sim.counters().scheduled, 3u);
  EXPECT_EQ(sim.counters().peak_queue, 3u);
  EXPECT_TRUE(sim.cancel(id));
  sim.run_until();
  EXPECT_EQ(sim.counters().scheduled, 3u);
  EXPECT_EQ(sim.counters().fired, 2u);
  EXPECT_EQ(sim.counters().cancelled, 1u);
  EXPECT_EQ(sim.counters().ticks, 0u);
  EXPECT_EQ(sim.counters().peak_queue, 3u);  // high-water mark sticks
}

TEST(Simulation, CountersTrackTickerOccurrences) {
  Simulation sim;
  int seen = 0;
  sim.add_ticker(1.0, [&] { return ++seen < 4; });  // fires at t=1..4
  sim.run_until();
  EXPECT_EQ(seen, 4);
  EXPECT_EQ(sim.counters().ticks, 4u);
  EXPECT_EQ(sim.counters().fired, 4u);
  // Each occurrence is scheduled individually (the initial arm + re-arms).
  EXPECT_EQ(sim.counters().scheduled, 4u);
}

TEST(Simulation, RunUntilDeadlineStopsAndAdvancesClock) {
  Simulation sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(10.0, [&] { ++count; });
  const auto fired = sim.run_until(5.0);
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until();
  EXPECT_EQ(count, 2);
}

TEST(Simulation, EmptyRunAdvancesToFiniteDeadline) {
  Simulation sim;
  sim.run_until(42.0);
  EXPECT_DOUBLE_EQ(sim.now(), 42.0);
}

TEST(Simulation, TickerRepeatsUntilFalse) {
  Simulation sim;
  int ticks = 0;
  sim.add_ticker(1.0, [&] {
    ++ticks;
    return ticks < 4;
  });
  sim.run_until(100.0);
  EXPECT_EQ(ticks, 4);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulation, TickerIntervalIsRespected) {
  Simulation sim;
  std::vector<double> times;
  sim.add_ticker(0.5, [&] {
    times.push_back(sim.now());
    return times.size() < 3;
  });
  sim.run_until();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[1], 1.0);
  EXPECT_DOUBLE_EQ(times[2], 1.5);
}

TEST(Simulation, TickerCancelWorksMidFlight) {
  // The id returned by add_ticker must stay valid across re-arms: cancelling
  // after several firings stops the repetition (the old implementation only
  // honoured a cancel issued before the first firing).
  Simulation sim;
  int ticks = 0;
  const auto id = sim.add_ticker(1.0, [&] {
    ++ticks;
    return true;
  });
  sim.schedule_at(3.5, [&] { EXPECT_TRUE(sim.cancel(id)); });
  sim.run_until(10.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
}

TEST(Simulation, TickerCancelFromInsideItsOwnCallback) {
  Simulation sim;
  EventId id{};
  int ticks = 0;
  id = sim.add_ticker(1.0, [&] {
    if (++ticks == 2) {
      EXPECT_TRUE(sim.cancel(id));
    }
    return true;  // the cancel must win over the "keep going" return value
  });
  sim.run_until(10.0);
  EXPECT_EQ(ticks, 2);
}

TEST(Simulation, TickerCancelAfterSelfStopReturnsFalse) {
  Simulation sim;
  int ticks = 0;
  const auto id = sim.add_ticker(1.0, [&] {
    ++ticks;
    return ticks < 2;
  });
  sim.run_until(10.0);
  EXPECT_EQ(ticks, 2);
  EXPECT_FALSE(sim.cancel(id));  // the series already ended on its own
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

// --- differential stress: heap engine vs the std::map reference ------------

/// The engine this PR replaced, verbatim (std::map queue, eager cancel,
/// self-re-scheduling ticker closures in a shared_ptr registry), including
/// its counter discipline. The heap engine must be observationally
/// indistinguishable from this under arbitrary op sequences — that is what
/// keeps every golden BENCH payload byte-identical.
class RefSim {
 public:
  [[nodiscard]] Seconds now() const noexcept { return now_; }

  EventId schedule_at(Seconds t, std::function<void()> fn) {
    const Seconds when = std::max(t, now_);
    const EventId id{when, next_seq_++};
    queue_.emplace(Key{id.time, id.seq}, std::move(fn));
    ++counters_.scheduled;
    counters_.peak_queue = std::max<std::uint64_t>(counters_.peak_queue, queue_.size());
    return id;
  }

  EventId schedule_after(Seconds dt, std::function<void()> fn) {
    return schedule_at(now_ + std::max(dt, 0.0), std::move(fn));
  }

  bool cancel(EventId id) {
    if (!id.valid()) return false;
    if (auto it = tickers_.find(id.seq); it != tickers_.end()) {
      const EventId current = it->second->current;
      tickers_.erase(it);
      counters_.cancelled += queue_.erase(Key{current.time, current.seq});
      return true;
    }
    const bool erased = queue_.erase(Key{id.time, id.seq}) > 0;
    counters_.cancelled += erased ? 1 : 0;
    return erased;
  }

  EventId add_ticker(Seconds interval, std::function<bool()> fn) {
    const std::uint64_t key = next_seq_;  // seq the first occurrence will get
    auto state = std::make_shared<TickerState>();
    state->fn = std::move(fn);
    state->rearm = [this, interval, key]() {
      const auto it = tickers_.find(key);
      if (it == tickers_.end()) return;
      ++counters_.ticks;
      const auto st = it->second;
      if (!st->fn()) {
        tickers_.erase(key);
        return;
      }
      if (tickers_.count(key) != 0) {
        st->current = schedule_after(interval, st->rearm);
      }
    };
    tickers_.emplace(key, state);
    state->current = schedule_after(interval, state->rearm);
    return state->current;
  }

  bool step() {
    if (queue_.empty()) return false;
    auto it = queue_.begin();
    now_ = it->first.first;
    auto fn = std::move(it->second);
    queue_.erase(it);
    ++counters_.fired;
    fn();
    return true;
  }

  std::uint64_t run_until(Seconds deadline = std::numeric_limits<double>::infinity()) {
    std::uint64_t fired = 0;
    while (!queue_.empty() && queue_.begin()->first.first <= deadline) {
      step();
      ++fired;
    }
    if (queue_.empty() && now_ < deadline &&
        deadline < std::numeric_limits<double>::infinity()) {
      now_ = deadline;
    }
    return fired;
  }

  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }
  [[nodiscard]] const SimCounters& counters() const noexcept { return counters_; }

 private:
  using Key = std::pair<Seconds, std::uint64_t>;
  struct TickerState {
    EventId current;
    std::function<bool()> fn;
    std::function<void()> rearm;
  };

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  SimCounters counters_;
  std::map<Key, std::function<void()>> queue_;
  std::map<std::uint64_t, std::shared_ptr<TickerState>> tickers_;
};

/// One observable moment: which payload ran (or what an operation returned)
/// and the simulated clock when it happened.
struct TraceEvent {
  int tag = 0;
  Seconds at = 0.0;
  bool operator==(const TraceEvent&) const = default;
};

/// Replays a seed-derived op script against an engine and records everything
/// observable. The script's decisions depend only on the Rng stream and op
/// index — never on engine internals — so both engines receive an identical
/// sequence of calls, and any behavioural difference shows up in the trace.
template <typename Engine>
std::vector<TraceEvent> replay_script(Engine& eng, std::uint64_t seed, int ops) {
  Rng rng(seed);
  std::vector<TraceEvent> trace;
  std::vector<EventId> ids;
  int next_tag = 1;
  for (int op = 0; op < ops; ++op) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.40) {
      // One-shot. Half the times are quantized to 0.5 s steps so distinct
      // schedules collide on the same timestamp and exercise the seq
      // tie-break.
      double t = eng.now() + rng.uniform(0.0, 10.0);
      if (rng.uniform(0.0, 1.0) < 0.5) t = 0.5 * static_cast<int>(t * 2.0);
      const int tag = next_tag++;
      ids.push_back(eng.schedule_at(
          t, [tag, &trace, &eng] { trace.push_back({tag, eng.now()}); }));
    } else if (roll < 0.50) {
      const double interval = rng.uniform(0.1, 2.0);
      auto left = static_cast<int>(rng.uniform_int(1, 8));
      const int tag = next_tag++;
      ids.push_back(eng.add_ticker(interval, [tag, left, &trace, &eng]() mutable {
        trace.push_back({tag, eng.now()});
        return --left > 0;
      }));
    } else if (roll < 0.70 && !ids.empty()) {
      const std::size_t pick = rng.uniform_int(0, ids.size() - 1);
      const bool ok = eng.cancel(ids[pick]);
      trace.push_back({ok ? -1 : -2, eng.now()});
      ids[pick] = ids.back();
      ids.pop_back();
    } else {
      const auto fired = eng.run_until(eng.now() + rng.uniform(0.0, 5.0));
      trace.push_back({-3 - static_cast<int>(fired), eng.now()});
    }
  }
  eng.run_until(eng.now() + 1e6);  // drain (tickers all self-stop)
  trace.push_back({0, eng.now()});
  return trace;
}

class SimulationDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SimulationDifferential, HeapMatchesMapReferenceOpForOp) {
  const auto seed = static_cast<std::uint64_t>(0x5EED0000 + GetParam());
  // 4 script instances x 25k ops = 100k randomized schedule/cancel/ticker ops.
  constexpr int kOps = 25000;

  Simulation heap_eng;
  const auto heap_trace = replay_script(heap_eng, seed, kOps);
  RefSim map_eng;
  const auto map_trace = replay_script(map_eng, seed, kOps);

  ASSERT_EQ(heap_trace.size(), map_trace.size());
  for (std::size_t i = 0; i < heap_trace.size(); ++i) {
    ASSERT_EQ(heap_trace[i], map_trace[i]) << "first divergence at trace index " << i;
  }
  EXPECT_DOUBLE_EQ(heap_eng.now(), map_eng.now());
  EXPECT_EQ(heap_eng.pending_events(), map_eng.pending_events());
  EXPECT_EQ(heap_eng.counters().scheduled, map_eng.counters().scheduled);
  EXPECT_EQ(heap_eng.counters().fired, map_eng.counters().fired);
  EXPECT_EQ(heap_eng.counters().cancelled, map_eng.counters().cancelled);
  EXPECT_EQ(heap_eng.counters().ticks, map_eng.counters().ticks);
  EXPECT_EQ(heap_eng.counters().peak_queue, map_eng.counters().peak_queue);
}

INSTANTIATE_TEST_SUITE_P(RandomScripts, SimulationDifferential, ::testing::Range(0, 4));

// Heavy lazy-cancellation pressure: most scheduled events die before firing,
// so the heap crosses its tombstone-compaction threshold many times. The
// survivors must still fire in exact (time, seq) order.
TEST(Simulation, CompactionPreservesOrderUnderMassCancel) {
  Simulation sim;
  Rng rng(99);
  std::vector<EventId> doomed;
  std::vector<int> fired;
  std::vector<int> expected;
  std::vector<std::pair<double, int>> survivors;
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    if (i % 5 == 0) {
      survivors.push_back({t, i});
      sim.schedule_at(t, [i, &fired] { fired.push_back(i); });
    } else {
      doomed.push_back(sim.schedule_at(t, [] { FAIL() << "cancelled event fired"; }));
    }
  }
  for (const auto& id : doomed) EXPECT_TRUE(sim.cancel(id));
  std::stable_sort(survivors.begin(), survivors.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [t, i] : survivors) expected.push_back(i);
  sim.run_until();
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.counters().cancelled, doomed.size());
  EXPECT_EQ(sim.counters().fired, survivors.size());
}

// The slab recycles released slots: ids from a dead tenancy must never
// cancel the slot's next tenant.
TEST(Simulation, StaleIdDoesNotCancelRecycledSlot) {
  Simulation sim;
  bool fired = false;
  const auto old_id = sim.schedule_at(1.0, [] {});
  ASSERT_TRUE(sim.cancel(old_id));
  sim.schedule_at(2.0, [&] { fired = true; });  // reuses the released slot
  EXPECT_FALSE(sim.cancel(old_id));             // stale generation
  sim.run_until();
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace eadt::sim
