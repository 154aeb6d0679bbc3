// Per-tick observer invariants: the series a SessionObserver sees integrates
// to the run's totals, and attaching one does not perturb the run.
#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "proto/session.hpp"
#include "test_env.hpp"

namespace eadt::proto {
namespace {

using testutil::mixed_dataset;
using testutil::small_env;
using testutil::TickRecorder;

TEST(TickRecorder, SeesEveryTickAndKeepsTimeMonotone) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  TickRecorder recorder;
  TransferSession session(env, ds, baselines::plan_promc(env, ds, 3));
  session.set_observer(&recorder);
  const auto r = session.run();
  ASSERT_TRUE(r.completed);

  ASSERT_FALSE(recorder.traces.empty());
  // One trace per 100 ms tick over the run's duration.
  EXPECT_NEAR(static_cast<double>(recorder.traces.size()), r.duration / 0.1, 2.0);
  Seconds prev = -1.0;
  for (const auto& t : recorder.traces) {
    EXPECT_GT(t.time, prev);
    prev = t.time;
    EXPECT_GE(t.end_system_power, 0.0);
    EXPECT_GE(t.open_channels, 0);
  }
}

TEST(TickRecorder, GoodputIntegratesToTheBytesMoved) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  TickRecorder recorder;
  TransferSession session(env, ds, baselines::plan_promc(env, ds, 3));
  session.set_observer(&recorder);
  const auto r = session.run();
  double bits = 0.0;
  for (const auto& t : recorder.traces) bits += t.goodput * 0.1;
  EXPECT_NEAR(bits, to_bits(r.bytes), to_bits(r.bytes) * 0.01);
}

TEST(TickRecorder, PowerIntegratesToTheEnergy) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  TickRecorder recorder;
  TransferSession session(env, ds, baselines::plan_promc(env, ds, 3));
  session.set_observer(&recorder);
  const auto r = session.run();
  Joules joules = 0.0;
  for (const auto& t : recorder.traces) joules += t.end_system_power * 0.1;
  EXPECT_NEAR(joules, r.end_system_energy, r.end_system_energy * 0.01);
}

TEST(TickRecorder, ObserverDoesNotPerturbTheRun) {
  const auto env = small_env();
  const auto ds = mixed_dataset();
  TransferSession plain(env, ds, baselines::plan_promc(env, ds, 3));
  const auto r_plain = plain.run();

  TickRecorder recorder;
  TransferSession observed(env, ds, baselines::plan_promc(env, ds, 3));
  observed.set_observer(&recorder);
  const auto r_obs = observed.run();

  EXPECT_DOUBLE_EQ(r_plain.duration, r_obs.duration);
  EXPECT_DOUBLE_EQ(r_plain.end_system_energy, r_obs.end_system_energy);
}

}  // namespace
}  // namespace eadt::proto
