#include "net/tcp_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace eadt::net {
namespace {

PathSpec xsede_path() { return {gbps(10.0), 0.040, 32 * kMB, 1500}; }
PathSpec lan_path() { return {gbps(1.0), 0.0002, 32 * kMB, 1500}; }

TEST(TcpModel, WindowCapIsBufferOverRtt) {
  // 32 MiB / 40 ms = 6.7 Gbps: one stream cannot fill a 10 Gbps pipe —
  // exactly why the tuner picks parallelism 2 on XSEDE.
  const auto cap = stream_window_cap(xsede_path());
  EXPECT_NEAR(to_gbps(cap), 6.71, 0.02);
  EXPECT_LT(cap, gbps(10.0));
}

TEST(TcpModel, WindowCapNeverExceedsLink) {
  // On the LAN the window limit is enormous; the link must cap it.
  EXPECT_DOUBLE_EQ(stream_window_cap(lan_path()), gbps(1.0));
}

TEST(TcpModel, ZeroRttMeansLinkRate) {
  PathSpec p{gbps(5.0), 0.0, 1 * kMB, 1500};
  EXPECT_DOUBLE_EQ(stream_window_cap(p), gbps(5.0));
}

TEST(TcpModel, SlowStartGrowsWithFileSizeAndRtt) {
  const auto p = xsede_path();
  const Seconds small = slow_start_penalty(p, 3 * kMB, 0.0);
  const Seconds large = slow_start_penalty(p, 400 * kMB, 0.0);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);
  // Penalty saturates at the BDP: beyond it the window is fully open.
  const Seconds huge = slow_start_penalty(p, 20 * kGB, 0.0);
  EXPECT_DOUBLE_EQ(huge, large >= huge ? huge : huge);  // monotone, bounded
  EXPECT_LE(huge, p.rtt * 12.0);
}

TEST(TcpModel, SlowStartNegligibleOnLan) {
  EXPECT_LT(slow_start_penalty(lan_path(), 1 * kGB, 0.0), 0.01);
}

TEST(TcpModel, WarmFractionReducesPenalty) {
  const auto p = xsede_path();
  const Seconds cold = slow_start_penalty(p, 100 * kMB, 0.0);
  const Seconds warm = slow_start_penalty(p, 100 * kMB, 0.5);
  const Seconds hot = slow_start_penalty(p, 100 * kMB, 1.0);
  EXPECT_GT(cold, warm);
  EXPECT_GT(warm, hot);
  EXPECT_DOUBLE_EQ(hot, 0.0);
  // A fully (or over-) warm channel gets the formula's own +0.0; a NaN warm
  // fraction is not clamped away and still poisons the result.
  EXPECT_FALSE(std::signbit(hot));
  EXPECT_EQ(slow_start_penalty(p, 100 * kMB, 1.5), 0.0);
  EXPECT_TRUE(std::isnan(slow_start_penalty(p, 100 * kMB, std::nan(""))));
}

TEST(TcpModel, TinyFilesPayNoSlowStart) {
  EXPECT_DOUBLE_EQ(slow_start_penalty(xsede_path(), 32 * kKB, 0.0), 0.0);
}

TEST(TcpModel, ControlGapAmortizedByPipelining) {
  const auto p = xsede_path();
  EXPECT_DOUBLE_EQ(control_gap_per_file(p, 1), 0.040);
  EXPECT_DOUBLE_EQ(control_gap_per_file(p, 4), 0.010);
  EXPECT_DOUBLE_EQ(control_gap_per_file(p, 0), 0.040);  // clamps to 1
}

TEST(Congestion, NoPenaltyUnderCapacity) {
  CongestionSpec c;
  EXPECT_DOUBLE_EQ(congestion_efficiency(c, gbps(5.0), gbps(10.0), 8), 1.0);
}

TEST(Congestion, OversubscriptionDegradesGoodput) {
  CongestionSpec c;
  const double e1 = congestion_efficiency(c, gbps(12.0), gbps(10.0), 8);
  const double e2 = congestion_efficiency(c, gbps(30.0), gbps(10.0), 8);
  EXPECT_LT(e1, 1.0);
  EXPECT_LT(e2, e1);
  EXPECT_GT(e2, 0.0);
}

TEST(Congestion, ManyStreamsAddOverhead) {
  CongestionSpec c;
  const double few = congestion_efficiency(c, gbps(5.0), gbps(10.0), c.stream_knee);
  const double many = congestion_efficiency(c, gbps(5.0), gbps(10.0), c.stream_knee * 3);
  EXPECT_DOUBLE_EQ(few, 1.0);
  EXPECT_LT(many, 1.0);
}

TEST(Congestion, DisabledKnobsAreNeutral) {
  CongestionSpec c;
  c.loss_beta = 0.0;
  c.stream_beta = 0.0;
  EXPECT_DOUBLE_EQ(congestion_efficiency(c, gbps(100.0), gbps(1.0), 500), 1.0);
}

TEST(PathSpec, BdpHelper) {
  EXPECT_EQ(xsede_path().bdp(), 50'000'000ULL);
}

}  // namespace
}  // namespace eadt::net
