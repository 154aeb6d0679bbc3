#include "power/device.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

namespace eadt::power {
namespace {

TEST(DeviceCurves, LinearShape) {
  LinearDevicePower m(100.0, 50.0);
  EXPECT_DOUBLE_EQ(m.power(0.0), 100.0);
  EXPECT_DOUBLE_EQ(m.power(0.5), 125.0);
  EXPECT_DOUBLE_EQ(m.power(1.0), 150.0);
  EXPECT_DOUBLE_EQ(m.power(2.0), 150.0);  // clamps
  EXPECT_DOUBLE_EQ(m.idle(), 100.0);
  EXPECT_DOUBLE_EQ(m.dynamic_power(0.5), 25.0);
}

TEST(DeviceCurves, NonLinearIsSubLinear) {
  NonLinearDevicePower m(100.0, 50.0);
  // sqrt shape: at 25 % load the device already draws 50 % of max dynamic.
  EXPECT_DOUBLE_EQ(m.power(0.25), 125.0);
  EXPECT_DOUBLE_EQ(m.power(1.0), 150.0);
  // Dynamic power grows slower than rate: p(4x)/p(x) == 2 for x, 4x <= 1.
  EXPECT_NEAR(m.dynamic_power(0.8) / m.dynamic_power(0.2), 2.0, 1e-9);
}

TEST(DeviceCurves, StateBasedSteps) {
  StateBasedDevicePower m(80.0, {{0.75, 30.0}, {0.25, 10.0}, {0.5, 20.0}});
  EXPECT_DOUBLE_EQ(m.power(0.0), 80.0);
  EXPECT_DOUBLE_EQ(m.power(0.10), 80.0);
  EXPECT_DOUBLE_EQ(m.power(0.30), 90.0);
  EXPECT_DOUBLE_EQ(m.power(0.60), 100.0);
  EXPECT_DOUBLE_EQ(m.power(0.90), 110.0);
}

// Section 4's analytic argument, as executable properties.
TEST(Section4, LinearModelMakesEnergyRateInvariant) {
  LinearDevicePower m(100.0, 60.0);
  const Bytes data = 10 * kGB;
  const Joules slow = device_transfer_energy(m, data, gbps(1.0), gbps(10.0));
  const Joules fast = device_transfer_energy(m, data, gbps(4.0), gbps(10.0));
  EXPECT_NEAR(slow, fast, slow * 1e-9);
}

TEST(Section4, SubLinearModelRewardsFasterTransfers) {
  NonLinearDevicePower m(100.0, 60.0);
  const Bytes data = 10 * kGB;
  const Joules slow = device_transfer_energy(m, data, gbps(1.0), gbps(10.0));
  const Joules fast = device_transfer_energy(m, data, gbps(4.0), gbps(10.0));
  // Quadrupling the rate halves the energy (sqrt relation).
  EXPECT_NEAR(fast, slow / 2.0, slow * 1e-9);
}

TEST(Section4, IdleInclusionAlwaysFavoursFaster) {
  LinearDevicePower m(100.0, 60.0);
  const Bytes data = 10 * kGB;
  const Joules slow = device_transfer_energy(m, data, gbps(1.0), gbps(10.0), true);
  const Joules fast = device_transfer_energy(m, data, gbps(4.0), gbps(10.0), true);
  EXPECT_GT(slow, fast);  // idle watts accrue for the whole duration
}

TEST(Section4, DegenerateTransfers) {
  LinearDevicePower m(100.0, 60.0);
  EXPECT_DOUBLE_EQ(device_transfer_energy(m, 0, gbps(1.0), gbps(10.0)), 0.0);
  EXPECT_DOUBLE_EQ(device_transfer_energy(m, 1 * kGB, 0.0, gbps(10.0)), 0.0);
}

TEST(Table1, CoefficientsMatchPaper) {
  const auto ent = per_packet_coefficients(net::DeviceKind::kEnterpriseSwitch);
  EXPECT_DOUBLE_EQ(ent.pp_nj, 40.0);
  EXPECT_DOUBLE_EQ(ent.psf_pj_per_byte, 0.42);
  const auto edge = per_packet_coefficients(net::DeviceKind::kEdgeSwitch);
  EXPECT_DOUBLE_EQ(edge.pp_nj, 1571.0);
  EXPECT_DOUBLE_EQ(edge.psf_pj_per_byte, 14.1);
  const auto metro = per_packet_coefficients(net::DeviceKind::kMetroRouter);
  EXPECT_DOUBLE_EQ(metro.pp_nj, 1375.0);
  EXPECT_DOUBLE_EQ(metro.psf_pj_per_byte, 21.6);
  const auto er = per_packet_coefficients(net::DeviceKind::kEdgeRouter);
  EXPECT_DOUBLE_EQ(er.pp_nj, 1707.0);
  EXPECT_DOUBLE_EQ(er.psf_pj_per_byte, 15.3);
}

TEST(Table1, MetroRoutersAreTheExpensiveHops) {
  const Bytes mtu = 1500;
  const Joules metro = per_packet_energy(net::DeviceKind::kMetroRouter, mtu);
  const Joules ent = per_packet_energy(net::DeviceKind::kEnterpriseSwitch, mtu);
  EXPECT_GT(metro, ent * 10.0);
}

TEST(RouteEnergy, ScalesWithBytesAndDeviceChain) {
  const auto xsede = net::xsede_route();
  const auto didclab = net::didclab_route();
  const Joules e1 = route_transfer_energy(xsede, 1 * kGB, 1500);
  const Joules e2 = route_transfer_energy(xsede, 2 * kGB, 1500);
  EXPECT_NEAR(e2, 2.0 * e1, e1 * 0.01);
  // A LAN with one switch costs far less than the six-device WAN chain.
  EXPECT_LT(route_transfer_energy(didclab, 1 * kGB, 1500), e1 / 2.0);
  EXPECT_DOUBLE_EQ(route_transfer_energy(xsede, 0, 1500), 0.0);
  EXPECT_DOUBLE_EQ(route_transfer_energy(xsede, 1 * kGB, 0), 0.0);
}

TEST(RouteEnergy, FuturegridPerByteCostExceedsXsede) {
  // Per Figure 10: the metro-router path makes FutureGrid's *network* energy
  // per byte the highest of the three testbeds.
  const Joules fg = route_transfer_energy(net::futuregrid_route(), 1 * kGB, 1500);
  const Joules xs = route_transfer_energy(net::xsede_route(), 1 * kGB, 1500);
  EXPECT_GT(fg, 0.0);
  EXPECT_GT(xs, 0.0);
  // FutureGrid: 2 edge switches + 3 metro routers vs XSEDE's chain.
  EXPECT_LT(std::abs(fg / xs - (2 * 1571.0 + 3 * 1375.0 + /*psf*/ 0.0) /
                                  (2 * 40.0 + 2 * 1571.0 + 2 * 1707.0)),
            0.2);
}


TEST(RouteEnergy, ByKindBreakdownSumsToTotal) {
  const auto route = net::xsede_route();
  const Bytes bytes = 10 * kGB;
  const auto parts = route_transfer_energy_by_kind(route, bytes, 1500);
  ASSERT_EQ(parts.size(), 3u);  // edge-switch, enterprise-switch, edge-router
  Joules sum = 0.0;
  for (const auto& p : parts) sum += p.joules;
  EXPECT_NEAR(sum, route_transfer_energy(route, bytes, 1500), 1e-6);
}

TEST(RouteEnergy, ByKindAggregatesDuplicates) {
  const auto parts =
      route_transfer_energy_by_kind(net::futuregrid_route(), 1 * kGB, 1500);
  ASSERT_EQ(parts.size(), 2u);
  for (const auto& p : parts) {
    if (p.kind == net::DeviceKind::kMetroRouter) {
      // Three metro routers fold into one entry worth 3x a single hop.
      const double single =
          std::ceil(static_cast<double>(1 * kGB) / 1500.0) *
          per_packet_energy(net::DeviceKind::kMetroRouter, 1500);
      EXPECT_NEAR(p.joules, 3.0 * single, single * 1e-9);
    }
  }
}

// A session sums the per-packet chain once and prices each tick's bytes
// with it; that must be the route walk's arithmetic, bit for bit.
TEST(RouteEnergy, HoistedChainIsBitwiseTheRouteWalk) {
  const net::Route routes[] = {net::xsede_route(), net::futuregrid_route(),
                               net::didclab_route(), net::Route{}};
  const Bytes bytes_list[] = {0, 1, 1499, 1500, 1501, 9000, 123456789, 10 * kGB,
                              (1ULL << 53) + 1};
  for (const auto& route : routes) {
    for (const Bytes mtu : {Bytes{0}, Bytes{1}, Bytes{576}, Bytes{1500}, Bytes{9000},
                            Bytes{65536}}) {
      const Joules chain = route_packet_chain_energy(route, mtu);
      for (const Bytes bytes : bytes_list) {
        // The per-call walk as it read before the chain was hoisted.
        Joules walk = 0.0;
        if (bytes != 0 && mtu != 0) {
          const double packets =
              std::ceil(static_cast<double>(bytes) / static_cast<double>(mtu));
          Joules per_packet_chain = 0.0;
          for (const auto& dev : route.devices()) {
            per_packet_chain += per_packet_energy(dev.kind, mtu);
          }
          walk = packets * per_packet_chain;
        }
        const Joules hoisted = packet_chain_energy(chain, bytes, mtu);
        const Joules whole = route_transfer_energy(route, bytes, mtu);
        EXPECT_EQ(std::memcmp(&hoisted, &walk, sizeof walk), 0)
            << "bytes=" << bytes << " mtu=" << mtu << ": " << hoisted << " vs " << walk;
        EXPECT_EQ(std::memcmp(&whole, &walk, sizeof walk), 0)
            << "bytes=" << bytes << " mtu=" << mtu << ": " << whole << " vs " << walk;
      }
    }
  }
}

TEST(RouteEnergy, ByKindEmptyInputs) {
  EXPECT_TRUE(route_transfer_energy_by_kind(net::Route{}, 1 * kGB, 1500).empty());
  EXPECT_TRUE(route_transfer_energy_by_kind(net::xsede_route(), 0, 1500).empty());
}

}  // namespace
}  // namespace eadt::power
