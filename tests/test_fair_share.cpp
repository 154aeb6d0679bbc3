#include "net/fair_share.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "util/rng.hpp"

namespace eadt::net {
namespace {

/// Bit pattern of a double: the equality the grouped arbiter and the pool
/// shortcut promise is on stored bits (-0.0 and +0.0 differ here).
std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

TEST(FairShare, EqualWeightsSplitEvenly) {
  std::vector<Demand> d(4, Demand{gbps(10.0), 1.0});
  const auto r = fair_share(gbps(8.0), d);
  for (double a : r.allocation) EXPECT_NEAR(a, gbps(2.0), 1.0);
  EXPECT_NEAR(r.total, gbps(8.0), 1.0);
}

TEST(FairShare, WeightsAreProportional) {
  std::vector<Demand> d{{gbps(10.0), 1.0}, {gbps(10.0), 3.0}};
  const auto r = fair_share(gbps(8.0), d);
  EXPECT_NEAR(r.allocation[0], gbps(2.0), 1.0);
  EXPECT_NEAR(r.allocation[1], gbps(6.0), 1.0);
}

TEST(FairShare, CapsAreRespectedAndRedistributed) {
  // Channel 0 can only take 1 Gbps; the leftover goes to the others.
  std::vector<Demand> d{{gbps(1.0), 1.0}, {gbps(10.0), 1.0}, {gbps(10.0), 1.0}};
  const auto r = fair_share(gbps(9.0), d);
  EXPECT_NEAR(r.allocation[0], gbps(1.0), 1.0);
  EXPECT_NEAR(r.allocation[1], gbps(4.0), 1.0);
  EXPECT_NEAR(r.allocation[2], gbps(4.0), 1.0);
}

TEST(FairShare, WorkConservingUnderCapacity) {
  std::vector<Demand> d{{gbps(1.0), 1.0}, {gbps(2.0), 1.0}};
  const auto r = fair_share(gbps(10.0), d);
  EXPECT_NEAR(r.allocation[0], gbps(1.0), 1.0);
  EXPECT_NEAR(r.allocation[1], gbps(2.0), 1.0);
  EXPECT_NEAR(r.total, gbps(3.0), 1.0);
}

TEST(FairShare, EmptyAndDegenerateInputs) {
  EXPECT_TRUE(fair_share(gbps(1.0), {}).allocation.empty());
  std::vector<Demand> d{{gbps(1.0), 1.0}};
  EXPECT_DOUBLE_EQ(fair_share(0.0, d).total, 0.0);
  std::vector<Demand> zero_cap{{0.0, 1.0}, {gbps(2.0), 1.0}};
  const auto r = fair_share(gbps(1.0), zero_cap);
  EXPECT_DOUBLE_EQ(r.allocation[0], 0.0);
  EXPECT_NEAR(r.allocation[1], gbps(1.0), 1.0);
}

TEST(FairShare, ZeroWeightGetsNothing) {
  std::vector<Demand> d{{gbps(5.0), 0.0}, {gbps(5.0), 1.0}};
  const auto r = fair_share(gbps(4.0), d);
  EXPECT_DOUBLE_EQ(r.allocation[0], 0.0);
  EXPECT_NEAR(r.allocation[1], gbps(4.0), 1.0);
}

// Property sweep: invariants hold for random demand sets.
class FairShareProperty : public ::testing::TestWithParam<int> {};

TEST_P(FairShareProperty, Invariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = static_cast<int>(rng.uniform_int(1, 24));
  std::vector<Demand> d;
  for (int i = 0; i < n; ++i) {
    d.push_back({rng.uniform(0.0, 5e9), rng.uniform(0.5, 4.0)});
  }
  const double capacity = rng.uniform(1e8, 2e10);
  const auto r = fair_share(capacity, d);

  ASSERT_EQ(r.allocation.size(), d.size());
  double sum = 0.0, cap_sum = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_GE(r.allocation[i], -1e-6);
    EXPECT_LE(r.allocation[i], d[i].cap + 1e-3);
    sum += r.allocation[i];
    cap_sum += d[i].cap;
  }
  EXPECT_LE(sum, capacity + 1e-3);
  // Work conservation: total equals min(capacity, sum of caps).
  EXPECT_NEAR(sum, std::min(capacity, cap_sum), std::max(1.0, sum * 1e-9));
  EXPECT_NEAR(sum, r.total, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(RandomDemands, FairShareProperty, ::testing::Range(0, 25));

// Raising one channel's weight (everything else fixed) must never reduce its
// allocation, and must never increase anyone else's.
TEST_P(FairShareProperty, WeightMonotonicity) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const int n = static_cast<int>(rng.uniform_int(2, 16));
  std::vector<Demand> d;
  for (int i = 0; i < n; ++i) {
    d.push_back({rng.uniform(1e8, 5e9), rng.uniform(0.5, 4.0)});
  }
  const double capacity = rng.uniform(1e8, 1e10);
  const auto base = fair_share(capacity, d);

  const auto bumped_idx = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
  d[bumped_idx].weight *= rng.uniform(1.5, 4.0);
  const auto bumped = fair_share(capacity, d);

  EXPECT_GE(bumped.allocation[bumped_idx], base.allocation[bumped_idx] - 1e-6);
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i == bumped_idx) continue;
    EXPECT_LE(bumped.allocation[i], base.allocation[i] + 1e-6);
  }
}

TEST(FairShare, AllZeroWeightsAllocateNothing) {
  std::vector<Demand> d{{gbps(5.0), 0.0}, {gbps(3.0), 0.0}};
  const auto r = fair_share(gbps(4.0), d);
  EXPECT_DOUBLE_EQ(r.total, 0.0);
  for (double a : r.allocation) EXPECT_DOUBLE_EQ(a, 0.0);
}

// Pin the all-zero-weight contract on BOTH dispatch paths: above the
// waterfill threshold the active set is non-empty but its weight sum is
// zero, so the waterlevel division must be guarded — the round allocates
// nothing (no NaNs, no infinities) instead of dividing by zero. Routed
// through fair_share_into and a full LinkArbiter round so the guard is
// checked where production traffic actually flows.
TEST(FairShare, AllZeroWeightsAboveThresholdAllocateNothing) {
  std::vector<Demand> d(kWaterfillThreshold * 3, Demand{gbps(2.0), 0.0});
  FairShareScratch scratch;
  std::vector<BitsPerSecond> alloc;
  const BitsPerSecond total = fair_share_into(gbps(40.0), d, alloc, scratch);
  EXPECT_DOUBLE_EQ(total, 0.0);
  for (double a : alloc) ASSERT_DOUBLE_EQ(a, 0.0);

  LinkArbiter arbiter;
  arbiter.begin_round(gbps(40.0));
  const std::vector<DemandGroup> groups{{gbps(2.0), 0.0, kWaterfillThreshold * 3}};
  const std::size_t slot = arbiter.submit_groups(groups);
  arbiter.allocate();
  EXPECT_DOUBLE_EQ(arbiter.total(), 0.0);
  for (double a : arbiter.slice(slot)) ASSERT_DOUBLE_EQ(a, 0.0);
}

TEST(FairShare, AllZeroCapsAllocateNothing) {
  std::vector<Demand> d{{0.0, 1.0}, {0.0, 2.0}};
  const auto r = fair_share(gbps(4.0), d);
  EXPECT_DOUBLE_EQ(r.total, 0.0);
  for (double a : r.allocation) EXPECT_DOUBLE_EQ(a, 0.0);
}

// The scratch-reusing entry point is the allocating one's hot twin: whatever
// state the scratch and output vectors carry over from previous (differently
// sized) calls, the result must be bit-for-bit what fair_share computes.
TEST(FairShare, ScratchReuseIsBitwiseIdentical) {
  Rng rng(4242);
  FairShareScratch scratch;
  std::vector<BitsPerSecond> alloc;
  for (int round = 0; round < 200; ++round) {
    const int n = static_cast<int>(rng.uniform_int(0, 32));
    std::vector<Demand> d;
    for (int i = 0; i < n; ++i) {
      // Include degenerate channels so the in-place survivor compaction runs.
      const double cap = rng.uniform(0.0, 1.0) < 0.1 ? 0.0 : rng.uniform(1e7, 5e9);
      const double weight = rng.uniform(0.0, 1.0) < 0.1 ? 0.0 : rng.uniform(0.1, 4.0);
      d.push_back({cap, weight});
    }
    const double capacity = rng.uniform(0.0, 1e10);
    const auto reference = fair_share(capacity, d);
    const double total = fair_share_into(capacity, d, alloc, scratch);
    ASSERT_EQ(alloc.size(), reference.allocation.size());
    for (std::size_t i = 0; i < alloc.size(); ++i) {
      ASSERT_EQ(alloc[i], reference.allocation[i]) << "round " << round << " ch " << i;
    }
    ASSERT_EQ(total, reference.total) << "round " << round;
  }
}

// --- grouped LinkArbiter rounds ----------------------------------------

/// One tenant's submission: its groups, sent either as groups or as the
/// per-flow expansion.
struct Submission {
  std::vector<DemandGroup> groups;
  bool grouped = true;
};

std::vector<Demand> expand(const std::vector<DemandGroup>& groups) {
  std::vector<Demand> flat;
  for (const auto& g : groups) {
    flat.insert(flat.end(), static_cast<std::size_t>(g.count), Demand{g.cap, g.weight});
  }
  return flat;
}

/// Runs one arbiter round over `tenants` and asserts every slice and the
/// total equal, bit for bit, the reference loop on the flattened round.
void expect_arbiter_matches_reference(BitsPerSecond capacity,
                                      const std::vector<Submission>& tenants,
                                      LinkArbiter& arbiter, const char* what) {
  std::vector<Demand> flat;
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> slots;
  arbiter.begin_round(capacity);
  for (const auto& t : tenants) {
    const auto e = expand(t.groups);
    offsets.push_back(flat.size());
    flat.insert(flat.end(), e.begin(), e.end());
    slots.push_back(t.grouped ? arbiter.submit_groups(t.groups) : arbiter.submit(e));
  }
  arbiter.allocate();

  FairShareScratch scratch;
  std::vector<BitsPerSecond> ref;
  const BitsPerSecond ref_total = fair_share_reference_into(capacity, flat, ref, scratch);
  ASSERT_EQ(bits(arbiter.total()), bits(ref_total)) << what;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const auto slice = arbiter.slice(slots[t]);
    const std::size_t members = (t + 1 < tenants.size() ? offsets[t + 1] : flat.size()) -
                                offsets[t];
    ASSERT_EQ(slice.size(), members) << what << ": tenant " << t;
    for (std::size_t i = 0; i < slice.size(); ++i) {
      ASSERT_EQ(bits(slice[i]), bits(ref[offsets[t] + i]))
          << what << ": tenant " << t << " flow " << i;
    }
  }
}

/// Tenants of a few groups each whose counts add up to exactly `members`.
std::vector<Submission> tenants_with_members(std::size_t members, Rng& rng) {
  std::vector<Submission> tenants;
  std::size_t left = members;
  while (left > 0) {
    Submission t;
    const int ng = static_cast<int>(rng.uniform_int(1, 4));
    for (int g = 0; g < ng && left > 0; ++g) {
      const auto count = std::min<std::uint64_t>(rng.uniform_int(1, 40), left);
      t.groups.push_back({rng.uniform(1e5, 1e9), static_cast<double>(rng.uniform_int(1, 4)),
                          count});
      left -= static_cast<std::size_t>(count);
    }
    tenants.push_back(std::move(t));
  }
  return tenants;
}

// The dispatch seam counts members, not groups: 511 members run the
// reference loop, 512 and 513 the group-cost solver, although each round is
// only a few dozen groups. Both sides must match the flattened reference.
TEST(LinkArbiterGrouped, ThresholdSeamCountsMembersNotGroups) {
  Rng rng(0x5EA3);
  LinkArbiter arbiter;
  for (const std::size_t members :
       {kWaterfillThreshold - 1, kWaterfillThreshold, kWaterfillThreshold + 1}) {
    for (int round = 0; round < 20; ++round) {
      const auto tenants = tenants_with_members(members, rng);
      std::size_t groups = 0;
      for (const auto& t : tenants) groups += t.groups.size();
      ASSERT_LT(groups, kWaterfillThreshold / 4);
      const double capacity = rng.uniform(1e8, 1e12);
      expect_arbiter_matches_reference(capacity, tenants, arbiter, "threshold seam");
    }
  }
}

// submit() and submit_groups() mix freely in one round, on both sides of
// the threshold; flat submissions merge with neighbouring groups exactly as
// their expansion would.
TEST(LinkArbiterGrouped, MixedFlatAndGroupedSubmissionsMatchReference) {
  Rng rng(0x313ED);
  LinkArbiter arbiter;
  for (const std::size_t members : {std::size_t{200}, std::size_t{3000}}) {
    for (int round = 0; round < 20; ++round) {
      auto tenants = tenants_with_members(members, rng);
      for (auto& t : tenants) t.grouped = rng.uniform01() < 0.5;
      // A run of identical demands straddling a flat/grouped boundary.
      tenants.push_back({{{gbps(1.0), 2.0, 3}}, false});
      tenants.push_back({{{gbps(1.0), 2.0, 5}}, true});
      const double capacity = rng.uniform(1e8, 1e12);
      expect_arbiter_matches_reference(capacity, tenants, arbiter, "mixed submissions");
    }
  }
}

// Zero-count groups contribute no members: slices keep their expansion's
// length (possibly zero) and the rest of the round is unaffected.
TEST(LinkArbiterGrouped, ZeroCountGroupsContributeNothing) {
  Rng rng(0x2E60);
  LinkArbiter arbiter;
  for (const std::size_t members : {std::size_t{100}, std::size_t{1200}}) {
    auto tenants = tenants_with_members(members, rng);
    for (auto& t : tenants) {
      t.groups.insert(t.groups.begin(), {rng.uniform(1e5, 1e9), 1.0, 0});
      t.groups.push_back({gbps(3.0), 2.0, 0});
    }
    tenants.insert(tenants.begin() + 1, Submission{{{gbps(2.0), 1.0, 0}}, true});
    tenants.push_back({{}, true});
    expect_arbiter_matches_reference(gbps(40.0), tenants, arbiter, "zero-count groups");
  }
}

// Every active demand has zero weight: the round's weight sum is zero above
// the threshold too, so the grouped solve allocates nothing, bit for bit.
TEST(LinkArbiterGrouped, AllZeroWeightRoundAboveThresholdMatchesReference) {
  Rng rng(0x0E16);
  LinkArbiter arbiter;
  auto tenants = tenants_with_members(kWaterfillThreshold * 2, rng);
  for (auto& t : tenants) {
    for (auto& g : t.groups) g.weight = 0.0;
  }
  expect_arbiter_matches_reference(gbps(40.0), tenants, arbiter, "all-zero weights");
  EXPECT_EQ(arbiter.total(), 0.0);
}

// --- the round-1 fit check ----------------------------------------------

// fair_share_fits may only answer true when the reference hands every
// demand exactly its cap — over inputs that include every degenerate value
// the reference treats specially — and must answer true often enough to be
// worth calling.
TEST(FairShareFits, TrueOnlyWhenTheReferenceReturnsTheCapsBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double special_caps[] = {0.0, -0.0, -gbps(1.0), nan, inf};
  const double special_weights[] = {0.0, -0.0, -1.0, nan, inf};
  const double special_capacities[] = {0.0, -gbps(1.0), 1e-9, 5e-10, nan, inf};
  Rng rng(0xF175);
  FairShareScratch scratch;
  std::vector<BitsPerSecond> ref;
  int fits = 0;
  int misfits = 0;
  for (int round = 0; round < 20000; ++round) {
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    std::vector<Demand> d;
    double cap_sum = 0.0;
    for (int i = 0; i < n; ++i) {
      double cap = rng.uniform(1e6, 1e9);
      double weight = rng.uniform01() < 0.5 ? 1.0 : static_cast<double>(rng.uniform_int(1, 4));
      if (rng.uniform01() < 0.04) cap = special_caps[rng.uniform_int(0, 4)];
      if (rng.uniform01() < 0.04) weight = special_weights[rng.uniform_int(0, 4)];
      d.push_back({cap, weight});
      if (cap > 0.0) cap_sum += cap;
    }
    double capacity = cap_sum * rng.uniform(0.5, 4.0 * std::max(1, n));
    if (rng.uniform01() < 0.05) capacity = special_capacities[rng.uniform_int(0, 5)];
    if (!fair_share_fits(capacity, d)) {
      ++misfits;
      continue;
    }
    ++fits;
    fair_share_reference_into(capacity, d, ref, scratch);
    ASSERT_EQ(ref.size(), d.size());
    for (std::size_t i = 0; i < d.size(); ++i) {
      ASSERT_EQ(bits(ref[i]), bits(d[i].cap))
          << "round " << round << " demand " << i << " cap=" << d[i].cap
          << " weight=" << d[i].weight << " capacity=" << capacity;
    }
  }
  EXPECT_GT(fits, 2000);
  EXPECT_GT(misfits, 2000);
}

// The boundary is the reference's own comparison: a cap exactly equal to
// its round-1 share fits, one ulp above it does not.
TEST(FairShareFits, BoundaryIsTheReferenceComparison) {
  const std::vector<Demand> even(4, Demand{gbps(1.0), 1.0});
  EXPECT_TRUE(fair_share_fits(gbps(4.0), even));
  EXPECT_FALSE(fair_share_fits(std::nextafter(gbps(4.0), 0.0), even));
  EXPECT_TRUE(fair_share_fits(gbps(1.0), {}));
  EXPECT_TRUE(fair_share_fits(0.0, std::vector<Demand>{{0.0, 1.0}, {0.0, 0.0}}));
  EXPECT_FALSE(fair_share_fits(gbps(1.0), std::vector<Demand>{{-0.0, 1.0}}));
  EXPECT_FALSE(fair_share_fits(1e-9, std::vector<Demand>{{1e-12, 1.0}}));
}

// A session decides each disk pool from a tally built while its channel
// caps are computed (unit weights, one add() per busy channel), not from the
// demand set. The two predicates must agree on every unit-weight set, over
// every cap the reference treats specially and capacities on both sides of
// its 1e-9 cut-off and of the exact round-1 share.
TEST(FairShareFits, UnitTallyAgreesWithTheDemandSetPredicate) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double special_caps[] = {0.0, -0.0, nan, inf, -inf, tiny, 1e-310, -1e-310,
                                 -gbps(1.0), 1e-9, 5e-10};
  const double special_capacities[] = {0.0,  -0.0, 1e-9, std::nextafter(1e-9, 0.0),
                                       std::nextafter(1e-9, 1.0), 5e-10, 2e-9, nan,
                                       inf,  -inf, tiny, -gbps(1.0)};
  constexpr int kSpecialCaps = sizeof special_caps / sizeof special_caps[0];
  constexpr int kSpecialCapacities = sizeof special_capacities / sizeof special_capacities[0];
  Rng rng(0x7A11E5);
  int fits = 0;
  int misfits = 0;
  for (int round = 0; round < 40000; ++round) {
    const int n = static_cast<int>(rng.uniform_int(0, 10));
    // Around the cut-off, caps are scaled down with the capacity.
    const double scale = rng.uniform01() < 0.2 ? 1e-18 : 1.0;
    std::vector<Demand> d;
    UnitDemandTally tally;
    double max_cap = 0.0;
    for (int i = 0; i < n; ++i) {
      double cap = rng.uniform(1e6, 1e9) * scale;
      if (rng.uniform01() < 0.1) cap = special_caps[rng.uniform_int(0, kSpecialCaps - 1)];
      d.push_back({cap, 1.0});
      tally.add(cap);
      if (cap > 0.0) max_cap = std::max(max_cap, cap);
    }
    double capacity = 0.0;
    const double pick = rng.uniform01();
    if (pick < 0.15) {
      capacity = special_capacities[rng.uniform_int(0, kSpecialCapacities - 1)];
    } else if (pick < 0.45 && tally.active > 0) {
      // The exact round-1 boundary, and one ulp either side of it.
      capacity = max_cap * static_cast<double>(tally.active);
      const double step = rng.uniform01();
      if (step < 1.0 / 3.0) capacity = std::nextafter(capacity, 0.0);
      if (step > 2.0 / 3.0) capacity = std::nextafter(capacity, inf);
    } else {
      capacity = max_cap * rng.uniform(0.5, 2.0 * std::max(1, n));
    }
    const bool expected = fair_share_fits(capacity, d);
    ASSERT_EQ(tally.fits(capacity), expected)
        << "round " << round << " n=" << n << " capacity=" << capacity
        << " max_cap=" << max_cap << " active=" << tally.active << " odd=" << tally.odd;
    ++(expected ? fits : misfits);
  }
  EXPECT_GT(fits, 5000);
  EXPECT_GT(misfits, 5000);
}

}  // namespace
}  // namespace eadt::net
