// Weighted max-min fair bandwidth allocation.
//
// Each data channel offers a demand (its own CPU/disk/window cap) and a weight
// (its parallel stream count); the bottleneck capacity is divided by
// progressive filling: channels that cannot use their fair share are capped
// and the residue is redistributed.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "net/waterfill.hpp"
#include "util/units.hpp"

namespace eadt::net {

// Demand and DemandGroup live in waterfill.hpp (the solver is the base
// layer); this header re-exports them to the existing call sites.

struct FairShareResult {
  std::vector<BitsPerSecond> allocation;  ///< per-demand rate, same order
  BitsPerSecond total = 0.0;              ///< sum of allocations
};

/// Reusable workspace for fair_share_into. The allocator runs every tick for
/// every disk pool and the shared link; holding the round-robin active set
/// (and, for large rounds, the waterfill solver's buffers) here — capacity
/// preserved across calls — makes steady-state allocation heap-free. A
/// scratch is cheap state, not a cache: results are identical whether it is
/// fresh or reused.
struct FairShareScratch {
  std::vector<std::size_t> active;
  WaterfillSolver solver;
};

/// The pinned per-flow progressive-filling loop — the semantics every golden
/// in the repo was recorded against, kept verbatim. fair_share_into routes
/// small rounds here directly; WaterfillSolver is bitwise-equivalent to this
/// on every input (enforced by tests/test_waterfill.cpp), and the core_micro
/// bench races the solver against it at 10^5-10^6 flows.
BitsPerSecond fair_share_reference_into(BitsPerSecond capacity,
                                        std::span<const Demand> demands,
                                        std::vector<BitsPerSecond>& allocation,
                                        FairShareScratch& scratch);

/// Weighted max-min fair allocation of `capacity` across `demands`, written
/// into `allocation` (resized to demands.size(); previous contents ignored).
/// Returns the total. Bitwise-identical to fair_share() — same values out,
/// whatever the path — and allocation-free once `allocation` and `scratch`
/// have warmed to capacity. Small rounds run the reference loop; rounds of
/// kWaterfillThreshold or more demands run the ratio-sorted waterfill solver
/// (bitwise-identical by contract, and far cheaper when demands repeat).
BitsPerSecond fair_share_into(BitsPerSecond capacity, std::span<const Demand> demands,
                              std::vector<BitsPerSecond>& allocation,
                              FairShareScratch& scratch);

/// True when the reference loop would hand every demand exactly its cap, so
/// a caller clamping caps to the allocation can skip the round: each active
/// demand (cap > 0, weight > 0) caps in the first filling round — cap <= the
/// round-1 share, from the same index-order weight sum over active demands
/// the reference computes — and every other demand's cap is +0.0, the zero
/// the reference leaves it. Bit for bit: whenever this returns true,
/// fair_share_reference_into's allocation equals the caps.
[[nodiscard]] bool fair_share_fits(BitsPerSecond capacity,
                                   std::span<const Demand> demands);

/// What fair_share_fits needs to know about a demand set whose weights are
/// all 1.0, gathered one cap at a time (a session's disk pool, built while
/// its channel caps are computed). `active` counts the caps > 0 and
/// `max_cap` is the largest of them; `odd` flags a cap that is neither > 0
/// nor +0.0 (-0.0, a negative, NaN), which the reference does not hand back.
struct UnitDemandTally {
  int active = 0;
  bool odd = false;
  BitsPerSecond max_cap = 0.0;

  void add(BitsPerSecond cap) noexcept {
    if (cap > 0.0) {
      ++active;
      max_cap = std::max(max_cap, cap);
    } else if (!(cap == 0.0 && !std::signbit(cap))) {
      odd = true;
    }
  }
  /// Exactly fair_share_fits(capacity, set) for the unit-weight set tallied.
  /// Unit weights sum to `active` exactly, so the round-1 share is
  /// capacity / active, and every active cap fits under it iff the largest
  /// does (no active cap is NaN).
  [[nodiscard]] bool fits(BitsPerSecond capacity) const noexcept {
    if (odd) return false;
    if (active == 0) return true;
    return capacity > 1e-9 && max_cap <= capacity / static_cast<double>(active);
  }
};

/// Demand count at which fair_share_into switches from the reference loop to
/// the waterfill solver. Session-sized rounds (dozens of channels) stay on
/// the sweep — sorting them would cost more than it saves; fleet-sized
/// arbiter rounds cross the threshold and solve at group cost.
inline constexpr std::size_t kWaterfillThreshold = 512;

/// Weighted max-min fair allocation of `capacity` across `demands`.
/// Properties (asserted by tests):
///   * allocation[i] <= demands[i].cap
///   * total <= capacity (+ epsilon)
///   * work-conserving: total == min(capacity, sum of caps)
///   * unconstrained channels receive rate proportional to weight
[[nodiscard]] FairShareResult fair_share(BitsPerSecond capacity,
                                         std::span<const Demand> demands);

/// Joint arbitration of one shared link across several demand sets (the
/// multi-tenant round of exp::Scheduler): each tenant session submits its
/// per-channel demands, then allocate() runs ONE weighted max-min round over
/// the concatenation, so channels of different tenants contend exactly like
/// channels of one session — stream-count weighted, work-conserving, with no
/// per-tenant reservations. slice(i) returns tenant i's view of the result
/// in submission order. Buffers are reused across rounds (allocation-free
/// once warm, like FairShareScratch). Submissions are stored as run-length
/// collapsed groups; rounds of kWaterfillThreshold or more members solve
/// through WaterfillSolver::solve_dist — bitwise-identical, but a fleet of
/// same-shape tenants costs per-group, not per-flow — and smaller rounds run
/// the reference loop over the expansion.
class LinkArbiter {
 public:
  /// Start a round. Earlier submissions are discarded.
  void begin_round(BitsPerSecond capacity);
  /// Add one tenant's demands; returns the tenant's slice index.
  std::size_t submit(std::span<const Demand> demands);
  /// Add one tenant's demands as (cap, weight, count) groups — each group
  /// contributes `count` contiguous identical flows to the round, exactly as
  /// if submit() had been called with the expansion. The slice stays
  /// per-flow (member-aligned with the expansion).
  std::size_t submit_groups(std::span<const DemandGroup> groups);
  /// Run the joint fair-share round. Call once per round, after all submits.
  void allocate();
  /// Tenant `i`'s slice of the joint allocation (valid until the next
  /// begin_round). Aligned with the demands it submitted.
  [[nodiscard]] std::span<const BitsPerSecond> slice(std::size_t i) const;
  [[nodiscard]] BitsPerSecond capacity() const noexcept { return capacity_; }
  [[nodiscard]] BitsPerSecond total() const noexcept { return total_; }
  /// How the last round of kWaterfillThreshold or more members resolved;
  /// smaller rounds run the reference loop and leave it untouched.
  [[nodiscard]] const WaterfillSolver::Stats& solver_stats() const noexcept {
    return scratch_.solver.stats();
  }

 private:
  struct Range {
    std::size_t offset = 0;  ///< first member, in round-wide member order
    std::size_t count = 0;
  };
  /// Appends `count` members, merging into the previous group when equal.
  void append(BitsPerSecond cap, double weight, std::uint64_t count);

  BitsPerSecond capacity_ = 0.0;
  BitsPerSecond total_ = 0.0;
  std::size_t members_ = 0;
  std::vector<DemandGroup> groups_;  ///< the round, run-length collapsed
  std::vector<Range> ranges_;
  std::vector<Demand> demands_;            ///< expansion, small rounds only
  std::vector<BitsPerSecond> group_rates_; ///< per-group rates, large rounds
  std::vector<BitsPerSecond> allocation_;  ///< per-member rates slice() serves
  FairShareScratch scratch_;
};

}  // namespace eadt::net
