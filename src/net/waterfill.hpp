// Scalable weighted max-min waterfill solver.
//
// The progressive-filling loop in fair_share.cpp sweeps every surviving flow
// once per round, which is O(N * rounds) — fine for a session's dozens of
// channels, a bottleneck for a fleet of millions of per-request flows. This
// solver computes the same allocation two ways faster:
//
//   * a waterlevel path over ratio-ordered demands: each round caps a sorted
//     prefix instead of re-scanning every survivor. The order is built
//     lazily (heyp's partial-sort waterlevel): the first round sorts only
//     the demands inside its waterlevel band and later rounds sort the rest
//     only if they reach it, so a round in which nobody caps costs O(N) and
//     a capping cascade at most O(N log N) plus O(N) of prefix advancement;
//   * a "dist" entry point taking (demand, weight, count) groups, so a
//     tenant's k identical parallel streams cost one entry instead of k
//     (the heyp-agents ValCount idea) — per-round work drops from the flow
//     count to the group count.
//
// The contract is strict: allocations are BITWISE identical to the per-flow
// reference loop (fair_share_reference_into) on every input, dist mode
// included (a group behaves exactly like `count` contiguous copies of its
// demand). That matters because the reference feeds every golden in the
// repo. Floating-point addition is not associative, so the solver cannot
// simply sum in a different order; instead it
//
//   1. keeps the capacity residue exact by replaying the reference's
//      subtractions in (round, submission-index) order — cheap, because each
//      flow is subtracted at most once and k identical subtractions are a
//      k-fold scalar replay with no memory traffic;
//   2. tracks the reference's per-round weight resum with a certified error
//      interval: when every cap/no-cap decision is provably identical under
//      both interval endpoints, the round is resolved from the sorted prefix
//      alone; when any demand lands inside the uncertainty band (or any
//      input is non-finite), the round falls back to an exact index-order
//      replay of the reference sweep — identical by construction;
//   3. computes the terminal waterlevel (the only weight sum whose bits are
//      observable in the output) by exact replay.
//
// tests/test_waterfill.cpp is the differential battery enforcing bitwise
// equality on randomized grids; docs/MODEL.md §15 has the full argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace eadt::net {

/// One flow's offer into a max-min round (defined here so the solver is the
/// base layer; fair_share.hpp re-exports it to existing callers).
struct Demand {
  BitsPerSecond cap = 0.0;  ///< most this channel could use
  double weight = 1.0;      ///< share weight (parallel stream count)
};

/// `count` flows with identical (cap, weight), collapsed into one entry.
/// Semantically exactly `count` contiguous copies of the Demand — the dist
/// solver produces the allocation each of those copies would have received
/// from the per-flow reference, bit for bit.
struct DemandGroup {
  BitsPerSecond cap = 0.0;
  double weight = 1.0;
  std::uint64_t count = 1;
};

/// Reusable waterfill workspace + entry points. Like FairShareScratch, the
/// solver is cheap state, not a cache: results are identical whether it is
/// fresh or reused, and buffers keep their capacity across calls so
/// steady-state solving is allocation-free once warm.
class WaterfillSolver {
 public:
  /// Per-flow entry: allocation[i] for demands[i], bitwise identical to
  /// fair_share_reference_into on the same inputs. Internally collapses
  /// adjacent identical demands into groups, so duplicate-demand clusters
  /// (per-channel parallel streams, same-shape tenants) cost one entry.
  BitsPerSecond solve(BitsPerSecond capacity, std::span<const Demand> demands,
                      std::vector<BitsPerSecond>& allocation);

  /// Dist entry: allocation[g] is the per-member rate of groups[g] — the
  /// value each of its `count` flows would receive from the per-flow
  /// reference run on the expanded demand list (groups in order, members
  /// contiguous). Returns the reference's total, bit for bit.
  BitsPerSecond solve_dist(BitsPerSecond capacity,
                           std::span<const DemandGroup> groups,
                           std::vector<BitsPerSecond>& allocation);

  /// Introspection for tests and benches: how the last solve resolved.
  struct Stats {
    std::uint64_t rounds = 0;           ///< filling rounds executed
    std::uint64_t certified_rounds = 0; ///< resolved from the sorted prefix
    std::uint64_t exact_rounds = 0;     ///< fell back to index-order replay
    std::uint64_t ordered = 0;          ///< groups placed in (key, index) order
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  struct Group {
    double cap = 0.0;
    double weight = 0.0;
    std::uint64_t count = 0;
    double key = 0.0;  ///< fl(cap / weight), the sort ratio
    bool capped = false;
  };

  /// Shared core over groups_; writes per-group member rates into `out`
  /// (pre-sized, zeroed) and returns the replayed total.
  BitsPerSecond run(BitsPerSecond capacity, std::vector<BitsPerSecond>& out);

  /// Extends the sorted prefix order_[0, from): drops groups capped since,
  /// moves the remaining ids with key <= stop_key next (in (key, index)
  /// order) and returns the new prefix end. Every key left past it exceeds
  /// stop_key, so the prefix stays a prefix of the full sort.
  std::size_t extend_order(std::size_t from, double stop_key);

  /// Exact replay of the reference's per-round weight resum: index-ordered,
  /// k-fold per group, over the surviving active set.
  [[nodiscard]] double replay_weight_sum() const;

  std::vector<Group> groups_;
  std::vector<std::size_t> active_;        ///< surviving ids, index order
  std::vector<std::size_t> order_;         ///< active ids, sorted prefix first
  std::vector<std::size_t> round_capped_;  ///< this round's certified prefix
  std::vector<BitsPerSecond> group_out_;   ///< per-group rates before expansion
  bool force_exact_ = false;               ///< non-finite input: replay only
  Stats stats_;
};

}  // namespace eadt::net
