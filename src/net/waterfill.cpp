#include "net/waterfill.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eadt::net {
namespace {

// Certification margins. kSlop is the multiplicative guard band around the
// waterlevel interval — orders of magnitude wider than the few-ulp rounding
// it must absorb (2^-52 ~ 2.2e-16) and orders of magnitude narrower than
// real demand gaps, so certified rounds are the overwhelmingly common case.
// kEps scales the tracked weight-resum error bound.
constexpr double kSlop = 1e-12;
constexpr double kEps = 2.3e-16;
// Ordering bound that admits every key: finite inputs give keys <= +inf.
constexpr double kWholeTail = std::numeric_limits<double>::infinity();

// k-fold sequential `s += v`, bitwise identical to the loop the reference
// runs over k contiguous identical flows. Early out: once fl(s + v) == s the
// addition is absorbed and every further repetition is a no-op with the
// same result.
inline double repeat_add(double s, double v, std::uint64_t k) {
  for (; k > 0; --k) {
    const double next = s + v;
    if (next == s) return s;
    s = next;
  }
  return s;
}

inline double repeat_sub(double s, double v, std::uint64_t k) {
  for (; k > 0; --k) {
    const double next = s - v;
    if (next == s) return s;
    s = next;
  }
  return s;
}

}  // namespace

std::size_t WaterfillSolver::extend_order(std::size_t from, double stop_key) {
  // Groups capped by an exact round since the tail was built never need a
  // position; drop them before ordering what is left.
  const auto tail = std::remove_if(order_.begin() + static_cast<std::ptrdiff_t>(from),
                                   order_.end(),
                                   [this](std::size_t g) { return groups_[g].capped; });
  order_.erase(tail, order_.end());
  const auto piece_end =
      std::partition(order_.begin() + static_cast<std::ptrdiff_t>(from), order_.end(),
                     [this, stop_key](std::size_t g) { return groups_[g].key <= stop_key; });
  std::sort(order_.begin() + static_cast<std::ptrdiff_t>(from), piece_end,
            [this](std::size_t a, std::size_t b) {
              if (groups_[a].key != groups_[b].key)
                return groups_[a].key < groups_[b].key;
              return a < b;
            });
  return static_cast<std::size_t>(piece_end - order_.begin());
}

double WaterfillSolver::replay_weight_sum() const {
  double w = 0.0;
  for (const std::size_t g : active_) {
    if (groups_[g].capped) continue;
    w = repeat_add(w, groups_[g].weight, groups_[g].count);
  }
  return w;
}

BitsPerSecond WaterfillSolver::run(BitsPerSecond capacity,
                                   std::vector<BitsPerSecond>& out) {
  stats_ = {};
  // Mirrors the reference's early return: no demands or no capacity leaves
  // the zeroed allocation untouched and skips the final accumulate.
  if (groups_.empty() || capacity <= 0.0) return 0.0;

  active_.clear();
  bool finite = std::isfinite(capacity);
  double member_total = 0.0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    auto& grp = groups_[g];
    grp.capped = false;
    if (!(grp.cap > 0.0 && grp.weight > 0.0) || grp.count == 0) continue;
    active_.push_back(g);
    grp.key = grp.cap / grp.weight;
    member_total += static_cast<double>(grp.count);
    finite = finite && std::isfinite(grp.cap) && std::isfinite(grp.weight);
  }
  force_exact_ = !finite;

  // order_ is sorted lazily: only [0, sorted) is in (key, index) order, and
  // every key past it exceeds every key before it, so the sorted part is
  // always a prefix of the full sort. Certified scans extend it only when
  // they run off its end: the first extension sorts just the keys that can
  // reach the current band, any later one sorts the whole remaining tail.
  std::size_t start = 0;
  std::size_t sorted = 0;
  bool partitioned = false;
  if (!force_exact_) {
    order_.assign(active_.begin(), active_.end());
  } else {
    order_.clear();
  }

  double remaining = capacity;  // exact at all times: replayed subtractions
  // w_tilde tracks the reference's per-round index-ordered weight resum. It
  // is never exact — seeded from per-group products (O(groups), not the
  // O(members) replay) — only bounded: the kEps * ops * scale budget covers
  // both the reference's member-by-member rounding and ours (ops counts the
  // resum additions on each side, doubled for headroom). Rounds whose
  // decisions need better than this bound replay the resum exactly.
  double w_tilde = 0.0;
  for (const std::size_t g : active_) {
    w_tilde += groups_[g].weight * static_cast<double>(groups_[g].count);
  }
  const double scale = 2.0 * w_tilde;
  double ops = 2.0 * member_total + 16.0;

  std::size_t live = active_.size();
  while (live > 0 && remaining > 1e-9) {
    ++stats_.rounds;
    const double err = kEps * ops * scale;
    bool exact = force_exact_ || !(w_tilde - err > 0.0);
    if (!exact) {
      // The reference's waterlevel this round lies in [pw_lo, pw_hi]; any
      // demand whose cap/no-cap decision is identical at both endpoints is
      // certified without replaying the resum.
      const double pw_lo = remaining / (w_tilde + err) * (1.0 - kSlop);
      const double pw_hi = remaining / (w_tilde - err) * (1.0 + kSlop);
      const double stop_key = pw_hi * (1.0 + kSlop);
      round_capped_.clear();
      std::size_t p = start;
      bool uncertain = false;
      bool extended = false;  // this round already ordered every key <= stop_key
      while (true) {
        if (p == sorted) {
          if (sorted == order_.size() || extended) break;
          sorted = extend_order(sorted, partitioned ? kWholeTail : stop_key);
          partitioned = extended = true;
          if (p == sorted) break;  // no remaining key reaches the band
        }
        const std::size_t g = order_[p];
        if (groups_[g].capped) {  // stale entry left behind by an exact round
          ++p;
          continue;
        }
        // Keys ascend, so the first one past the band clears the whole tail.
        if (groups_[g].key > stop_key) break;
        if (groups_[g].cap <= pw_lo * groups_[g].weight * (1.0 - kSlop)) {
          round_capped_.push_back(g);
          ++p;
          continue;
        }
        uncertain = true;
        break;
      }
      if (!uncertain) {
        ++stats_.certified_rounds;
        if (round_capped_.empty()) {
          // Certified: nobody caps. This is the reference's terminal round —
          // the one weight resum whose bits reach the output — so replay it
          // exactly and give each survivor its weighted waterlevel.
          const double w_exact = replay_weight_sum();
          if (w_exact <= 0.0) break;  // the reference's division guard
          const double pw = remaining / w_exact;
          for (const std::size_t g : active_) {
            if (!groups_[g].capped) out[g] = pw * groups_[g].weight;
          }
          break;
        }
        // Certified capped prefix: replay the reference's capacity
        // subtractions in submission-index order (ids are positions, so a
        // plain sort restores it), k-fold per group.
        std::sort(round_capped_.begin(), round_capped_.end());
        double removed = 0.0;
        for (const std::size_t g : round_capped_) {
          out[g] = groups_[g].cap;
          groups_[g].capped = true;
          remaining = repeat_sub(remaining, groups_[g].cap, groups_[g].count);
          removed += groups_[g].weight * static_cast<double>(groups_[g].count);
        }
        live -= round_capped_.size();
        start = p;
        w_tilde -= removed;
        ops += 4.0 + static_cast<double>(round_capped_.size());
        continue;
      }
      exact = true;
    }
    if (exact) {
      // Exact round: index-order replay of the reference sweep, op for op.
      // Also the only path non-finite inputs ever take.
      ++stats_.exact_rounds;
      const double w_exact = replay_weight_sum();
      if (w_exact <= 0.0) break;  // all-zero-weight guard, as the reference
      const double pw = remaining / w_exact;
      bool someone_capped = false;
      double removed = 0.0;
      for (const std::size_t g : active_) {
        auto& grp = groups_[g];
        if (grp.capped) continue;
        const double share = pw * grp.weight;
        if (grp.cap <= share) {  // headroom is cap - 0.0 == cap, bitwise
          out[g] = grp.cap;
          grp.capped = true;
          remaining = repeat_sub(remaining, grp.cap, grp.count);
          removed += grp.weight * static_cast<double>(grp.count);
          someone_capped = true;
          --live;
        }
      }
      if (!someone_capped) {
        for (const std::size_t g : active_) {
          if (!groups_[g].capped) out[g] = pw * groups_[g].weight;
        }
        break;
      }
      // Resync the tracked resum from this round's exact value.
      w_tilde = w_exact - removed;
      ops += 4.0 + static_cast<double>(active_.size());
    }
  }

  stats_.ordered = sorted;

  // The reference's final std::accumulate over the expanded allocation,
  // replayed k-fold in index order. All values are >= +0.0, so adding the
  // zeros of inactive or starved members never changes a bit — skip them.
  double total = 0.0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (out[g] != 0.0) total = repeat_add(total, out[g], groups_[g].count);
  }
  return total;
}

BitsPerSecond WaterfillSolver::solve(BitsPerSecond capacity,
                                     std::span<const Demand> demands,
                                     std::vector<BitsPerSecond>& allocation) {
  allocation.assign(demands.size(), 0.0);
  if (demands.empty() || capacity <= 0.0) return 0.0;
  // Run-length collapse: adjacent bitwise-identical demands form one group,
  // so duplicate-heavy flow lists (per-channel parallel streams, same-shape
  // tenants) solve at group cost. NaNs never compare equal, so they never
  // merge and take the exact-replay path untouched.
  groups_.clear();
  for (const Demand& d : demands) {
    if (!groups_.empty() && groups_.back().cap == d.cap &&
        groups_.back().weight == d.weight) {
      ++groups_.back().count;
    } else {
      groups_.push_back({d.cap, d.weight, 1});
    }
  }
  group_out_.assign(groups_.size(), 0.0);
  const BitsPerSecond total = run(capacity, group_out_);
  std::size_t i = 0;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (std::uint64_t k = 0; k < groups_[g].count; ++k) {
      allocation[i++] = group_out_[g];
    }
  }
  return total;
}

BitsPerSecond WaterfillSolver::solve_dist(BitsPerSecond capacity,
                                          std::span<const DemandGroup> groups,
                                          std::vector<BitsPerSecond>& allocation) {
  allocation.assign(groups.size(), 0.0);
  if (groups.empty() || capacity <= 0.0) return 0.0;
  groups_.clear();
  groups_.reserve(groups.size());
  for (const auto& g : groups) groups_.push_back({g.cap, g.weight, g.count});
  return run(capacity, allocation);
}

}  // namespace eadt::net
