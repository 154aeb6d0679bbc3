#include "net/fair_share.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace eadt::net {

BitsPerSecond fair_share_reference_into(BitsPerSecond capacity,
                                        std::span<const Demand> demands,
                                        std::vector<BitsPerSecond>& allocation,
                                        FairShareScratch& scratch) {
  allocation.assign(demands.size(), 0.0);
  if (demands.empty() || capacity <= 0.0) return 0.0;

  auto& active = scratch.active;
  active.clear();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i].cap > 0.0 && demands[i].weight > 0.0) active.push_back(i);
  }

  BitsPerSecond remaining = capacity;
  // Progressive filling: each round gives every active channel its weighted
  // share; channels that hit their cap leave, freeing capacity for the rest.
  // Terminates in <= |demands| rounds because each round removes >= 1 channel
  // or stops. Survivors are compacted toward the front of `active` in place
  // (index order preserved), so a round costs O(|active|) with no copies.
  while (!active.empty() && remaining > 1e-9) {
    double weight_sum = 0.0;
    for (std::size_t i : active) weight_sum += demands[i].weight;
    if (weight_sum <= 0.0) break;

    bool someone_capped = false;
    std::size_t survivors = 0;
    const BitsPerSecond per_weight = remaining / weight_sum;
    for (std::size_t k = 0; k < active.size(); ++k) {
      const std::size_t i = active[k];
      const BitsPerSecond share = per_weight * demands[i].weight;
      const BitsPerSecond headroom = demands[i].cap - allocation[i];
      if (headroom <= share) {
        allocation[i] = demands[i].cap;
        remaining -= headroom;
        someone_capped = true;
      } else {
        active[survivors++] = i;
      }
    }
    active.resize(survivors);
    if (!someone_capped) {
      // Nobody capped: everyone takes the fair share and we are done.
      for (std::size_t i : active) {
        allocation[i] += per_weight * demands[i].weight;
      }
      remaining = 0.0;
      break;
    }
  }

  return std::accumulate(allocation.begin(), allocation.end(), 0.0);
}

BitsPerSecond fair_share_into(BitsPerSecond capacity, std::span<const Demand> demands,
                              std::vector<BitsPerSecond>& allocation,
                              FairShareScratch& scratch) {
  if (demands.size() < kWaterfillThreshold) {
    return fair_share_reference_into(capacity, demands, allocation, scratch);
  }
  return scratch.solver.solve(capacity, demands, allocation);
}

bool fair_share_fits(BitsPerSecond capacity, std::span<const Demand> demands) {
  double weight_sum = 0.0;
  bool any_active = false;
  for (const Demand& d : demands) {
    if (d.cap > 0.0 && d.weight > 0.0) {
      weight_sum += d.weight;
      any_active = true;
    } else if (!(d.cap == 0.0 && !std::signbit(d.cap))) {
      return false;  // the reference leaves it at +0.0, not at its cap
    }
  }
  if (!any_active) return true;
  // Below this the reference never enters a round and hands out zeros.
  if (!(capacity > 1e-9) || !(weight_sum > 0.0)) return false;
  const BitsPerSecond per_weight = capacity / weight_sum;
  for (const Demand& d : demands) {
    if (d.cap > 0.0 && d.weight > 0.0 && !(d.cap <= per_weight * d.weight)) return false;
  }
  return true;
}

FairShareResult fair_share(BitsPerSecond capacity, std::span<const Demand> demands) {
  FairShareResult out;
  FairShareScratch scratch;
  out.total = fair_share_into(capacity, demands, out.allocation, scratch);
  return out;
}

void LinkArbiter::begin_round(BitsPerSecond capacity) {
  capacity_ = capacity;
  total_ = 0.0;
  members_ = 0;
  groups_.clear();
  ranges_.clear();
}

void LinkArbiter::append(BitsPerSecond cap, double weight, std::uint64_t count) {
  if (count == 0) return;
  members_ += static_cast<std::size_t>(count);
  // Run-length merge across submissions, the same collapse
  // WaterfillSolver::solve applies to a flat list: a group is exactly
  // `count` contiguous copies, so merging neighbours changes no rate.
  if (!groups_.empty() && groups_.back().cap == cap && groups_.back().weight == weight) {
    groups_.back().count += count;
  } else {
    groups_.push_back({cap, weight, count});
  }
}

std::size_t LinkArbiter::submit(std::span<const Demand> demands) {
  ranges_.push_back({members_, demands.size()});
  for (const Demand& d : demands) append(d.cap, d.weight, 1);
  return ranges_.size() - 1;
}

std::size_t LinkArbiter::submit_groups(std::span<const DemandGroup> groups) {
  const std::size_t offset = members_;
  for (const auto& g : groups) append(g.cap, g.weight, g.count);
  ranges_.push_back({offset, members_ - offset});
  return ranges_.size() - 1;
}

void LinkArbiter::allocate() {
  // Same dispatch as fair_share_into, on the member count: small rounds run
  // the reference loop over the expansion; larger ones solve at group cost
  // and expand only the per-group rates.
  if (members_ < kWaterfillThreshold) {
    demands_.resize(members_);
    auto flat = demands_.begin();
    for (const auto& g : groups_) {
      flat = std::fill_n(flat, static_cast<std::ptrdiff_t>(g.count), Demand{g.cap, g.weight});
    }
    total_ = fair_share_reference_into(capacity_, demands_, allocation_, scratch_);
    return;
  }
  total_ = scratch_.solver.solve_dist(capacity_, groups_, group_rates_);
  allocation_.resize(members_);
  auto out = allocation_.begin();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    out = std::fill_n(out, static_cast<std::ptrdiff_t>(groups_[g].count), group_rates_[g]);
  }
}

std::span<const BitsPerSecond> LinkArbiter::slice(std::size_t i) const {
  const Range& r = ranges_[i];
  return {allocation_.data() + r.offset, r.count};
}

}  // namespace eadt::net
