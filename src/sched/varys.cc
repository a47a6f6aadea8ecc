#include "sched/varys.h"

#include <algorithm>
#include <vector>

namespace aalo::sched {

util::Seconds VarysScheduler::effectiveBottleneck(const sim::SimView& view,
                                                  const ActiveCoflow& group) {
  fabric::MaxMinScratch scratch;
  return coflowBottleneck(view, group, fabric::ResidualCapacity(*view.fabric),
                          scratch, remainingBytes)
      .gamma;
}

bool VarysScheduler::admitted(const sim::SimView& view,
                              std::size_t coflow_index) const {
  return view.coflow(coflow_index).release_time + config_.admission_delay <=
         view.now + util::kEps;
}

util::Seconds VarysScheduler::nextWakeup(const sim::SimView& view) {
  if (config_.admission_delay <= 0) return sim::kInfTime;
  util::Seconds earliest = sim::kInfTime;
  for (const ActiveCoflow& group : view.active_index->groups()) {
    if (!admitted(view, group.coflow_index)) {
      earliest = std::min(earliest, view.coflow(group.coflow_index).release_time +
                                        config_.admission_delay);
    }
  }
  return earliest;
}

void VarysScheduler::allocate(const sim::SimView& view, std::vector<util::Rate>& rates) {
  const std::vector<ActiveCoflow>& all_groups = view.active_index->groups();
  // Unadmitted coflows (still inside the centralized scheduling delay)
  // may not send at all.
  std::vector<const ActiveCoflow*> groups;
  groups.reserve(all_groups.size());
  for (const ActiveCoflow& g : all_groups) {
    if (admitted(view, g.coflow_index)) groups.push_back(&g);
  }

  // SEBF: smallest effective bottleneck first (ties by id for stability).
  std::vector<util::Seconds> gamma(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    gamma[g] = effectiveBottleneck(view, *groups[g]);
  }
  std::vector<std::size_t> order(groups.size());
  for (std::size_t g = 0; g < order.size(); ++g) order[g] = g;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (gamma[a] != gamma[b]) return gamma[a] < gamma[b];
    return view.coflow(groups[a]->coflow_index).id <
           view.coflow(groups[b]->coflow_index).id;
  });

  fabric::ResidualCapacity residual(*view.fabric);
  for (const std::size_t g : order) {
    allocateCoflowMadd(view, *groups[g], residual, rates, scratch_);
  }
  // Work conservation: MADD intentionally under-allocates; backfill
  // across all *admitted* flows.
  std::vector<std::size_t> admitted_flows;
  for (const ActiveCoflow* group : groups) {
    admitted_flows.insert(admitted_flows.end(), group->flow_indices.begin(),
                          group->flow_indices.end());
  }
  backfillMaxMin(view, admitted_flows, residual, rates, scratch_);
}

}  // namespace aalo::sched
