#include "sched/common.h"

#include <algorithm>
#include <unordered_map>

namespace aalo::sched {

void allocateCoflowMaxMin(const sim::SimView& view, const ActiveCoflow& group,
                          fabric::ResidualCapacity& residual,
                          std::vector<util::Rate>& rates,
                          fabric::MaxMinScratch& scratch) {
  backfillMaxMin(view, group.flow_indices, residual, rates, scratch);
}

Bottleneck worstLoad(const sim::SimView& view, const ActiveCoflow& group,
                     const std::vector<util::Bytes>& load,
                     const std::vector<util::Rate>& capacity) {
  Bottleneck b;
  for (std::size_t k = 0; k < group.flow_indices.size(); ++k) {
    for (const std::uint32_t r : view.fabric->route(group.srcs[k], group.dsts[k])) {
      if (load[r] <= 0) continue;
      b.min_capacity = std::min(b.min_capacity, capacity[r]);
      b.gamma = std::max(b.gamma, load[r] / capacity[r]);
    }
  }
  return b;
}

void allocateCoflowMadd(const sim::SimView& view, const ActiveCoflow& group,
                        fabric::ResidualCapacity& residual,
                        std::vector<util::Rate>& rates,
                        fabric::MaxMinScratch& scratch) {
  const Bottleneck b =
      coflowBottleneck(view, group, residual, scratch, remainingBytes);
  // A needed resource is exhausted: skip; a later pass backfills.
  if (b.min_capacity <= util::kEps) return;
  const double gamma = b.gamma;  // Seconds to finish the coflow.
  if (gamma <= 0.0) return;      // Nothing left to send.
  for (const std::size_t fi : group.flow_indices) {
    const sim::FlowState& f = view.flow(fi);
    const util::Bytes rem = remainingBytes(f);
    if (rem <= 0) continue;
    const util::Rate r = rem / gamma;
    rates[fi] += r;
    residual.consume(f.src, f.dst, r);
  }
}

void backfillMaxMin(const sim::SimView& view,
                    const std::vector<std::size_t>& flow_indices,
                    fabric::ResidualCapacity& residual,
                    std::vector<util::Rate>& rates,
                    fabric::MaxMinScratch& scratch) {
  scratch.demands.clear();
  scratch.demands.reserve(flow_indices.size());
  for (const std::size_t fi : flow_indices) {
    const sim::FlowState& f = view.flow(fi);
    scratch.demands.push_back(fabric::Demand{f.src, f.dst, 1.0});
  }
  const std::vector<util::Rate>& shares =
      fabric::maxMinAllocate(scratch.demands, residual, scratch);
  for (std::size_t k = 0; k < flow_indices.size(); ++k) {
    rates[flow_indices[k]] += shares[k];
  }
}

PortGroups groupByIngressPort(const sim::SimView& view) {
  const auto ports = static_cast<std::size_t>(view.fabric->numPorts());
  PortGroups groups{std::vector<std::vector<PortCoflow>>(ports),
                    std::vector<std::unordered_map<std::size_t, std::size_t>>(ports)};
  for (const std::size_t fi : *view.active_flows) {
    const sim::FlowState& f = view.flow(fi);
    const auto p = static_cast<std::size_t>(f.src);
    auto [it, inserted] =
        groups.slot[p].try_emplace(f.coflow_index, groups.ports[p].size());
    if (inserted) groups.ports[p].push_back(PortCoflow{f.coflow_index, 0, {}});
    groups.ports[p][it->second].flow_indices.push_back(fi);
  }
  return groups;
}

void addLocalSent(const sim::SimView& view, PortGroups& groups) {
  for (const ActiveCoflow& group : view.active_index->groups()) {
    const sim::CoflowState& c = view.coflow(group.coflow_index);
    for (const std::size_t fi : c.flow_indices) {
      const sim::FlowState& f = view.flow(fi);
      if (!f.started || f.sent <= 0) continue;
      const auto p = static_cast<std::size_t>(f.src);
      const auto it = groups.slot[p].find(group.coflow_index);
      if (it != groups.slot[p].end()) groups.ports[p][it->second].local_sent += f.sent;
    }
  }
}

util::Rate coflowAggregateRate(const sim::SimView& view, const ActiveCoflow& group) {
  // The incremental engine maintains the aggregate; summing per-flow rates
  // is the fallback for legacy-engine views.
  if (view.coflow_rates != nullptr) return (*view.coflow_rates)[group.coflow_index];
  util::Rate total = 0;
  for (const std::size_t fi : group.flow_indices) total += view.flow(fi).rate;
  return total;
}

}  // namespace aalo::sched
