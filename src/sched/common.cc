#include "sched/common.h"

#include <algorithm>
#include <unordered_map>

namespace aalo::sched {

namespace {

// Kept out of line so that activeGroups' engine-index path, which runs
// several times per allocation round, stays a leaf without this
// function's frame setup.
[[gnu::noinline]] void rebuildGroups(const sim::SimView& view,
                                     std::vector<ActiveCoflow>& groups) {
  groups.clear();
  std::unordered_map<std::size_t, std::size_t> group_of;  // coflow idx -> groups idx
  for (const std::size_t fi : *view.active_flows) {
    const sim::FlowState f = view.flow(fi);
    auto [it, inserted] = group_of.try_emplace(f.coflow_index, groups.size());
    if (inserted) groups.push_back(ActiveCoflow{f.coflow_index, {}, {}, {}});
    ActiveCoflow& g = groups[it->second];
    g.flow_indices.push_back(fi);
    g.srcs.push_back(f.src);
    g.dsts.push_back(f.dst);
  }
}

}  // namespace

std::span<const ActiveCoflow> activeGroups(const sim::SimView& view,
                                           std::vector<ActiveCoflow>& scratch) {
  if (view.active_index != nullptr) return view.active_index->groups();
  rebuildGroups(view, scratch);  // Groups in first-appearance order.
  return scratch;
}

void allocateCoflowMaxMin(const sim::SimView& view, const ActiveCoflow& group,
                          fabric::ResidualCapacity& residual,
                          std::vector<util::Rate>& rates,
                          fabric::MaxMinScratch& scratch) {
  backfillMaxMin(view, group.flow_indices, residual, rates, scratch);
}

void allocateCoflowMadd(const sim::SimView& view, const ActiveCoflow& group,
                        fabric::ResidualCapacity& residual,
                        std::vector<util::Rate>& rates,
                        fabric::MaxMinScratch& scratch) {
  // Effective bottleneck: time to drain the coflow's per-resource
  // remaining bytes at the residual rates (ports, plus rack links on
  // oversubscribed fabrics).
  const auto ports = static_cast<std::size_t>(residual.numPorts());
  const fabric::Fabric* rack_fabric = residual.fabric();
  const std::size_t racks =
      rack_fabric != nullptr ? static_cast<std::size_t>(rack_fabric->numRacks()) : 0;
  std::vector<util::Bytes>& rem_in = scratch.rem_in;
  std::vector<util::Bytes>& rem_out = scratch.rem_out;
  std::vector<util::Bytes>& rem_up = scratch.rem_up;
  std::vector<util::Bytes>& rem_down = scratch.rem_down;
  rem_in.assign(ports, 0.0);
  rem_out.assign(ports, 0.0);
  rem_up.assign(racks, 0.0);
  rem_down.assign(racks, 0.0);
  for (const std::size_t fi : group.flow_indices) {
    const sim::FlowState& f = view.flow(fi);
    const util::Bytes rem = std::max(0.0, f.size - f.sent);
    rem_in[static_cast<std::size_t>(f.src)] += rem;
    rem_out[static_cast<std::size_t>(f.dst)] += rem;
    if (rack_fabric != nullptr && rack_fabric->crossRack(f.src, f.dst)) {
      rem_up[static_cast<std::size_t>(rack_fabric->rackOf(f.src))] += rem;
      rem_down[static_cast<std::size_t>(rack_fabric->rackOf(f.dst))] += rem;
    }
  }
  double gamma = 0.0;  // Seconds to finish the coflow.
  for (std::size_t p = 0; p < ports; ++p) {
    const auto pid = static_cast<coflow::PortId>(p);
    if (rem_in[p] > 0) {
      const util::Rate cap = residual.ingress(pid);
      if (cap <= util::kEps) return;  // Port exhausted; later pass backfills.
      gamma = std::max(gamma, rem_in[p] / cap);
    }
    if (rem_out[p] > 0) {
      const util::Rate cap = residual.egress(pid);
      if (cap <= util::kEps) return;
      gamma = std::max(gamma, rem_out[p] / cap);
    }
  }
  for (std::size_t r = 0; r < racks; ++r) {
    if (rem_up[r] > 0) {
      const util::Rate cap = residual.rackUplink(static_cast<int>(r));
      if (cap <= util::kEps) return;
      gamma = std::max(gamma, rem_up[r] / cap);
    }
    if (rem_down[r] > 0) {
      const util::Rate cap = residual.rackDownlink(static_cast<int>(r));
      if (cap <= util::kEps) return;
      gamma = std::max(gamma, rem_down[r] / cap);
    }
  }
  if (gamma <= 0.0) return;  // Nothing left to send.
  for (const std::size_t fi : group.flow_indices) {
    const sim::FlowState& f = view.flow(fi);
    const util::Bytes rem = std::max(0.0, f.size - f.sent);
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
    scratch.demands.push_back(fabric::Demand{f.src, f.dst, 1.0, fabric::kUncapped});
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

void addLocalSent(const sim::SimView& view, PortGroups& groups,
                  std::vector<ActiveCoflow>& scratch) {
  for (const ActiveCoflow& group : activeGroups(view, scratch)) {
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
  // is the fallback for legacy-engine and hand-assembled views.
  if (view.coflow_rates != nullptr) return (*view.coflow_rates)[group.coflow_index];
  util::Rate total = 0;
  for (const std::size_t fi : group.flow_indices) total += view.flow(fi).rate;
  return total;
}

}  // namespace aalo::sched
