#include "sched/las.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace aalo::sched {

DecentralizedLasScheduler::DecentralizedLasScheduler(LasConfig config)
    : config_(config) {}

void DecentralizedLasScheduler::allocate(const sim::SimView& view,
                                         std::vector<util::Rate>& rates) {
  const auto ports = static_cast<std::size_t>(view.fabric->numPorts());

  // Locally attained service per (ingress port, coflow): only the bytes a
  // daemon can see leave through its own uplink.
  PortGroups groups = groupByIngressPort(view);
  addLocalSent(view, groups, groups_scratch_);
  std::vector<std::vector<std::size_t>> port_flows(ports);
  for (const std::size_t fi : *view.active_flows) {
    port_flows[static_cast<std::size_t>(view.flow(fi).src)].push_back(fi);
  }

  // Each port independently selects its least-locally-attained coflow(s).
  scratch_.demands.clear();
  std::vector<std::size_t> chosen_flows;
  for (std::size_t p = 0; p < ports; ++p) {
    if (port_flows[p].empty()) continue;
    util::Bytes min_attained = std::numeric_limits<util::Bytes>::infinity();
    for (const PortCoflow& pc : groups.ports[p]) {
      min_attained = std::min(min_attained, pc.local_sent);
    }
    for (const std::size_t fi : port_flows[p]) {
      const sim::FlowState& f = view.flow(fi);
      const util::Bytes local_sent =
          groups.ports[p][groups.slot[p].at(f.coflow_index)].local_sent;
      if (local_sent - min_attained <= config_.tie_window) {
        scratch_.demands.push_back(fabric::Demand{f.src, f.dst, 1.0, fabric::kUncapped});
        chosen_flows.push_back(fi);
      }
    }
  }

  fabric::ResidualCapacity residual(*view.fabric);
  const std::vector<util::Rate>& shares =
      fabric::maxMinAllocate(scratch_.demands, residual, scratch_);
  for (std::size_t k = 0; k < chosen_flows.size(); ++k) {
    rates[chosen_flows[k]] += shares[k];
  }
  if (config_.work_conserving) {
    backfillMaxMin(view, *view.active_flows, residual, rates, scratch_);
  }
}

util::Seconds DecentralizedLasScheduler::nextWakeup(const sim::SimView& view) {
  return view.now + config_.quantum;
}

}  // namespace aalo::sched
