#include "sched/uncoordinated.h"

#include <algorithm>
#include <vector>

#include "coflow/ids.h"

namespace aalo::sched {

void allocatePerPortDClas(
    const sim::SimView& view, const DClasConfig& config,
    std::span<const util::Bytes> thresholds, const PortGroups& groups,
    const std::function<util::Bytes(std::size_t port, const PortCoflow&)>& size_of,
    std::vector<util::Rate>& rates, fabric::MaxMinScratch& scratch) {
  const std::size_t k = thresholds.size() + 1;
  // Each port weights its queues' FIFO heads locally; then one global
  // water-filling pass resolves egress contention, and the backfill
  // conserves work as TCP under the local daemons would.
  std::vector<fabric::Demand>& demands = scratch.demands;
  demands.clear();
  std::vector<std::size_t> chosen;
  const coflow::CoflowIdFifoLess fifo_less;
  for (std::size_t p = 0; p < groups.ports.size(); ++p) {
    const std::vector<PortCoflow>& members = groups.ports[p];
    if (members.empty()) continue;
    // FIFO: only each local queue's first coflow sends.
    std::vector<const PortCoflow*> heads(k, nullptr);
    for (const PortCoflow& pc : members) {
      const PortCoflow*& head =
          heads[static_cast<std::size_t>(queueForSize(thresholds, size_of(p, pc)))];
      if (head == nullptr || fifo_less(view.coflow(pc.coflow_index).id,
                                       view.coflow(head->coflow_index).id)) {
        head = &pc;
      }
    }
    double total_weight = 0;
    for (std::size_t q = 0; q < k; ++q) {
      if (heads[q] != nullptr) total_weight += config.queueWeight(static_cast<int>(q));
    }
    for (std::size_t q = 0; q < k; ++q) {
      const PortCoflow* head = heads[q];
      if (head == nullptr) continue;
      const double share = config.queueWeight(static_cast<int>(q)) / total_weight;
      // The head's flows split the queue's port share equally.
      const double flow_weight =
          share / static_cast<double>(head->flow_indices.size());
      for (const std::size_t fi : head->flow_indices) {
        const sim::FlowState& f = view.flow(fi);
        demands.push_back(fabric::Demand{f.src, f.dst, flow_weight});
        chosen.push_back(fi);
      }
    }
  }

  fabric::ResidualCapacity residual(*view.fabric);
  const std::vector<util::Rate>& shares =
      fabric::maxMinAllocate(demands, residual, scratch);
  for (std::size_t i = 0; i < chosen.size(); ++i) rates[chosen[i]] += shares[i];
  backfillMaxMin(view, *view.active_flows, residual, rates, scratch);
}

UncoordinatedDClasScheduler::UncoordinatedDClasScheduler(DClasConfig config,
                                                         util::Seconds quantum)
    : config_(std::move(config)), quantum_(quantum) {
  thresholds_ = config_.thresholds();
}

void UncoordinatedDClasScheduler::allocate(const sim::SimView& view,
                                           std::vector<util::Rate>& rates) {
  PortGroups groups = groupByIngressPort(view);
  addLocalSent(view, groups);
  allocatePerPortDClas(
      view, config_, thresholds_, groups,
      [](std::size_t /*port*/, const PortCoflow& pc) { return pc.local_sent; }, rates,
      scratch_);
}

util::Seconds UncoordinatedDClasScheduler::nextWakeup(const sim::SimView& view) {
  return view.now + quantum_;
}

}  // namespace aalo::sched
