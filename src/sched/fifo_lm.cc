#include "sched/fifo_lm.h"

#include <algorithm>
#include <vector>

#include "coflow/ids.h"
#include "util/stats.h"

namespace aalo::sched {

util::Bytes heavyThreshold(const coflow::Workload& workload, double percentile) {
  util::Summary sizes;
  for (const auto& job : workload.jobs) {
    for (const auto& c : job.coflows) sizes.add(c.totalBytes());
  }
  return sizes.percentile(percentile);
}

FifoLmScheduler::FifoLmScheduler(FifoLmConfig config) : config_(config) {}

void FifoLmScheduler::allocate(const sim::SimView& view, std::vector<util::Rate>& rates) {
  // Per-port coflows with their flows and local attained service
  // (finished flows of active coflows included).
  PortGroups groups = groupByIngressPort(view);
  addLocalSent(view, groups, groups_scratch_);

  const coflow::CoflowIdFifoLess fifo_less;
  std::vector<fabric::Demand>& demands = scratch_.demands;
  demands.clear();
  std::vector<std::size_t> chosen;
  for (std::vector<PortCoflow>& queue : groups.ports) {
    if (queue.empty()) continue;
    std::sort(queue.begin(), queue.end(), [&](const PortCoflow& a, const PortCoflow& b) {
      return fifo_less(view.coflow(a.coflow_index).id, view.coflow(b.coflow_index).id);
    });
    // Limited multiplexing: serve the FIFO prefix up to and including the
    // first light coflow; heavy head-of-line coflows share instead of
    // blocking.
    for (const PortCoflow& pc : queue) {
      for (const std::size_t fi : pc.flow_indices) {
        const sim::FlowState& f = view.flow(fi);
        demands.push_back(fabric::Demand{f.src, f.dst, 1.0, fabric::kUncapped});
        chosen.push_back(fi);
      }
      if (pc.local_sent < config_.heavy_threshold) break;  // First light one.
    }
  }

  fabric::ResidualCapacity residual(*view.fabric);
  const std::vector<util::Rate>& shares =
      fabric::maxMinAllocate(demands, residual, scratch_);
  for (std::size_t k = 0; k < chosen.size(); ++k) rates[chosen[k]] += shares[k];
  if (config_.work_conserving) {
    backfillMaxMin(view, *view.active_flows, residual, rates, scratch_);
  }
}

util::Seconds FifoLmScheduler::nextWakeup(const sim::SimView& view) {
  return view.now + config_.quantum;
}

}  // namespace aalo::sched
