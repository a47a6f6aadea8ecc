#include "sched/fifo.h"

#include <algorithm>

#include "coflow/ids.h"

namespace aalo::sched {

void FifoScheduler::allocate(const sim::SimView& view, std::vector<util::Rate>& rates) {
  const std::vector<ActiveCoflow>& groups = view.active_index->groups();
  const coflow::CoflowIdFifoLess fifo_less;
  order_.assign(groups.size(), nullptr);
  for (std::size_t g = 0; g < groups.size(); ++g) order_[g] = &groups[g];
  std::sort(order_.begin(), order_.end(),
            [&](const ActiveCoflow* a, const ActiveCoflow* b) {
              const sim::CoflowState& ca = view.coflow(a->coflow_index);
              const sim::CoflowState& cb = view.coflow(b->coflow_index);
              if (ca.release_time != cb.release_time) {
                return ca.release_time < cb.release_time;
              }
              return fifo_less(ca.id, cb.id);
            });

  fabric::ResidualCapacity residual(*view.fabric);
  for (const ActiveCoflow* group : order_) {
    allocateCoflowMaxMin(view, *group, residual, rates, scratch_);
    if (!config_.work_conserving_spillover) break;  // Head only.
  }
}

}  // namespace aalo::sched
