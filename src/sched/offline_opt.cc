#include "sched/offline_opt.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

namespace aalo::sched {

std::unordered_map<coflow::CoflowId, int> computeConcurrentOpenShopOrder(
    const coflow::Workload& workload) {
  struct Entry {
    coflow::CoflowId id;
    std::vector<util::Bytes> load;  // Per machine: [0,P) ingress, [P,2P) egress.
    double weight = 1.0;
    bool placed = false;
  };
  const auto p = static_cast<std::size_t>(workload.num_ports);
  const std::size_t machines = 2 * p;

  std::vector<Entry> entries;
  for (const coflow::JobSpec& job : workload.jobs) {
    for (const coflow::CoflowSpec& spec : job.coflows) {
      Entry e;
      e.id = spec.id;
      e.load.assign(machines, 0.0);
      for (const coflow::FlowSpec& f : spec.flows) {
        e.load[static_cast<std::size_t>(f.src)] += f.bytes;
        e.load[p + static_cast<std::size_t>(f.dst)] += f.bytes;
      }
      entries.push_back(std::move(e));
    }
  }

  std::unordered_map<coflow::CoflowId, int> rank;
  std::vector<util::Bytes> machine_load(machines, 0.0);
  for (const Entry& e : entries) {
    for (std::size_t m = 0; m < machines; ++m) machine_load[m] += e.load[m];
  }

  // Place coflows from last to first.
  for (int pos = static_cast<int>(entries.size()) - 1; pos >= 0; --pos) {
    std::size_t bottleneck = 0;
    for (std::size_t m = 1; m < machines; ++m) {
      if (machine_load[m] > machine_load[bottleneck]) bottleneck = m;
    }
    // Pick the unplaced coflow minimizing weight / load on the bottleneck
    // (unit weights: the largest contributor) to go last.
    double best_ratio = std::numeric_limits<double>::infinity();
    std::size_t best = entries.size();
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const Entry& e = entries[i];
      if (e.placed || e.load[bottleneck] <= 0) continue;
      const double ratio = e.weight / e.load[bottleneck];
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best = i;
      }
    }
    if (best == entries.size()) {
      // Bottleneck machine has no unplaced load (all remaining coflows
      // miss it); any unplaced coflow may go last.
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].placed) {
          best = i;
          break;
        }
      }
    }
    if (best == entries.size()) throw std::logic_error("open-shop order: no candidate");

    Entry& chosen = entries[best];
    chosen.placed = true;
    rank[chosen.id] = pos;
    // Dual adjustment: discount the weights of remaining coflows by their
    // bottleneck contribution relative to the chosen one.
    if (chosen.load[bottleneck] > 0) {
      const double factor = chosen.weight / chosen.load[bottleneck];
      for (Entry& e : entries) {
        if (!e.placed && e.load[bottleneck] > 0) {
          e.weight -= factor * e.load[bottleneck];
        }
      }
    }
    for (std::size_t m = 0; m < machines; ++m) machine_load[m] -= chosen.load[m];
  }
  return rank;
}

OfflineOrderScheduler::OfflineOrderScheduler(
    std::unordered_map<coflow::CoflowId, int> order)
    : order_(std::move(order)) {}

void OfflineOrderScheduler::allocate(const sim::SimView& view,
                                     std::vector<util::Rate>& rates) {
  const std::vector<ActiveCoflow>& groups = view.active_index->groups();
  sorted_.assign(groups.size(), nullptr);
  for (std::size_t g = 0; g < groups.size(); ++g) sorted_[g] = &groups[g];
  std::sort(sorted_.begin(), sorted_.end(),
            [&](const ActiveCoflow* a, const ActiveCoflow* b) {
              const auto ra = order_.find(view.coflow(a->coflow_index).id);
              const auto rb = order_.find(view.coflow(b->coflow_index).id);
              const int va =
                  ra == order_.end() ? std::numeric_limits<int>::max() : ra->second;
              const int vb =
                  rb == order_.end() ? std::numeric_limits<int>::max() : rb->second;
              if (va != vb) return va < vb;
              return view.coflow(a->coflow_index).id < view.coflow(b->coflow_index).id;
            });

  fabric::ResidualCapacity residual(*view.fabric);
  for (const ActiveCoflow* group : sorted_) {
    allocateCoflowMadd(view, *group, residual, rates, scratch_);
  }
  backfillMaxMin(view, *view.active_flows, residual, rates, scratch_);
}

}  // namespace aalo::sched
