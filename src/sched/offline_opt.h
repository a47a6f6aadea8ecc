// Offline approximation for the clairvoyant coflow scheduling problem —
// the paper's "how far are we from the optimal?" yardstick (§7.2.1).
//
// Coflow scheduling on a non-blocking fabric is concurrent open shop with
// coupled resources; ignoring the coupling, the sum of CCTs admits a
// 2-approximation [Mastrolilli et al., ORL 2010]. We implement the
// equivalent combinatorial primal-dual rule (later popularized by
// Sincronia's BSSI): repeatedly find the most-loaded port, send the
// largest weight-adjusted contributor on that port to the *back* of the
// order, discount weights, and recurse. The resulting permutation is then
// replayed with clairvoyant MADD rates and backfilling.
#pragma once

#include <unordered_map>

#include "coflow/spec.h"
#include "sched/common.h"

namespace aalo::sched {

/// Computes the 2-approximation permutation over all coflows in the
/// workload (0 = scheduled first). Ignores release dates, as the offline
/// bound does.
std::unordered_map<coflow::CoflowId, int> computeConcurrentOpenShopOrder(
    const coflow::Workload& workload);

/// Clairvoyant scheduler that serves coflows in a fixed precomputed order
/// with MADD rates and max-min backfill.
class OfflineOrderScheduler final : public sim::Scheduler {
 public:
  explicit OfflineOrderScheduler(std::unordered_map<coflow::CoflowId, int> order);

  std::string name() const override { return "offline-2approx"; }

  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;

 private:
  std::unordered_map<coflow::CoflowId, int> order_;
  fabric::MaxMinScratch scratch_;
  std::vector<const ActiveCoflow*> sorted_;
};

}  // namespace aalo::sched
