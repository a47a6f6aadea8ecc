// Aalo without coordination — the "Uncoordinated Non-Clairvoyant" baseline
// of §7.2.1 and Figures 8/9.
//
// Each ingress port runs its own D-CLAS instance using only locally
// observed attained service: local queue assignment, FIFO within the
// local queue, weighted sharing across queues. Because a wide coflow's
// per-port sizes differ wildly, ports disagree about which queue a coflow
// belongs to; combined with FIFO's exclusivity inside a queue this
// produces convoy effects and stragglers — the Theorem A.1 pathology.
#pragma once

#include <functional>
#include <span>

#include "sched/common.h"
#include "sched/dclas.h"

namespace aalo::sched {

/// One round of D-CLAS run independently at every ingress port, queueing
/// each (port, coflow) by `size_of` — what that port's daemon believes the
/// coflow has sent. The uncoordinated and gossip schedulers differ only in
/// that size source.
void allocatePerPortDClas(
    const sim::SimView& view, const DClasConfig& config,
    std::span<const util::Bytes> thresholds, const PortGroups& groups,
    const std::function<util::Bytes(std::size_t port, const PortCoflow&)>& size_of,
    std::vector<util::Rate>& rates, fabric::MaxMinScratch& scratch);

class UncoordinatedDClasScheduler final : public sim::Scheduler {
 public:
  /// Uses the DClasConfig queue structure (thresholds apply to *local*
  /// attained service; sync_interval is ignored — there is no global
  /// anything here).
  explicit UncoordinatedDClasScheduler(DClasConfig config = {},
                                       util::Seconds quantum = 1.0);

  std::string name() const override { return "uncoordinated-dclas"; }

  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;
  util::Seconds nextWakeup(const sim::SimView& view) override;

 private:
  DClasConfig config_;
  std::vector<util::Bytes> thresholds_;
  util::Seconds quantum_;
  fabric::MaxMinScratch scratch_;
  std::vector<ActiveCoflow> groups_scratch_;
};

}  // namespace aalo::sched
