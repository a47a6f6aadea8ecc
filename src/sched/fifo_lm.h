// FIFO with Limited Multiplexing — the Baraat baseline (Dogar et al.,
// SIGCOMM'14), simulated as in §7.2.1 of the Aalo paper.
//
// Fully decentralized: each ingress port schedules coflows ("tasks" in
// Baraat) in arrival (CoflowId) order. The head coflow gets the port
// exclusively while it is light; once a coflow's locally observed size
// crosses the heavy threshold it is considered heavy and multiplexed
// fairly with the coflows behind it. Decisions are locally correct but
// globally inconsistent — the pathology Figure 8 quantifies.
#pragma once

#include "coflow/spec.h"
#include "sched/common.h"

namespace aalo::sched {

struct FifoLmConfig {
  /// A coflow whose locally attained service at a port exceeds this is
  /// heavy there. The paper sets it to the 80th percentile of the coflow
  /// size distribution (per-port share thereof).
  util::Bytes heavy_threshold = 100 * util::kMB;
  /// Decision quantum for heaviness drift.
  util::Seconds quantum = 1.0;
  bool work_conserving = true;
};

/// The `percentile`-th percentile of `workload`'s coflow total sizes. The
/// paper-default FIFO-LM heavy threshold is the 80th (§7.2.1: the best
/// point of the sweep run for Baraat).
util::Bytes heavyThreshold(const coflow::Workload& workload, double percentile = 80);

class FifoLmScheduler final : public sim::Scheduler {
 public:
  explicit FifoLmScheduler(FifoLmConfig config = {});

  std::string name() const override { return "fifo-lm-baraat"; }

  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;
  util::Seconds nextWakeup(const sim::SimView& view) override;

 private:
  FifoLmConfig config_;
  fabric::MaxMinScratch scratch_;
  std::vector<ActiveCoflow> groups_scratch_;
};

}  // namespace aalo::sched
