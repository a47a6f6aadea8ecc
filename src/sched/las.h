// Decentralized (uncoordinated) least-attained service — the
// "Uncoordinated Non-Clairvoyant" baseline of §7.2.1 and Figure 1d.
//
// Each ingress port independently applies LAS using only *locally*
// observed attained service: the coflow(s) with the least bytes sent
// through that specific port get the port; near-ties share. Local
// observations are poor predictors of global coflow size (Theorem A.1),
// which is exactly the pathology this baseline demonstrates.
#pragma once

#include "sched/common.h"

namespace aalo::sched {

struct LasConfig {
  /// Local attained-service gap below which coflows tie at a port.
  util::Bytes tie_window = 1 * util::kKB;
  /// Decision quantum: local priorities drift continuously, so the
  /// schedule is recomputed at least this often.
  util::Seconds quantum = 1.0;
};

class DecentralizedLasScheduler final : public sim::Scheduler {
 public:
  explicit DecentralizedLasScheduler(LasConfig config = {});

  std::string name() const override { return "uncoordinated-las"; }

  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;
  util::Seconds nextWakeup(const sim::SimView& view) override;

 private:
  LasConfig config_;
  fabric::MaxMinScratch scratch_;
};

}  // namespace aalo::sched
