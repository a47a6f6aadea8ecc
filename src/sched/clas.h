// Continuous (non-discretized) Coflow-Aware Least-Attained Service.
//
// Priority strictly decreases with the coflow's globally attained service;
// coflows with (numerically) equal attained service share fairly. For
// identical coflows this degenerates into byte-by-byte round-robin — the
// behaviour Appendix B analyses and D-CLAS's discretization avoids.
#pragma once

#include "sched/common.h"

namespace aalo::sched {

struct ClasConfig {
  /// Attained-service gap below which coflows count as tied and share.
  util::Bytes tie_window = 1 * util::kKB;
  /// Safety re-allocation quantum: ties form as lagging coflows catch up;
  /// the scheduler also predicts catch-up times, so this is a backstop.
  /// quantum / 50 is also the floor of catch-up wakes once tied coflows
  /// chatter (see nextWakeup).
  util::Seconds quantum = 0.5;
};

class ContinuousClasScheduler final : public sim::Scheduler {
 public:
  explicit ContinuousClasScheduler(ClasConfig config = {});

  std::string name() const override { return "clas-continuous"; }

  void reset(const fabric::Fabric& fabric) override;
  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;
  util::Seconds nextWakeup(const sim::SimView& view) override;

 private:
  ClasConfig config_;
  fabric::MaxMinScratch scratch_;
  std::vector<const ActiveCoflow*> order_;
  /// Consecutive wake-ups that were catch-ups sooner than the chase floor.
  std::size_t chase_run_ = 0;
};

}  // namespace aalo::sched
