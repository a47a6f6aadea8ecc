// Varys — the clairvoyant baseline (Chowdhury, Zhong, Stoica, SIGCOMM'14).
//
// Smallest-Effective-Bottleneck-First (SEBF) ordering with MADD rate
// assignment: coflows are sorted by the time their bottleneck port needs
// to drain the remaining bytes; each coflow's flows are paced to finish
// together at that bottleneck time, and leftover bandwidth is backfilled.
// Requires complete knowledge of flow sizes — the assumption Aalo drops.
#pragma once

#include "sched/common.h"

namespace aalo::sched {

struct VarysConfig {
  /// Centralized admission overhead: a coflow's flows stay gated until
  /// this long after release (Varys must compute explicit rates before
  /// anything may send — the cost §7.2 attributes to it for tiny
  /// coflows). 0 models an idealized, overhead-free Varys.
  util::Seconds admission_delay = 0;
};

class VarysScheduler final : public sim::Scheduler {
 public:
  VarysScheduler() = default;
  explicit VarysScheduler(VarysConfig config) : config_(config) {}

  std::string name() const override { return "varys-sebf"; }

  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;

  util::Seconds nextWakeup(const sim::SimView& view) override;

  /// Effective bottleneck (seconds) of a coflow's started flows against
  /// the full fabric. Exposed for tests.
  static util::Seconds effectiveBottleneck(const sim::SimView& view,
                                           const ActiveCoflow& group);

 private:
  bool admitted(const sim::SimView& view, std::size_t coflow_index) const;

  VarysConfig config_;
  fabric::MaxMinScratch scratch_;
};

}  // namespace aalo::sched
