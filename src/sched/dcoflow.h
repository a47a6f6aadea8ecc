// Deadline-aware coflow scheduling with admission control (DCoflow-style).
//
// Coflows carry optional completion deadlines (CoflowSpec::deadline,
// relative to release). The scheduler keeps admitted coflows in a fixed
// sigma-order — earliest absolute deadline first, deadline-free coflows
// last — and serves them with per-coflow max-min in that order. When a
// new coflow becomes active it is admitted only if, under a conservative
// sigma-order completion bound (cumulative remaining load over every port
// and rack link, divided by its capacity), its own deadline AND every
// already admitted coflow's deadline still hold. Otherwise it is
// *rejected*: dropped to background priority so it cannot hurt anyone who
// can still make their deadline. Rejected coflows keep receiving leftover
// bandwidth, so every simulation terminates and rejection shows up as
// deadline misses plus SimResult::rejected_coflows, never as a hang.
//
// This is the admission-control idea of DCoflow (sigma-order test) grafted
// onto this repo's fluid engine. The bound walks every resource a flow
// crosses (Fabric::route), so on an oversubscribed fabric a coflow that
// only a rack uplink or downlink makes late is rejected too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "coflow/ids.h"
#include "fabric/maxmin.h"
#include "sched/common.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace aalo::sched {

struct DCoflowConfig {
  /// The sigma-order completion bound is scaled by this before the
  /// deadline test; > 1 rejects more aggressively (safety margin for
  /// fabric effects the bound ignores).
  double admission_margin = 1.0;
};

/// One admission decision, recorded when a coflow first becomes active.
struct AdmissionDecision {
  coflow::CoflowId id;
  std::size_t coflow_index = 0;
  bool admitted = false;
  /// Conservative sigma-order completion instant computed at decision
  /// time (absolute seconds, admission_margin already applied).
  util::Seconds bound = 0;
  /// Absolute deadline; kInfTime when the coflow has none.
  util::Seconds deadline_abs = sim::kInfTime;
  util::Seconds decided_at = 0;
};

class DCoflowScheduler final : public sim::Scheduler {
 public:
  explicit DCoflowScheduler(DCoflowConfig config = {}) : config_(config) {}

  std::string name() const override { return "dcoflow"; }

  void reset(const fabric::Fabric& fabric) override;
  std::uint64_t scheduleEpoch(const sim::SimView& view) override;
  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;
  std::size_t rejectedCoflows() const override { return rejected_; }

  /// Every admission decision of the run, in decision order (test and
  /// telemetry introspection).
  const std::vector<AdmissionDecision>& admissionLog() const { return log_; }

 private:
  /// Decides admission for every active coflow that has no decision yet.
  /// Idempotent and cheap when there is nothing to decide; called at the
  /// top of both allocate() and scheduleEpoch() so the legacy engine
  /// (which never calls scheduleEpoch) and the incremental engine (which
  /// may skip allocate on reused rounds) make identical decisions —
  /// a coflow's first active round always changes flow membership, so
  /// both engines evaluate it with freshly materialized state.
  void decideAdmissions(const sim::SimView& view);

  DCoflowConfig config_;

  std::vector<std::uint8_t> decided_;   ///< By coflow index.
  std::vector<std::uint8_t> admitted_;  ///< By coflow index.
  std::vector<AdmissionDecision> log_;
  std::size_t rejected_ = 0;
  /// Bumped on every decision; scheduleEpoch folds it in so reused rates
  /// can never straddle an admission change.
  std::uint64_t decision_version_ = 0;

  // Scratch (capacity reuse across rounds).
  std::vector<std::size_t> order_scratch_;
  std::vector<std::size_t> candidate_scratch_;
  std::vector<std::size_t> flows_scratch_;
  fabric::MaxMinScratch scratch_;
};

}  // namespace aalo::sched
