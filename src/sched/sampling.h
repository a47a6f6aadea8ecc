// Sampling-based coflow scheduling (learn sizes by probing, then SEBF).
//
// Non-clairvoyant like Aalo, but instead of inferring priority from
// attained service alone it *learns* each coflow's size: a small probe
// subset of every coflow's flows is pushed to completion first, and the
// coflow's total size is estimated as the scaled mean of the completed
// probe sizes (a completed flow's attained service equals its size, so
// the estimate never reads ground-truth `size` — see state.h's
// non-clairvoyance discipline). Once a coflow's estimate matures it is
// scheduled smallest-estimated-bottleneck-first, approximating Varys'
// SEBF without prior knowledge; while immature it degrades to LAS
// (least-attained-service) so probing cannot starve anyone.
//
// This follows the sampling-in-the-network line of work (Philae/Saath):
// probing a sublinear number of flows per coflow is enough to rank
// heavy-tailed coflows almost as well as an oracle.
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

struct SamplingConfig {
  /// Fraction of a coflow's flows used as probes (ceil(fraction * width),
  /// clamped to [min_probes, width]). 1.0 probes everything — the
  /// estimate becomes exact and the discipline converges to SEBF.
  double probe_fraction = 0.1;
  /// Probe at least this many flows regardless of width.
  std::size_t min_probes = 2;
  /// Re-decision quantum: orderings drift with attained service, so the
  /// scheduler asks to be re-run at this period even without arrivals.
  util::Seconds quantum = 1.0;
};

/// Estimate recorded when a coflow finishes — what the scheduler believed
/// versus what the coflow actually transferred. `mature` is false when
/// the coflow finished before all its probes completed (the estimate
/// field then holds the scaled mean over *completed* probes only, the
/// best guess available at that point).
struct SamplingEstimate {
  coflow::CoflowId id;
  bool mature = false;
  util::Bytes estimated = 0;
  util::Bytes actual = 0;  ///< Attained service at finish.
};

/// Sink for per-run estimate telemetry (aalo_sim --metrics-dump keeps
/// these alive past the batch runner's scheduler teardown).
struct SamplingTelemetry {
  std::vector<SamplingEstimate> finishes;
};

class SamplingScheduler final : public sim::Scheduler {
 public:
  explicit SamplingScheduler(SamplingConfig config = {}) : config_(config) {}

  std::string name() const override { return "sampling"; }

  void reset(const fabric::Fabric& fabric) override;
  std::uint64_t scheduleEpoch(const sim::SimView& view) override;
  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;
  util::Seconds nextWakeup(const sim::SimView& view) override;
  void onCoflowFinished(const sim::SimView& view, std::size_t coflow_index) override;

  /// Number of probe flows for a coflow of `width` flows.
  std::size_t probeCount(std::size_t width) const;

  /// Current size estimate of coflow `coflow_index`: scaled mean of its
  /// *completed* probes. Returns the number of completed probes (the
  /// estimate is mature when this equals probeCount(width)); `*out` is
  /// meaningful only when at least one probe completed.
  std::size_t estimateTotal(const sim::SimView& view, std::size_t coflow_index,
                            util::Bytes* out) const;

  /// The mature coflows in rank order, as indices into the view's active
  /// groups, from the last scheduleEpoch() or allocate() (test
  /// introspection).
  const std::vector<std::size_t>& matureOrder() const { return mature_order_; }

  /// Estimates recorded at coflow completion (test introspection).
  const std::vector<SamplingEstimate>& finishLog() const { return finish_log_; }

  void setTelemetry(SamplingTelemetry* telemetry) { telemetry_ = telemetry; }

 private:
  /// Partitions the active coflows into mature (sorted by estimated
  /// bottleneck, then id) and immature (sorted by attained service, then
  /// id — LAS). Pure function of the view; both allocate() and
  /// scheduleEpoch() call it.
  void classify(const sim::SimView& view);

  /// Estimated effective-bottleneck seconds of a mature coflow: its
  /// estimated remaining bytes spread evenly over its active flows, summed
  /// per port and rack link against `capacity` (coflowBottleneck).
  util::Seconds estimatedBottleneck(const sim::SimView& view,
                                    const ActiveCoflow& group,
                                    util::Bytes est_total,
                                    const fabric::ResidualCapacity& capacity);

  SamplingConfig config_;

  // Classification output: indices into the active index's groups.
  std::vector<std::size_t> mature_order_;
  std::vector<std::size_t> immature_order_;

  std::vector<SamplingEstimate> finish_log_;
  SamplingTelemetry* telemetry_ = nullptr;

  // Scratch (capacity reuse across rounds).
  std::vector<util::Seconds> gamma_scratch_;
  ActiveCoflow subgroup_scratch_;
  std::vector<std::size_t> backfill_scratch_;
  fabric::MaxMinScratch scratch_;
};

}  // namespace aalo::sched
