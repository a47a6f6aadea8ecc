// Discretized Coflow-Aware Least-Attained Service — the paper's core
// contribution (§4), as deployed in Aalo.
//
// Coflows live in K priority queues. Queue i holds coflows whose
// *coordinator-known* attained service lies in [Q_i^lo, Q_i^hi) with
// exponentially spaced thresholds Q_{i+1}^hi = E * Q_i^hi. Across queues:
// weighted fair sharing (weights decrease with priority) for starvation
// freedom; within a queue: FIFO by CoflowId; within a coflow: max-min fair
// flows. Unused capacity is redistributed in priority order (the paper's
// excess policy).
//
// Coordination (§6.2): with sync_interval Δ > 0 the scheduler only learns
// global attained sizes at multiples of Δ, so queue demotions take effect
// at the first sync boundary after the coflow's true size crosses a
// threshold — exactly how the Aalo coordinator behaves. Newly arrived
// coflows are placed in the highest-priority queue immediately (local
// decision, no coordination needed). Δ = 0 models instant coordination.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sched/common.h"

namespace aalo::sched {

/// 0-based D-CLAS queue for an attained size given ascending upper
/// `thresholds` (one fewer than the number of queues; the last queue's
/// bound is implicit at infinity): the number of thresholds at or below
/// `size`, found with a binary search. Shared by the simulator scheduler,
/// the runtime coordinator, and the daemon's local fallback so all three
/// discretize identically.
int queueForSize(std::span<const util::Bytes> thresholds, util::Bytes size);

struct DClasConfig {
  /// Number of priority queues K (>= 1). Ignored when explicit_thresholds
  /// is non-empty.
  int num_queues = 10;
  /// Multiplicative threshold spacing E (finite, > 1).
  double exp_factor = 10.0;
  /// Q1^hi — coflows below this never need coordination.
  util::Bytes first_threshold = 10 * util::kMB;
  /// Coordination interval Δ (finite, >= 0). 0 = instant (idealized)
  /// coordination.
  util::Seconds sync_interval = 0;
  /// Across-queue discipline. The paper uses weighted sharing to avoid
  /// starvation; strict priority is the ablation variant.
  enum class QueuePolicy { kWeightedFair, kStrictPriority };
  QueuePolicy policy = QueuePolicy::kWeightedFair;
  /// Explicit queue upper thresholds (ascending, last queue implicit at
  /// infinity). Overrides num_queues/exp_factor/first_threshold — used by
  /// the equal-sized-queue sensitivity experiment (Fig 12d).
  std::vector<util::Bytes> explicit_thresholds;

  /// Queue weight for 0-based queue q: the paper evaluates
  /// Q_i.weight = K - i + 1 (§7.1).
  double queueWeight(int q) const;
  /// Upper threshold of 0-based queue q (infinity for the last queue).
  /// Throws std::invalid_argument unless the thresholds come out finite
  /// and ascending.
  std::vector<util::Bytes> thresholds() const;
};

/// One post-allocation snapshot of queue state. Recorded only while a
/// telemetry sink is attached (one branch per allocation round, nothing
/// per-increment), so production runs pay effectively nothing.
struct DClasQueueSample {
  util::Seconds now = 0;
  /// Coflows per queue (index = 0-based queue).
  std::vector<std::size_t> occupancy;
  /// Aggregate allocated rate per queue (sum over members' flows).
  std::vector<util::Rate> queue_rates;
  /// (coflow_index, queue) for every active coflow at this round.
  std::vector<std::pair<std::size_t, int>> coflow_queues;
};

/// Sample sink for the starvation-freedom / monotonicity invariant tests
/// and the aalo_sim per-queue occupancy metrics.
class DClasTelemetry {
 public:
  void record(DClasQueueSample sample) { samples_.push_back(std::move(sample)); }
  const std::vector<DClasQueueSample>& samples() const { return samples_; }
  void clear() { samples_.clear(); }

 private:
  std::vector<DClasQueueSample> samples_;
};

class DClasScheduler final : public sim::Scheduler {
 public:
  explicit DClasScheduler(DClasConfig config = {});

  std::string name() const override;

  void reset(const fabric::Fabric& fabric) override;
  void onCoflowFinished(const sim::SimView& view, std::size_t coflow_index) override;
  void onFlowStarted(const sim::SimView& view, std::size_t flow_index) override;
  void onFlowCompleted(const sim::SimView& view, std::size_t flow_index) override;
  std::uint64_t scheduleEpoch(const sim::SimView& view) override;
  void allocate(const sim::SimView& view, std::vector<util::Rate>& rates) override;
  util::Seconds nextWakeup(const sim::SimView& view) override;

  /// Queue a coflow with the given known size would occupy (0-based).
  int queueOf(util::Bytes known_size) const;

  const DClasConfig& config() const { return config_; }

  /// Replaces the queue thresholds at runtime (ascending, one fewer than
  /// the number of queues). Used by the adaptive-threshold extension
  /// (§8); coflows are re-binned on the next allocation round.
  void setThresholds(std::vector<util::Bytes> thresholds);
  const std::vector<util::Bytes>& thresholds() const { return thresholds_; }

  /// Attaches (or detaches, with nullptr) a telemetry sink; every
  /// allocation round then records a DClasQueueSample after rates are
  /// installed. Not owned; must outlive the scheduler or be detached.
  void setTelemetry(DClasTelemetry* telemetry) { telemetry_ = telemetry; }

  // ---- Test support --------------------------------------------------
  /// Whether the persistent queue state currently mirrors `view`'s active
  /// index (established on the first allocate/scheduleEpoch of a run,
  /// kept in lockstep by the per-flow hooks).
  bool tracking(const sim::SimView& view) const;
  /// Incrementally maintained queue membership (coflow indices, FIFO
  /// order within each queue). Only meaningful while tracking.
  std::vector<std::vector<std::size_t>> queueSnapshot() const;
  /// Oracle: from-scratch partition + FIFO sort of `view`'s active
  /// coflows, exactly as the pre-incremental implementation rebuilt every
  /// round. Does not touch the persistent state.
  std::vector<std::vector<std::size_t>> referenceQueueSnapshot(
      const sim::SimView& view) const;

 private:
  /// Per-queue persistent state: FIFO-sorted membership plus the cached
  /// primary-pass output. A clean queue's cache replays bit-identically
  /// because all of its inputs (members, FIFO order, flow endpoints, fair
  /// share, fabric) are unchanged since it was recorded.
  struct QueueState {
    std::vector<std::size_t> members;  ///< Coflow indices, FIFO-sorted.
    bool dirty = true;
    /// Recorded primary-pass rate increments, in allocation order.
    std::vector<std::pair<std::size_t, util::Rate>> cached_rates;
    /// Leftover capacity slice after the primary pass, per resource.
    std::vector<util::Rate> left;
  };

  /// Coordinator-known attained size of a coflow (0 for never-synced).
  util::Bytes knownSize(std::size_t coflow_index) const;
  /// Updates known sizes and applies the resulting queue demotions.
  /// Idempotent at a fixed view.now; needs the queue state tracking.
  void maybeSync(const sim::SimView& view);
  bool hookTrackable(const sim::SimView& view);
  void ensureTracking(const sim::SimView& view);
  void rebuildQueues(const sim::SimView& view);
  void insertTracked(const sim::SimView& view, std::size_t coflow_index);
  void removeTracked(std::size_t coflow_index);
  void maybeDemote(const sim::SimView& view, std::size_t coflow_index);
  void markQueueDirty(int q);
  void markAllDirty();
  /// True when every port some active flow demands has residual capacity
  /// at or below the drained threshold. Implies every active flow's
  /// available rate is negligible — safe to stop allocating (cheaper and
  /// far more effective than scanning *all* ports, which never drain in
  /// sparse phases).
  bool demandDrained(const fabric::ResidualCapacity& residual) const;
  /// Max-min over only the flows of `group` that could be given more
  /// than the drained threshold from `residual`. In greedy
  /// redistribution passes the residual is mostly drained, so restricting
  /// the water-filling to the few flows that can still gain (the rest
  /// would only receive FP dust) shrinks the dominant cost of a round.
  /// Skips the max-min call entirely when no flow qualifies, and returns
  /// whether it ran one. With a `record` sink, each rate increment is also
  /// appended to it so a clean queue can replay them without re-running
  /// max-min.
  bool allocateCoflowGainers(
      const ActiveCoflow& group, fabric::ResidualCapacity& residual,
      std::vector<util::Rate>& rates,
      std::vector<std::pair<std::size_t, util::Rate>>* record);
  /// Gives `members` (one queue, FIFO order) gainers-only max-min from
  /// `residual`, one coflow after another, until the residual drains;
  /// drain is checked after each coflow that filled.
  void fillQueue(const sim::SimView& view, const std::vector<std::size_t>& members,
                 fabric::ResidualCapacity& residual, std::vector<util::Rate>& rates,
                 std::vector<std::pair<std::size_t, util::Rate>>* record);
  /// The priority-order greedy loop: fills every queue, highest priority
  /// first, from `residual` until it drains. All of strict priority's
  /// allocation, and the weighted policy's excess pass.
  void allocateGreedy(const sim::SimView& view, fabric::ResidualCapacity& residual,
                      std::vector<util::Rate>& rates);
  void allocateWeighted(const sim::SimView& view, std::vector<util::Rate>& rates);
  void recordTelemetry(const sim::SimView& view,
                       const std::vector<util::Rate>& rates);

  DClasConfig config_;
  std::vector<util::Bytes> thresholds_;  ///< Size num_queues - 1.
  /// Attained sizes as of the last coordination round, indexed by coflow
  /// index (dense — coflow indices are small and stable within a run).
  std::vector<util::Bytes> known_sent_;
  /// Last applied sync boundary index (floor(now / Δ)); -1 before any.
  std::int64_t last_sync_boundary_ = -1;

  // ---- Persistent queue state (incrementally maintained) -------------
  /// Index being tracked; null when the persistent state is stale and the
  /// next allocate/scheduleEpoch must rebuild.
  const sim::ActiveCoflowIndex* tracked_index_ = nullptr;
  std::uint64_t tracked_epoch_ = 0;
  std::vector<QueueState> queues_;
  std::vector<int> queue_of_;                   ///< Coflow -> queue, -1 inactive.
  std::vector<std::uint32_t> active_flows_of_;  ///< Coflow -> live flow count.
  /// Per-port counts of active flows demanding the port (drain check).
  std::vector<int> in_demand_, out_demand_;
  /// Bumped whenever anything the schedule depends on changes (queue
  /// structure, flow membership, thresholds, rebuilds). Returned from
  /// scheduleEpoch so the engine can reuse installed rates across rounds
  /// where it is unchanged.
  std::uint64_t schedule_epoch_ = 1;
  double cached_total_weight_ = -1.0;
  /// kEps * max ingress capacity, set by reset() (which every engine
  /// calls before a run).
  util::Rate drained_threshold_ = 0;
  DClasTelemetry* telemetry_ = nullptr;

  /// Reusable allocation-round buffers (hot path).
  fabric::MaxMinScratch scratch_;
  std::vector<std::size_t> gainers_scratch_;
  /// Reusable residual trackers (avoid a vector allocation per pass).
  fabric::ResidualCapacity residual_scratch_, leftover_scratch_;
};

}  // namespace aalo::sched
