// Scheduler interface for the flow-level simulator.
//
// On every allocation round the engine presents the current SimView and a
// rate vector (indexed by flow index); the scheduler fills in rates for
// active flows. Rates of inactive flows are ignored. A scheduler may also
// request wake-ups (sync ticks, queue-threshold crossings, decision
// quanta) via nextWakeup().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/fabric.h"
#include "sim/state.h"
#include "util/units.h"

namespace aalo::sim {

/// Read-only snapshot handed to schedulers on every allocation round.
struct SimView {
  util::Seconds now = 0;
  const fabric::Fabric* fabric = nullptr;
  const std::vector<CoflowState>* coflows = nullptr;
  /// Struct-of-arrays flow store; hot paths read its columns directly
  /// (flows->src_port[i], flows->sent_bytes[i], ...).
  const FlowArena* flows = nullptr;
  /// Indices (into *flows) of started, unfinished flows.
  const std::vector<std::size_t>* active_flows = nullptr;
  /// Active flows grouped by coflow, maintained incrementally by the
  /// engine. Never null in a view handed to a scheduler: both engines set
  /// it on every view, and a hand-assembled view must carry one too
  /// (ActiveCoflowIndex::rebuild). Schedulers read the grouping from here.
  const ActiveCoflowIndex* active_index = nullptr;
  /// Per-coflow aggregate installed rate (bytes/s), maintained by the
  /// incremental engine (null otherwise). During allocate()/lifecycle
  /// hooks it holds the *previous* round's installed rates — exactly what
  /// sync back-dating wants; during nextWakeup() the just-installed ones.
  const std::vector<util::Rate>* coflow_rates = nullptr;

  const CoflowState& coflow(std::size_t i) const { return (*coflows)[i]; }
  /// Value snapshot of flow `i`, gathered from the arena columns. Callers
  /// binding `const FlowState& f = view.flow(i)` keep compiling via
  /// lifetime extension; per-field column reads are cheaper in hot loops.
  FlowState flow(std::size_t i) const { return flows->get(i); }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual std::string name() const = 0;

  /// Called once before a run; schedulers reset any cross-run state.
  virtual void reset(const fabric::Fabric& fabric) { (void)fabric; }

  /// Lifecycle notifications (optional).
  virtual void onCoflowReleased(const SimView& view, std::size_t coflow_index) {
    (void)view;
    (void)coflow_index;
  }
  virtual void onCoflowFinished(const SimView& view, std::size_t coflow_index) {
    (void)view;
    (void)coflow_index;
  }

  /// Per-flow notifications, fired by the incremental engine immediately
  /// after the corresponding ActiveCoflowIndex mutation (the legacy
  /// engine never calls them). Stateful schedulers use them to maintain
  /// persistent per-round structures; the hook sequence tracks the index
  /// epoch one bump at a time.
  virtual void onFlowStarted(const SimView& view, std::size_t flow_index) {
    (void)view;
    (void)flow_index;
  }
  virtual void onFlowCompleted(const SimView& view, std::size_t flow_index) {
    (void)view;
    (void)flow_index;
  }

  /// Allocation-reuse handshake. Returns an opaque epoch identifying the
  /// *schedule* this scheduler would produce right now; the engine skips
  /// allocate() (and keeps the installed rates) on a round where both the
  /// active-flow membership epoch and this value are unchanged since the
  /// last install. 0 (the default) means "never reuse".
  ///
  /// Contract for implementers:
  ///  - Must be idempotent at a fixed view.now (the engine may call it
  ///    both before and after allocate() in one round).
  ///  - May apply internal state transitions (e.g. D-CLAS sync-boundary
  ///    demotions) — this is *the* per-round classification point.
  ///  - On rounds the engine ends up reusing, per-flow `sent` may be
  ///    stale (it is only materialized at install rounds); per-coflow
  ///    `sent`, all rates, and the membership index are always current.
  ///    Only opt in (return non-zero) if allocate() depends on nothing
  ///    beyond those fields and static flow data.
  virtual std::uint64_t scheduleEpoch(const SimView& view) {
    (void)view;
    return 0;
  }

  /// Fills `rates[f]` (bytes/s) for every f in *view.active_flows. The
  /// engine pre-zeroes active entries. The allocation must respect port
  /// capacities; the engine verifies this in debug builds.
  virtual void allocate(const SimView& view, std::vector<util::Rate>& rates) = 0;

  /// Coflows this scheduler's admission control decided to reject
  /// (deadline-aware disciplines only; everyone else reports 0). Purely
  /// informational: rejected coflows still receive background service so
  /// every run terminates — the engine copies this into
  /// SimResult::rejected_coflows after the run.
  virtual std::size_t rejectedCoflows() const { return 0; }

  /// Next time strictly after view.now at which this scheduler wants to
  /// re-run even if no arrival/completion occurs (coordination tick,
  /// queue-threshold crossing, LAS decision quantum). kInfTime if none.
  virtual util::Seconds nextWakeup(const SimView& view) {
    (void)view;
    return kInfTime;
  }
};

}  // namespace aalo::sim
