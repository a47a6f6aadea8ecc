// Per-coflow and per-job results of one simulation run.
#pragma once

#include <string>
#include <vector>

#include "coflow/ids.h"
#include "util/units.h"

namespace aalo::sim {

struct CoflowRecord {
  coflow::CoflowId id;
  coflow::JobId job = 0;
  util::Seconds spec_arrival = 0;  ///< When the coflow wanted to start.
  util::Seconds release = 0;       ///< When Starts-After parents allowed it.
  util::Seconds finish_own = 0;    ///< Last own flow completion.
  util::Seconds finish = 0;        ///< After Finishes-Before adjustment.
  util::Bytes bytes = 0;
  util::Bytes max_flow_bytes = 0;  ///< Coflow length (§7.1).
  std::size_t width = 0;           ///< Number of flows.
  /// Completion deadline relative to release (0 = none), from the spec.
  util::Seconds deadline = 0;

  /// Completion time as the paper measures it: from when the coflow could
  /// first send (its release) until all of its flows are done and every
  /// pipelined parent has finished.
  util::Seconds cct() const { return finish - release; }

  bool hasDeadline() const { return deadline > 0; }
  /// Deadline verdict with a small tolerance so fluid-rate rounding at
  /// the boundary never flips a met deadline to missed.
  bool missedDeadline() const { return hasDeadline() && cct() > deadline + 1e-9; }
};

struct JobRecord {
  coflow::JobId id = 0;
  util::Seconds arrival = 0;
  util::Seconds comm_finish = 0;   ///< Last coflow (adjusted) finish.
  util::Seconds compute_time = 0;  ///< Modeled non-communication time.

  /// End-to-end job completion time: communication critical path plus the
  /// job's serial compute time.
  util::Seconds jct() const { return (comm_finish - arrival) + compute_time; }
  /// Time attributable to communication alone.
  util::Seconds commTime() const { return comm_finish - arrival; }
  /// Fraction of the job spent in communication (Table 2 binning).
  double commFraction() const {
    const util::Seconds total = jct();
    return total > 0 ? commTime() / total : 0.0;
  }
};

struct SimResult {
  std::string scheduler;
  std::vector<CoflowRecord> coflows;
  std::vector<JobRecord> jobs;
  util::Seconds makespan = 0;
  /// Coflows that carried a deadline, and how many of those finished past
  /// it (rejected coflows count as misses once their CCT overruns).
  std::size_t deadline_coflows = 0;
  std::size_t deadline_misses = 0;
  /// Coflows the scheduler's admission control rejected (deadline-aware
  /// disciplines only; they still complete under background service).
  std::size_t rejected_coflows = 0;
  /// Engine statistics (useful for perf sanity checks).
  std::size_t allocation_rounds = 0;
  /// Rounds where the scheduler was actually asked for a new allocation.
  std::size_t allocate_calls = 0;
  /// Rounds where the installed rates were reused via the scheduleEpoch
  /// handshake (allocation_rounds = allocate_calls + reused_allocations
  /// under the incremental engine; reuse is 0 under the legacy engine).
  std::size_t reused_allocations = 0;
  /// The next three counters keep names from an earlier heap-based
  /// engine; all three are 0 under the legacy engine.
  /// Allocation installs by the incremental engine (equal to
  /// allocate_calls there).
  std::size_t heap_rebuilds = 0;
  /// Flow completions swept by the incremental engine.
  std::size_t events_processed = 0;
  /// Per-flow rate changes installed by the incremental engine: flows
  /// whose installed rate differs from the previous install's.
  std::size_t heap_rekeys = 0;

  /// Sum of CCTs — the unit-weighted "weighted CCT" objective the
  /// LP lower bound (sched/lp_bound.h) is compared against.
  util::Seconds totalCct() const {
    util::Seconds total = 0;
    for (const CoflowRecord& c : coflows) total += c.cct();
    return total;
  }
  /// Fraction of deadlined coflows that missed (0 when none carried one).
  double deadlineMissRate() const {
    return deadline_coflows > 0
               ? static_cast<double>(deadline_misses) /
                     static_cast<double>(deadline_coflows)
               : 0.0;
  }
};

}  // namespace aalo::sim
