// Offline lower bound on total CCT (LP-relaxation style).
//
// Treats the fabric as independent machines, one per resource a flow can
// cross (each ingress and egress port and, on an oversubscribed fabric,
// each rack uplink and downlink — every one a single machine of its own
// capacity), and relaxes the coflow-scheduling instance onto each machine
// as a single-machine preemptive total-completion-time problem — the
// relaxation behind the concurrent-open-shop LP bounds of
// Shafiee-Ghaderi (and the dual-fitting analysis already used by
// sched/offline_opt's 2-approximation). On one machine with release
// dates, preemptive SRPT is *exactly* optimal for sum of completion
// times, so
//
//   sum_c CCT_c  >=  max( sum_c iso_c ,
//                         max_m [ SRPT_m + sum_{c not on m} iso_c ] )
//
// where iso_c is coflow c's isolated completion time (its best possible
// CCT with the whole fabric to itself) and SRPT_m is the optimal sum of
// (C_j - r_j) for the per-coflow loads on machine m. Coflows whose
// release depends on a Starts-After barrier contribute their iso term
// only (their release instant is schedule-dependent); Finishes-Before
// edges can only increase real CCTs, so dropping them keeps the bound
// sound. Per-flow bytes are discounted by the
// engine's completion slack (flows snap to done slightly early) so the
// bound stays below every achievable fluid schedule.
//
// This is an *offline metric*, not a scheduler: experiments report each
// discipline's distance from the bound (achieved / bound >= 1).
#pragma once

#include <cstddef>

#include "coflow/spec.h"
#include "fabric/fabric.h"
#include "util/units.h"

namespace aalo::sched {

struct LpBoundResult {
  /// The lower bound itself: no schedule can sum CCTs below this.
  util::Seconds total_cct = 0;
  /// The aggregate-isolation term (sum of per-coflow isolated times).
  util::Seconds isolation_total = 0;
  /// The best single-machine SRPT term; total_cct = max of the two.
  util::Seconds best_machine = 0;
  std::size_t num_coflows = 0;
};

/// Computes the bound for `workload` on a fabric described by `config`,
/// rack links included.
LpBoundResult computeCctLowerBound(const coflow::Workload& workload,
                                   const fabric::FabricConfig& config);

/// Distance from the bound: achieved / bound. 1.0 when the bound is zero
/// (empty workloads). Values below 1 - 1e-6 indicate a bug in either the
/// engine or the bound — tests assert they never occur.
double boundRatio(util::Seconds achieved_total_cct, const LpBoundResult& bound);

}  // namespace aalo::sched
