// Weighted max-min fair rate allocation via progressive water-filling.
//
// Used in three places: per-flow fairness across the whole fabric (the TCP
// baseline), max-min among flows *within* a coflow (line 6 of Pseudocode 1
// — no flow-size information, so this is the only sensible discipline),
// and excess redistribution between D-CLAS queues (line 14).
//
// The allocator is called on every scheduler round of every simulation, so
// the primary entry point is allocation-free: all intermediate state lives
// in a caller-owned MaxMinScratch arena that is reused across calls. The
// water-filling iteration computes one water level per *resource* (port or
// rack link, see Fabric::route) instead of one per demand, then takes
// cheap minima per demand — the level of a demand is the minimum of its
// route's levels. Demands carry no rate cap: every caller wants plain
// max-min within the residual it passes. A slower reference
// implementation (maxMinAllocateReference) is retained for randomized
// equivalence testing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coflow/ids.h"
#include "fabric/fabric.h"
#include "util/units.h"

namespace aalo::fabric {

/// One flow's demand entry for the water-filling pass.
struct Demand {
  coflow::PortId src = 0;
  coflow::PortId dst = 0;
  /// Weighted fairness: a flow with weight 2 gets twice the share of a
  /// weight-1 flow at every shared bottleneck.
  double weight = 1.0;
};

/// Reusable buffers for the water-filling pass and its callers. One arena
/// per scheduler (or per thread) amortizes every heap allocation on the
/// allocation hot path. The arena carries no state between calls — only
/// capacity — so it never needs resetting.
struct MaxMinScratch {
  /// Caller-assembled demand list (for helpers that build demands on the
  /// fly, e.g. sched::allocateCoflowMaxMin). maxMinAllocate may be called
  /// with this vector as its input span; it does not modify it.
  std::vector<Demand> demands;
  /// Rates of the last maxMinAllocate call, aligned with its input.
  std::vector<util::Rate> shares;

  // --- internal to maxMinAllocate -----------------------------------------
  /// Per-demand precomputed route and weight.
  struct DemandCtx {
    Route route;
    double weight = 1.0;
  };
  std::vector<DemandCtx> ctx;
  /// Summed weight of the live demands crossing each resource (indexed
  /// like Fabric::capacities()); all zero between calls.
  std::vector<double> wsum;
  /// Water level of each resource, plus one sentinel slot past the last
  /// resource pinned to +infinity: demands that stay inside a rack point
  /// their SoA rack columns at it, so the per-lane level loop is
  /// branch-free — min(x, +inf) == x exactly, preserving bit-identical
  /// results.
  std::vector<double> level;
  std::vector<double> lane_level;  ///< Water level of each live lane, by lane.
  /// Demand indices whose sweep level sits at the round's cutoff,
  /// re-sorted ascending so freezes happen in reference order.
  std::vector<std::uint32_t> freeze_cand;
  /// Packed SoA columns over the *live* demands ("lanes"): the four
  /// resource indices of each lane's route into `level` (soa_up/soa_down
  /// hold the sentinel slot for an intra-rack lane). The water-level
  /// sweep — the hot inner loop of every scheduler round — reads only
  /// these columns: contiguous, branch-free gather/min per lane, no
  /// DemandCtx pointer chasing. Lanes are kept dense by swap-removing a
  /// lane when its demand freezes (O(frozen) per round, not
  /// O(survivors)), so lane order is arbitrary; the freeze pass walks the
  /// index-ordered candidate list and maps through lane_of, keeping the
  /// consume/subtraction sequence bit-identical to the reference.
  std::vector<std::uint32_t> soa_src, soa_dst, soa_up, soa_down;
  std::vector<std::uint32_t> lane_id;  ///< lane -> demand index.
  std::vector<std::uint32_t> lane_of;  ///< demand index -> lane.
  /// Resources referenced by at least one live demand — the level refresh
  /// loops over these, so a call with few demands on a large fabric costs
  /// O(demands), not O(ports).
  std::vector<std::uint32_t> touched;

  // --- per-resource byte load (sched::addCoflowLoad) ----------------------
  std::vector<util::Bytes> load;
};

/// Computes weighted max-min fair rates for `demands` against `residual`,
/// consuming the capacity it hands out. Returns `scratch.shares` resized
/// and aligned with `demands`. Weight <= 0 yields rate 0.
///
/// Algorithm: repeatedly find the tightest constraint — the resource whose
/// residual divided by the total weight of unfrozen flows crossing it is
/// minimal — freeze the affected flows at the implied water level,
/// subtract, and continue. Each
/// iteration costs O(touched resources) divisions plus O(live demands)
/// minima; at most (resources + demands) iterations.
const std::vector<util::Rate>& maxMinAllocate(std::span<const Demand> demands,
                                              ResidualCapacity& residual,
                                              MaxMinScratch& scratch);

/// Convenience overload using a transient scratch arena. Prefer the
/// scratch-threaded overload on hot paths.
std::vector<util::Rate> maxMinAllocate(const std::vector<Demand>& demands,
                                       ResidualCapacity& residual);

/// Convenience overload: allocate against a fresh copy of the fabric's
/// full capacity.
std::vector<util::Rate> maxMinAllocate(const std::vector<Demand>& demands,
                                       const Fabric& fabric);

/// The original (pre-arena) progressive-filling implementation, retained
/// verbatim as the oracle for randomized equivalence tests. Semantically
/// identical to maxMinAllocate; O(demands) work per iteration with two
/// level computations per live demand.
std::vector<util::Rate> maxMinAllocateReference(const std::vector<Demand>& demands,
                                                ResidualCapacity& residual);

}  // namespace aalo::fabric
