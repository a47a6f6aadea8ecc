#include "fabric/maxmin.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace aalo::fabric {

namespace {

constexpr double kLevelSlack = 1e-9;

// The per-round water-level sweep over the packed SoA lane columns: for
// each live lane, gather its four resource levels from the one per-resource
// `level` array, min them, scatter the result to `lvl`, and return the
// global minimum.
//
// Bit-identity with the original branching AoS loop: intra-rack lanes
// point their rack columns at a sentinel slot pinned to +infinity, and
// min(x, +inf) == x exactly; min over doubles is associative and
// commutative as long as no input is NaN or -0.0 — levels are
// residual/weight with residual finite and weight > 0 (never -0: exact
// cancellation yields +0) — so the balanced fold tree and
// the four independent running minima below produce the same bits as the
// original left-to-right chain. The compiler may not reassociate FP math
// itself, so the reassociation is spelled out to break the serial min
// dependency and let lanes pipeline.
double levelSweep(std::size_t count, const std::uint32_t* src_col,
                  const std::uint32_t* dst_col, const std::uint32_t* up_col,
                  const std::uint32_t* down_col, const double* level, double* lvl) {
  const auto laneLevel = [&](std::size_t k) {
    const double ab = std::min(level[src_col[k]], level[dst_col[k]]);
    const double cd = std::min(level[up_col[k]], level[down_col[k]]);
    return std::min(ab, cd);
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double m0 = kInf, m1 = kInf, m2 = kInf, m3 = kInf;
  std::size_t k = 0;
  for (; k + 4 <= count; k += 4) {
    const double l0 = laneLevel(k);
    const double l1 = laneLevel(k + 1);
    const double l2 = laneLevel(k + 2);
    const double l3 = laneLevel(k + 3);
    lvl[k] = l0;
    lvl[k + 1] = l1;
    lvl[k + 2] = l2;
    lvl[k + 3] = l3;
    m0 = std::min(m0, l0);
    m1 = std::min(m1, l1);
    m2 = std::min(m2, l2);
    m3 = std::min(m3, l3);
  }
  for (; k < count; ++k) {
    const double l = laneLevel(k);
    lvl[k] = l;
    m0 = std::min(m0, l);
  }
  return std::min(std::min(m0, m1), std::min(m2, m3));
}

}  // namespace

const std::vector<util::Rate>& maxMinAllocate(std::span<const Demand> demands,
                                              ResidualCapacity& residual,
                                              MaxMinScratch& scratch) {
  const std::size_t n = demands.size();
  std::vector<util::Rate>& rates = scratch.shares;
  rates.assign(n, 0.0);
  if (n == 0) return rates;

  const auto ports = static_cast<std::size_t>(residual.numPorts());
  for (const Demand& d : demands) {
    if (d.src < 0 || static_cast<std::size_t>(d.src) >= ports || d.dst < 0 ||
        static_cast<std::size_t>(d.dst) >= ports) {
      throw std::out_of_range("maxMinAllocate: demand port out of range");
    }
  }

  // Single unit-weight demand (the dominant shape of gainers-only passes
  // over narrow coflows): one min over the flow's resources, no water
  // level needed. Value-identical to the general path because x / 1.0 and
  // 1.0 * x are exact, min-folding order cannot change a minimum, and the
  // wsum columns are never touched.
  if (n == 1 && demands[0].weight == 1.0) {
    const Demand& d = demands[0];
    rates[0] = residual.available(d.src, d.dst);
    residual.consume(d.src, d.dst, rates[0]);
    return rates;
  }

  const Fabric& fabric = *residual.fabric();
  const std::size_t resources = fabric.numResources();
  const auto sentinel = static_cast<std::uint32_t>(resources);
  // Invariant: every wsum entry is zero between calls (touched entries are
  // re-zeroed on exit below), so growing with zero-fill is all that is
  // needed — no O(resources) clear per call.
  if (scratch.wsum.size() < resources) scratch.wsum.resize(resources, 0.0);
  // One sentinel slot past the real resources, pinned to +inf: intra-rack
  // demands point at it so the level loop needs no cross-rack branch.
  scratch.level.resize(resources + 1);
  scratch.level[resources] = std::numeric_limits<double>::infinity();
  scratch.ctx.resize(n);
  scratch.lane_level.resize(n);
  scratch.soa_src.clear();
  scratch.soa_dst.clear();
  scratch.soa_up.clear();
  scratch.soa_down.clear();
  scratch.lane_id.clear();
  scratch.soa_src.reserve(n);
  scratch.soa_dst.reserve(n);
  scratch.soa_up.reserve(n);
  scratch.soa_down.reserve(n);
  scratch.lane_id.reserve(n);
  scratch.lane_of.resize(n);  // Only entries of live demands are ever read.
  scratch.touched.clear();
  double* const wsum = scratch.wsum.data();

  for (std::size_t i = 0; i < n; ++i) {
    const Demand& d = demands[i];
    if (d.weight <= 0.0) continue;  // Rate stays 0.
    MaxMinScratch::DemandCtx& c = scratch.ctx[i];
    c.route = fabric.route(d.src, d.dst);
    c.weight = d.weight;
    for (const std::uint32_t r : c.route) {
      if (wsum[r] == 0.0) scratch.touched.push_back(r);
      wsum[r] += d.weight;
    }
    const bool cross = c.route.size == 4;
    scratch.lane_of[i] = static_cast<std::uint32_t>(scratch.lane_id.size());
    scratch.lane_id.push_back(static_cast<std::uint32_t>(i));
    scratch.soa_src.push_back(c.route.resource[0]);
    scratch.soa_dst.push_back(c.route.resource[1]);
    scratch.soa_up.push_back(cross ? c.route.resource[2] : sentinel);
    scratch.soa_down.push_back(cross ? c.route.resource[3] : sentinel);
  }

  // Each iteration freezes at least one flow, so this terminates in <= n
  // iterations; the guard catches logic regressions rather than input.
  std::size_t lanes = scratch.lane_id.size();
  // When a demand freezes, its lane is swap-removed (the last lane moves
  // into its slot) so the SoA columns stay dense at O(frozen) copies per
  // round — surviving lanes are never touched. lane_of keeps the
  // demand->lane map consistent under the swaps.
  const auto dropLane = [&scratch, &lanes](std::uint32_t i) {
    const std::uint32_t l = scratch.lane_of[i];
    const std::size_t last = --lanes;
    if (l != last) {
      scratch.soa_src[l] = scratch.soa_src[last];
      scratch.soa_dst[l] = scratch.soa_dst[last];
      scratch.soa_up[l] = scratch.soa_up[last];
      scratch.soa_down[l] = scratch.soa_down[last];
      scratch.lane_level[l] = scratch.lane_level[last];
      scratch.lane_id[l] = scratch.lane_id[last];
      scratch.lane_of[scratch.lane_id[l]] = l;
    }
  };
  const std::vector<util::Rate>& left = residual.left();
  std::size_t guard = n + resources + 4;
  while (lanes > 0) {
    if (guard-- == 0) throw std::logic_error("maxMinAllocate: failed to converge");

    // One division per *touched resource*, not per demand. Resources all
    // of whose demands froze keep wsum 0 and produce inf/NaN levels, but
    // no live demand reads those entries.
    for (const std::uint32_t r : scratch.touched) scratch.level[r] = left[r] / wsum[r];

    // The water level each live lane could rise to right now, plus the
    // global minimum — one dense gather/min/scatter sweep over the SoA
    // columns (see levelSweep).
    double min_level =
        levelSweep(lanes, scratch.soa_src.data(), scratch.soa_dst.data(),
                   scratch.soa_up.data(), scratch.soa_down.data(),
                   scratch.level.data(), scratch.lane_level.data());
    if (!std::isfinite(min_level)) min_level = 0.0;
    min_level = std::max(min_level, 0.0);

    // Freeze every flow constrained at (numerically) the minimum level.
    // Freezing a flow raises (never lowers) the water level of every
    // resource it leaves, so a sweep level above the cutoff is a safe
    // skip; only the few at-cutoff candidates re-read the mutated state.
    // Candidates are gathered from the dense level column (sequential
    // compare, no survivor copies at all) and processed in ascending
    // demand-index order, so the recompute/consume/weight-subtraction
    // sequence matches the reference implementation bit for bit.
    const double cutoff = min_level * (1.0 + kLevelSlack) + 1e-15;
    // Hoisted raw pointers and a manual count: a push_back in the loop
    // would force the compiler to reload the column pointers every
    // iteration (the store could alias them).
    if (scratch.freeze_cand.size() < lanes) scratch.freeze_cand.resize(lanes);
    std::uint32_t* const cand = scratch.freeze_cand.data();
    const double* const lvl = scratch.lane_level.data();
    const std::uint32_t* const lid = scratch.lane_id.data();
    std::size_t num_cand = 0;
    for (std::size_t k = 0; k < lanes; ++k) {
      // Branchless emit: the store always happens, the count only advances
      // on a hit — no mispredict per candidate.
      cand[num_cand] = lid[k];
      num_cand += lvl[k] <= cutoff ? 1 : 0;
    }
    // Candidate sets are tiny (typically the handful of flows at the
    // bottleneck), so an inline insertion sort beats std::sort's setup.
    for (std::size_t a = 1; a < num_cand; ++a) {
      const std::uint32_t v = cand[a];
      std::size_t b = a;
      for (; b > 0 && cand[b - 1] > v; --b) cand[b] = cand[b - 1];
      cand[b] = v;
    }
    const std::size_t lanes_before = lanes;
    for (std::size_t ci = 0; ci < num_cand; ++ci) {
      const std::uint32_t i = cand[ci];
      const MaxMinScratch::DemandCtx& c = scratch.ctx[i];
      // Current level against mid-pass residual/weights, mirroring the
      // reference's per-candidate recomputation.
      double level = std::numeric_limits<double>::infinity();
      for (const std::uint32_t r : c.route) level = std::min(level, left[r] / wsum[r]);
      if (level > cutoff) continue;  // Raised past the cutoff mid-pass.
      const util::Rate rate = c.weight * min_level;
      rates[i] = rate;
      residual.consume(c.route, rate);
      for (const std::uint32_t r : c.route) wsum[r] -= c.weight;
      dropLane(i);
    }
    if (lanes == lanes_before) {
      throw std::logic_error("maxMinAllocate: no progress");
    }
  }
  // Restore the all-zero wsum invariant: the freeze-pass subtractions
  // leave +/- epsilon residues on touched entries.
  for (const std::uint32_t r : scratch.touched) wsum[r] = 0.0;
  return rates;
}

std::vector<util::Rate> maxMinAllocate(const std::vector<Demand>& demands,
                                       ResidualCapacity& residual) {
  MaxMinScratch scratch;
  return maxMinAllocate(std::span<const Demand>(demands), residual, scratch);
}

std::vector<util::Rate> maxMinAllocate(const std::vector<Demand>& demands,
                                       const Fabric& fabric) {
  ResidualCapacity residual(fabric);
  return maxMinAllocate(demands, residual);
}

std::vector<util::Rate> maxMinAllocateReference(const std::vector<Demand>& demands,
                                                ResidualCapacity& residual) {
  const std::size_t n = demands.size();
  std::vector<util::Rate> rates(n, 0.0);
  if (n == 0) return rates;

  const auto ports = static_cast<std::size_t>(residual.numPorts());
  // Explicit per-port and per-rack weight sums and levels, independent of
  // Fabric::route, so the oracle checks the routed water-filling.
  const Fabric* fabric = residual.fabric();
  for (const Demand& d : demands) {
    if (d.src < 0 || static_cast<std::size_t>(d.src) >= ports || d.dst < 0 ||
        static_cast<std::size_t>(d.dst) >= ports) {
      throw std::out_of_range("maxMinAllocate: demand port out of range");
    }
  }

  std::vector<bool> frozen(n, false);
  std::vector<double> in_weight(ports, 0.0);
  std::vector<double> out_weight(ports, 0.0);
  const auto racks = static_cast<std::size_t>(fabric->numRacks());
  std::vector<double> up_weight(racks, 0.0);
  std::vector<double> down_weight(racks, 0.0);
  std::size_t unfrozen = 0;

  auto crossRack = [&](const Demand& d) { return fabric->crossRack(d.src, d.dst); };

  for (std::size_t i = 0; i < n; ++i) {
    const Demand& d = demands[i];
    if (d.weight <= 0.0) {
      frozen[i] = true;  // Rate stays 0; consumes nothing.
      continue;
    }
    in_weight[static_cast<std::size_t>(d.src)] += d.weight;
    out_weight[static_cast<std::size_t>(d.dst)] += d.weight;
    if (crossRack(d)) {
      up_weight[static_cast<std::size_t>(fabric->rackOf(d.src))] += d.weight;
      down_weight[static_cast<std::size_t>(fabric->rackOf(d.dst))] += d.weight;
    }
    ++unfrozen;
  }

  // The water level a given unfrozen demand could rise to right now.
  auto levelOf = [&](const Demand& d) {
    const auto sp = static_cast<std::size_t>(d.src);
    const auto dp = static_cast<std::size_t>(d.dst);
    double level = std::min(residual.ingress(d.src) / in_weight[sp],
                            residual.egress(d.dst) / out_weight[dp]);
    if (crossRack(d)) {
      const auto ur = static_cast<std::size_t>(fabric->rackOf(d.src));
      const auto dr = static_cast<std::size_t>(fabric->rackOf(d.dst));
      level = std::min({level, residual.rackUplink(fabric->rackOf(d.src)) / up_weight[ur],
                        residual.rackDownlink(fabric->rackOf(d.dst)) / down_weight[dr]});
    }
    return level;
  };

  std::size_t guard = n + 2 * ports + 2 * racks + 4;
  while (unfrozen > 0) {
    if (guard-- == 0) throw std::logic_error("maxMinAllocate: failed to converge");

    double min_level = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen[i]) min_level = std::min(min_level, levelOf(demands[i]));
    }
    if (!std::isfinite(min_level)) min_level = 0.0;
    min_level = std::max(min_level, 0.0);

    // Freeze every flow constrained at (numerically) the minimum level.
    const double cutoff = min_level * (1.0 + kLevelSlack) + 1e-15;
    bool froze_any = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i]) continue;
      const Demand& d = demands[i];
      if (levelOf(d) > cutoff) continue;
      const util::Rate rate = d.weight * min_level;
      rates[i] = rate;
      frozen[i] = true;
      froze_any = true;
      --unfrozen;
      residual.consume(d.src, d.dst, rate);
      in_weight[static_cast<std::size_t>(d.src)] -= d.weight;
      out_weight[static_cast<std::size_t>(d.dst)] -= d.weight;
      if (crossRack(d)) {
        up_weight[static_cast<std::size_t>(fabric->rackOf(d.src))] -= d.weight;
        down_weight[static_cast<std::size_t>(fabric->rackOf(d.dst))] -= d.weight;
      }
    }
    if (!froze_any) throw std::logic_error("maxMinAllocate: no progress");
  }
  return rates;
}

}  // namespace aalo::fabric
