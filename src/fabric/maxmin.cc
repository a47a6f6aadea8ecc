#include "fabric/maxmin.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace aalo::fabric {

namespace {

constexpr double kLevelSlack = 1e-9;

// The per-round water-level sweep over the packed SoA lane columns: for
// each live lane, gather its four resource levels, min them against the
// lane's cap, scatter the result to `lvl`, and return the global minimum.
//
// Bit-identity with the original branching AoS loop: intra-rack lanes
// point their rack columns at a sentinel slot pinned to +infinity, and
// min(x, +inf) == x exactly; min over doubles is associative and
// commutative as long as no input is NaN or -0.0 — levels are
// residual/weight with residual finite and weight > 0 (never -0: exact
// cancellation yields +0), caps are > 0 — so the balanced fold tree and
// the four independent running minima below produce the same bits as the
// original left-to-right chain. The compiler may not reassociate FP math
// itself, so the reassociation is spelled out to break the serial min
// dependency and let lanes pipeline.
double levelSweep(std::size_t count, const std::uint32_t* src_col,
                  const std::uint32_t* dst_col, const std::uint32_t* up_col,
                  const std::uint32_t* down_col, const double* cap_col,
                  const double* lvl_in, const double* lvl_out, const double* lvl_up,
                  const double* lvl_down, double* lvl) {
  const auto laneLevel = [&](std::size_t k) {
    const double ab = std::min(lvl_in[src_col[k]], lvl_out[dst_col[k]]);
    const double cd = std::min(lvl_up[up_col[k]], lvl_down[down_col[k]]);
    return std::min(ab, std::min(cd, cap_col[k]));
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
  const Fabric* fabric = residual.fabric();  // Non-null only with racks.
  for (const Demand& d : demands) {
    if (d.src < 0 || static_cast<std::size_t>(d.src) >= ports || d.dst < 0 ||
        static_cast<std::size_t>(d.dst) >= ports) {
      throw std::out_of_range("maxMinAllocate: demand port out of range");
    }
    if (d.rate_cap < 0) throw std::invalid_argument("maxMinAllocate: negative rate cap");
  }

  // Single unit-weight demand (the dominant shape of gainers-only passes
  // over narrow coflows): one min over the flow's resources, no water
  // level needed. Value-identical to the general path because x / 1.0 and
  // 1.0 * x are exact, min-folding order cannot change a minimum, and the
  // wsum columns are never touched.
  if (n == 1 && demands[0].weight == 1.0) {
    const Demand& d = demands[0];
    if (d.rate_cap > 0.0) {
      const util::Rate rate = std::min(residual.available(d.src, d.dst), d.rate_cap);
      rates[0] = rate;
      residual.consume(d.src, d.dst, rate);
    }
    return rates;
  }

  const std::size_t racks =
      fabric != nullptr ? static_cast<std::size_t>(fabric->numRacks()) : 0;
  // Invariant: every wsum entry is zero between calls (touched entries are
  // re-zeroed on exit below), so growing with zero-fill is all that is
  // needed — no O(ports) clear per call.
  if (scratch.wsum_in.size() < ports) scratch.wsum_in.resize(ports, 0.0);
  if (scratch.wsum_out.size() < ports) scratch.wsum_out.resize(ports, 0.0);
  if (scratch.wsum_up.size() < racks) scratch.wsum_up.resize(racks, 0.0);
  if (scratch.wsum_down.size() < racks) scratch.wsum_down.resize(racks, 0.0);
  scratch.level_in.resize(ports);
  scratch.level_out.resize(ports);
  // One sentinel slot past the real racks, pinned to +inf: intra-rack
  // demands point at it so the level loop needs no cross-rack branch.
  scratch.level_up.resize(racks + 1);
  scratch.level_down.resize(racks + 1);
  scratch.level_up[racks] = std::numeric_limits<double>::infinity();
  scratch.level_down[racks] = std::numeric_limits<double>::infinity();
  scratch.ctx.resize(n);
  scratch.level.resize(n);
  scratch.soa_src.clear();
  scratch.soa_dst.clear();
  scratch.soa_up.clear();
  scratch.soa_down.clear();
  scratch.soa_cap.clear();
  scratch.lane_id.clear();
  scratch.soa_src.reserve(n);
  scratch.soa_dst.reserve(n);
  scratch.soa_up.reserve(n);
  scratch.soa_down.reserve(n);
  scratch.soa_cap.reserve(n);
  scratch.lane_id.reserve(n);
  scratch.lane_of.resize(n);  // Only entries of live demands are ever read.
  scratch.touched_in.clear();
  scratch.touched_out.clear();
  scratch.touched_up.clear();
  scratch.touched_down.clear();

  for (std::size_t i = 0; i < n; ++i) {
    const Demand& d = demands[i];
    if (d.weight <= 0.0 || d.rate_cap <= 0.0) continue;  // Rate stays 0.
    MaxMinScratch::DemandCtx& c = scratch.ctx[i];
    c.src = static_cast<std::uint32_t>(d.src);
    c.dst = static_cast<std::uint32_t>(d.dst);
    c.weight = d.weight;
    // x / 1.0 == x bitwise; unit weight is the universal case here (every
    // scheduler pass emits weight-1 demands), so skip the divide.
    c.cap_level = d.weight == 1.0 ? d.rate_cap : d.rate_cap / d.weight;
    c.rate_cap = d.rate_cap;
    if (scratch.wsum_in[c.src] == 0.0) scratch.touched_in.push_back(c.src);
    if (scratch.wsum_out[c.dst] == 0.0) scratch.touched_out.push_back(c.dst);
    scratch.wsum_in[c.src] += d.weight;
    scratch.wsum_out[c.dst] += d.weight;
    if (fabric != nullptr && fabric->crossRack(d.src, d.dst)) {
      c.up_rack = fabric->rackOf(d.src);
      c.down_rack = fabric->rackOf(d.dst);
      const auto ur = static_cast<std::size_t>(c.up_rack);
      const auto dr = static_cast<std::size_t>(c.down_rack);
      if (scratch.wsum_up[ur] == 0.0) {
        scratch.touched_up.push_back(static_cast<std::uint32_t>(ur));
      }
      if (scratch.wsum_down[dr] == 0.0) {
        scratch.touched_down.push_back(static_cast<std::uint32_t>(dr));
      }
      scratch.wsum_up[ur] += d.weight;
      scratch.wsum_down[dr] += d.weight;
    } else {
      c.up_rack = -1;
      c.down_rack = -1;
    }
    scratch.lane_of[i] = static_cast<std::uint32_t>(scratch.lane_id.size());
    scratch.lane_id.push_back(static_cast<std::uint32_t>(i));
    scratch.soa_src.push_back(c.src);
    scratch.soa_dst.push_back(c.dst);
    scratch.soa_up.push_back(c.up_rack >= 0 ? static_cast<std::uint32_t>(c.up_rack)
                                            : static_cast<std::uint32_t>(racks));
    scratch.soa_down.push_back(c.down_rack >= 0
                                   ? static_cast<std::uint32_t>(c.down_rack)
                                   : static_cast<std::uint32_t>(racks));
    scratch.soa_cap.push_back(c.cap_level);
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
      scratch.soa_cap[l] = scratch.soa_cap[last];
      scratch.level[l] = scratch.level[last];
      scratch.lane_id[l] = scratch.lane_id[last];
      scratch.lane_of[scratch.lane_id[l]] = l;
    }
  };
  std::size_t guard = n + 2 * ports + 2 * racks + 4;
  while (lanes > 0) {
    if (guard-- == 0) throw std::logic_error("maxMinAllocate: failed to converge");

    // One division per *touched resource*, not per demand. Ports all of
    // whose demands froze keep wsum 0 and produce inf/NaN levels, but no
    // live demand reads those entries.
    for (const std::uint32_t p : scratch.touched_in) {
      scratch.level_in[p] =
          residual.ingress(static_cast<coflow::PortId>(p)) / scratch.wsum_in[p];
    }
    for (const std::uint32_t p : scratch.touched_out) {
      scratch.level_out[p] =
          residual.egress(static_cast<coflow::PortId>(p)) / scratch.wsum_out[p];
    }
    for (const std::uint32_t r : scratch.touched_up) {
      scratch.level_up[r] =
          residual.rackUplink(static_cast<int>(r)) / scratch.wsum_up[r];
    }
    for (const std::uint32_t r : scratch.touched_down) {
      scratch.level_down[r] =
          residual.rackDownlink(static_cast<int>(r)) / scratch.wsum_down[r];
    }

    // The water level each live lane could rise to right now, plus the
    // global minimum — one dense gather/min/scatter sweep over the SoA
    // columns (see levelSweep).
    double min_level = levelSweep(
        lanes, scratch.soa_src.data(), scratch.soa_dst.data(),
        scratch.soa_up.data(), scratch.soa_down.data(), scratch.soa_cap.data(),
        scratch.level_in.data(), scratch.level_out.data(), scratch.level_up.data(),
        scratch.level_down.data(), scratch.level.data());
    if (!std::isfinite(min_level)) min_level = 0.0;
    min_level = std::max(min_level, 0.0);

    // Freeze every flow constrained at (numerically) the minimum level.
    // Freezing a flow raises (never lowers) the water level of every port
    // it leaves, so a sweep level above the cutoff is a safe skip; only
    // the few at-cutoff candidates re-read the mutated state. Candidates
    // are gathered from the dense level column (sequential compare, no
    // survivor copies at all) and processed in ascending demand-index
    // order, so the recompute/consume/weight-subtraction sequence matches
    // the reference implementation bit for bit.
    const double cutoff = min_level * (1.0 + kLevelSlack) + 1e-15;
    // Hoisted raw pointers and a manual count: a push_back in the loop
    // would force the compiler to reload the column pointers every
    // iteration (the store could alias them).
    if (scratch.freeze_cand.size() < lanes) scratch.freeze_cand.resize(lanes);
    std::uint32_t* const cand = scratch.freeze_cand.data();
    const double* const lvl = scratch.level.data();
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
      double level = std::min(
          residual.ingress(static_cast<coflow::PortId>(c.src)) / scratch.wsum_in[c.src],
          residual.egress(static_cast<coflow::PortId>(c.dst)) / scratch.wsum_out[c.dst]);
      level = std::min(level, c.cap_level);
      if (c.up_rack >= 0) {
        level = std::min(
            {level,
             residual.rackUplink(c.up_rack) /
                 scratch.wsum_up[static_cast<std::size_t>(c.up_rack)],
             residual.rackDownlink(c.down_rack) /
                 scratch.wsum_down[static_cast<std::size_t>(c.down_rack)]});
      }
      if (level > cutoff) continue;  // Raised past the cutoff mid-pass.
      const util::Rate rate = std::min(c.weight * min_level, c.rate_cap);
      rates[i] = rate;
      residual.consume(static_cast<coflow::PortId>(c.src),
                       static_cast<coflow::PortId>(c.dst), rate);
      scratch.wsum_in[c.src] -= c.weight;
      scratch.wsum_out[c.dst] -= c.weight;
      if (c.up_rack >= 0) {
        scratch.wsum_up[static_cast<std::size_t>(c.up_rack)] -= c.weight;
        scratch.wsum_down[static_cast<std::size_t>(c.down_rack)] -= c.weight;
      }
      dropLane(i);
    }
    if (lanes == lanes_before) {
      throw std::logic_error("maxMinAllocate: no progress");
    }
  }
  // Restore the all-zero wsum invariant: the freeze-pass subtractions
  // leave +/- epsilon residues on touched entries.
  for (const std::uint32_t p : scratch.touched_in) scratch.wsum_in[p] = 0.0;
  for (const std::uint32_t p : scratch.touched_out) scratch.wsum_out[p] = 0.0;
  for (const std::uint32_t r : scratch.touched_up) scratch.wsum_up[r] = 0.0;
  for (const std::uint32_t r : scratch.touched_down) scratch.wsum_down[r] = 0.0;
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
  const Fabric* fabric = residual.fabric();  // Non-null only with racks.
  for (const Demand& d : demands) {
    if (d.src < 0 || static_cast<std::size_t>(d.src) >= ports || d.dst < 0 ||
        static_cast<std::size_t>(d.dst) >= ports) {
      throw std::out_of_range("maxMinAllocate: demand port out of range");
    }
    if (d.rate_cap < 0) throw std::invalid_argument("maxMinAllocate: negative rate cap");
  }

  std::vector<bool> frozen(n, false);
  std::vector<double> wsum_in(ports, 0.0);
  std::vector<double> wsum_out(ports, 0.0);
  const std::size_t racks =
      fabric != nullptr ? static_cast<std::size_t>(fabric->numRacks()) : 0;
  std::vector<double> wsum_up(racks, 0.0);
  std::vector<double> wsum_down(racks, 0.0);
  std::size_t unfrozen = 0;

  auto crossRack = [&](const Demand& d) {
    return fabric != nullptr && fabric->crossRack(d.src, d.dst);
  };

  for (std::size_t i = 0; i < n; ++i) {
    const Demand& d = demands[i];
    if (d.weight <= 0.0 || d.rate_cap <= 0.0) {
      frozen[i] = true;  // Rate stays 0; consumes nothing.
      continue;
    }
    wsum_in[static_cast<std::size_t>(d.src)] += d.weight;
    wsum_out[static_cast<std::size_t>(d.dst)] += d.weight;
    if (crossRack(d)) {
      wsum_up[static_cast<std::size_t>(fabric->rackOf(d.src))] += d.weight;
      wsum_down[static_cast<std::size_t>(fabric->rackOf(d.dst))] += d.weight;
    }
    ++unfrozen;
  }

  // The water level a given unfrozen demand could rise to right now.
  auto levelOf = [&](const Demand& d) {
    const auto sp = static_cast<std::size_t>(d.src);
    const auto dp = static_cast<std::size_t>(d.dst);
    double level = std::min(residual.ingress(d.src) / wsum_in[sp],
                            residual.egress(d.dst) / wsum_out[dp]);
    level = std::min(level, d.rate_cap / d.weight);
    if (crossRack(d)) {
      const auto ur = static_cast<std::size_t>(fabric->rackOf(d.src));
      const auto dr = static_cast<std::size_t>(fabric->rackOf(d.dst));
      level = std::min({level, residual.rackUplink(fabric->rackOf(d.src)) / wsum_up[ur],
                        residual.rackDownlink(fabric->rackOf(d.dst)) / wsum_down[dr]});
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
      const util::Rate rate = std::min(d.weight * min_level, d.rate_cap);
      rates[i] = rate;
      frozen[i] = true;
      froze_any = true;
      --unfrozen;
      residual.consume(d.src, d.dst, rate);
      wsum_in[static_cast<std::size_t>(d.src)] -= d.weight;
      wsum_out[static_cast<std::size_t>(d.dst)] -= d.weight;
      if (crossRack(d)) {
        wsum_up[static_cast<std::size_t>(fabric->rackOf(d.src))] -= d.weight;
        wsum_down[static_cast<std::size_t>(fabric->rackOf(d.dst))] -= d.weight;
      }
    }
    if (!froze_any) throw std::logic_error("maxMinAllocate: no progress");
  }
  return rates;
}

}  // namespace aalo::fabric
