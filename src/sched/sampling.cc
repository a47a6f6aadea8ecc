#include "sched/sampling.h"

#include <algorithm>
#include <cmath>

namespace aalo::sched {

namespace {

/// FNV-1a over 64-bit words; scheduleEpoch hashes the priority
/// permutation with it.
std::uint64_t fnvMix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

void SamplingScheduler::reset(const fabric::Fabric& fabric) {
  (void)fabric;
  mature_order_.clear();
  immature_order_.clear();
  finish_log_.clear();
}

std::size_t SamplingScheduler::probeCount(std::size_t width) const {
  if (width == 0) return 0;
  const auto by_fraction = static_cast<std::size_t>(
      std::ceil(config_.probe_fraction * static_cast<double>(width)));
  return std::clamp(std::max(by_fraction, config_.min_probes), std::size_t{1},
                    width);
}

std::size_t SamplingScheduler::estimateTotal(const sim::SimView& view,
                                             std::size_t coflow_index,
                                             util::Bytes* out) const {
  const sim::CoflowState& c = view.coflow(coflow_index);
  const std::size_t width = c.flow_indices.size();
  const std::size_t k = probeCount(width);
  std::size_t done = 0;
  util::Bytes sum = 0;
  // Probes are the first k flows in spec order — a size-blind choice, so
  // picking them reveals nothing clairvoyant. A completed flow's `sent`
  // equals its size (the engine materializes it at completion), which is
  // exactly the attained-service information Aalo's daemons already
  // report.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t fi = c.flow_indices[i];
    if (view.flows->done[fi]) {
      ++done;
      sum += view.flows->sent_bytes[fi];
    }
  }
  if (out != nullptr && done > 0) {
    *out = sum / static_cast<double>(done) * static_cast<double>(width);
  }
  return done;
}

util::Seconds SamplingScheduler::estimatedBottleneck(
    const sim::SimView& view, const ActiveCoflow& group, util::Bytes est_total,
    const fabric::ResidualCapacity& capacity) {
  const sim::CoflowState& c = view.coflow(group.coflow_index);
  const std::size_t active = group.flow_indices.size();
  if (active == 0) return 0;
  // Remaining work under the estimate; per-coflow `sent` is maintained by
  // both engines every round, so this is reuse-safe (scheduler.h).
  const util::Bytes est_remaining = std::max(0.0, est_total - c.sent);
  const util::Bytes per_flow = est_remaining / static_cast<double>(active);
  return coflowBottleneck(view, group, capacity, scratch_,
                          [per_flow](const sim::FlowState&) { return per_flow; })
      .gamma;
}

void SamplingScheduler::classify(const sim::SimView& view) {
  const std::vector<ActiveCoflow>& groups = view.active_index->groups();
  mature_order_.clear();
  immature_order_.clear();
  gamma_scratch_.assign(groups.size(), 0.0);
  const fabric::ResidualCapacity full(*view.fabric);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const sim::CoflowState& c = view.coflow(groups[g].coflow_index);
    const std::size_t k = probeCount(c.flow_indices.size());
    util::Bytes est = 0;
    if (estimateTotal(view, groups[g].coflow_index, &est) >= k) {
      gamma_scratch_[g] = estimatedBottleneck(view, groups[g], est, full);
      mature_order_.push_back(g);
    } else {
      immature_order_.push_back(g);
    }
  }
  // Mature: smallest estimated bottleneck first (SEBF on learned sizes).
  std::sort(mature_order_.begin(), mature_order_.end(),
            [&](std::size_t a, std::size_t b) {
              if (gamma_scratch_[a] != gamma_scratch_[b]) {
                return gamma_scratch_[a] < gamma_scratch_[b];
              }
              return view.coflow(groups[a].coflow_index).id <
                     view.coflow(groups[b].coflow_index).id;
            });
  // Immature: least attained service first (LAS) so probing stays fair.
  std::sort(immature_order_.begin(), immature_order_.end(),
            [&](std::size_t a, std::size_t b) {
              const sim::CoflowState& ca = view.coflow(groups[a].coflow_index);
              const sim::CoflowState& cb = view.coflow(groups[b].coflow_index);
              if (ca.sent != cb.sent) return ca.sent < cb.sent;
              return ca.id < cb.id;
            });
}

std::uint64_t SamplingScheduler::scheduleEpoch(const sim::SimView& view) {
  // The allocation is a pure function of (membership, the two priority
  // permutations): per-coflow max-min and the backfill read only
  // endpoints and capacities. Hashing those inputs makes reuse exact —
  // the rates can only change when this value (or the membership epoch)
  // does. Everything classify() reads is reuse-safe: per-coflow `sent`,
  // done flags (completions always bump the membership epoch), and
  // completed probes' materialized `sent`.
  classify(view);
  const std::vector<ActiveCoflow>& groups = view.active_index->groups();
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnvMix(h, view.active_index->epoch());
  h = fnvMix(h, 0x6d61747572656421ull);  // Section tag: mature order.
  for (const std::size_t g : mature_order_) {
    h = fnvMix(h, groups[g].coflow_index);
  }
  h = fnvMix(h, 0x696d6d6174757265ull);  // Section tag: immature order.
  for (const std::size_t g : immature_order_) {
    h = fnvMix(h, groups[g].coflow_index);
  }
  return h == 0 ? 1 : h;
}

void SamplingScheduler::allocate(const sim::SimView& view,
                                 std::vector<util::Rate>& rates) {
  classify(view);
  const std::vector<ActiveCoflow>& groups = view.active_index->groups();
  fabric::ResidualCapacity residual(*view.fabric);

  // Splits `group` into its active probe flows (`probes == true`) or the
  // rest, reusing subgroup_scratch_. Probe membership = position < k in
  // the coflow's flow_indices, which are in arena push order (ascending),
  // so the first-k prefix is sorted and binary-searchable.
  auto subgroup = [&](const ActiveCoflow& group, bool probes) -> const ActiveCoflow& {
    const sim::CoflowState& c = view.coflow(group.coflow_index);
    const std::size_t k = probeCount(c.flow_indices.size());
    const auto probe_begin = c.flow_indices.begin();
    const auto probe_end = probe_begin + static_cast<std::ptrdiff_t>(k);
    subgroup_scratch_.coflow_index = group.coflow_index;
    subgroup_scratch_.flow_indices.clear();
    subgroup_scratch_.srcs.clear();
    subgroup_scratch_.dsts.clear();
    for (std::size_t i = 0; i < group.flow_indices.size(); ++i) {
      const std::size_t fi = group.flow_indices[i];
      if (std::binary_search(probe_begin, probe_end, fi) == probes) {
        subgroup_scratch_.flow_indices.push_back(fi);
        subgroup_scratch_.srcs.push_back(group.srcs[i]);
        subgroup_scratch_.dsts.push_back(group.dsts[i]);
      }
    }
    return subgroup_scratch_;
  };

  // Pass 1 — probes of immature coflows, LAS order: finish them fast so
  // estimates mature early (the probe set is tiny, so this steals little
  // bandwidth from mature coflows).
  for (const std::size_t g : immature_order_) {
    allocateCoflowMaxMin(view, subgroup(groups[g], /*probes=*/true), residual,
                         rates, scratch_);
  }
  // Pass 2 — mature coflows, smallest estimated bottleneck first.
  for (const std::size_t g : mature_order_) {
    allocateCoflowMaxMin(view, groups[g], residual, rates, scratch_);
  }
  // Pass 3 — the immature coflows' remaining flows, LAS order.
  for (const std::size_t g : immature_order_) {
    allocateCoflowMaxMin(view, subgroup(groups[g], /*probes=*/false), residual,
                         rates, scratch_);
  }
  // Backfill leftover capacity across all active flows.
  backfill_scratch_.assign(view.active_flows->begin(), view.active_flows->end());
  backfillMaxMin(view, backfill_scratch_, residual, rates, scratch_);
}

util::Seconds SamplingScheduler::nextWakeup(const sim::SimView& view) {
  // Attained service moves the LAS ordering and estimated remaining moves
  // the SEBF ordering between membership events; re-decide each quantum.
  if (view.active_flows->empty()) return sim::kInfTime;
  return view.now + config_.quantum;
}

void SamplingScheduler::onCoflowFinished(const sim::SimView& view,
                                         std::size_t coflow_index) {
  const sim::CoflowState& c = view.coflow(coflow_index);
  SamplingEstimate rec;
  rec.id = c.id;
  rec.actual = c.sent;
  util::Bytes est = 0;
  const std::size_t done = estimateTotal(view, coflow_index, &est);
  rec.mature = done >= probeCount(c.flow_indices.size());
  rec.estimated = done > 0 ? est : 0;
  finish_log_.push_back(rec);
  if (telemetry_ != nullptr) telemetry_->finishes.push_back(rec);
}

}  // namespace aalo::sched
