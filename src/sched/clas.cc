#include "sched/clas.h"

#include <algorithm>

namespace aalo::sched {

namespace {

/// Chatter guard (see nextWakeup): a catch-up wake sooner than
/// quantum / kChaseDivisor counts as a chase; after kChaseRunLimit
/// consecutive chases, catch-ups are deferred to that floor until a
/// wake-up finds no coflow catching up with another.
constexpr double kChaseDivisor = 50;
constexpr std::size_t kChaseRunLimit = 1000;

}  // namespace

ContinuousClasScheduler::ContinuousClasScheduler(ClasConfig config) : config_(config) {}

void ContinuousClasScheduler::reset(const fabric::Fabric& fabric) {
  (void)fabric;
  chase_run_ = 0;
}

void ContinuousClasScheduler::allocate(const sim::SimView& view,
                                       std::vector<util::Rate>& rates) {
  const std::vector<ActiveCoflow>& groups = view.active_index->groups();
  // Sort an index array over the (const) grouping instead of copying it.
  order_.assign(groups.size(), nullptr);
  for (std::size_t g = 0; g < groups.size(); ++g) order_[g] = &groups[g];
  std::sort(order_.begin(), order_.end(),
            [&](const ActiveCoflow* a, const ActiveCoflow* b) {
              const util::Bytes sa = view.coflow(a->coflow_index).sent;
              const util::Bytes sb = view.coflow(b->coflow_index).sent;
              if (sa != sb) return sa < sb;
              return view.coflow(a->coflow_index).id < view.coflow(b->coflow_index).id;
            });

  fabric::ResidualCapacity residual(*view.fabric);
  // Walk tie groups in least-attained order; tied coflows share the
  // residual jointly with per-coflow (not per-flow) fairness.
  std::vector<std::size_t> flat;
  std::size_t i = 0;
  while (i < order_.size()) {
    std::size_t j = i + 1;
    const util::Bytes base = view.coflow(order_[i]->coflow_index).sent;
    while (j < order_.size() &&
           view.coflow(order_[j]->coflow_index).sent - base <= config_.tie_window) {
      ++j;
    }
    scratch_.demands.clear();
    flat.clear();
    for (std::size_t g = i; g < j; ++g) {
      const double per_flow_weight =
          1.0 / static_cast<double>(order_[g]->flow_indices.size());
      for (const std::size_t fi : order_[g]->flow_indices) {
        const sim::FlowState& f = view.flow(fi);
        scratch_.demands.push_back(fabric::Demand{f.src, f.dst, per_flow_weight});
        flat.push_back(fi);
      }
    }
    const std::vector<util::Rate>& shares =
        fabric::maxMinAllocate(scratch_.demands, residual, scratch_);
    for (std::size_t k = 0; k < flat.size(); ++k) rates[flat[k]] += shares[k];
    i = j;
  }
}

util::Seconds ContinuousClasScheduler::nextWakeup(const sim::SimView& view) {
  // Re-run when a served coflow is about to catch up with the attained
  // service of a (currently less-served, hence higher-priority) peer.
  std::vector<const sim::CoflowState*> active;
  std::vector<util::Rate> agg_rate;
  const std::vector<ActiveCoflow>& groups = view.active_index->groups();
  for (const ActiveCoflow& g : groups) {
    active.push_back(&view.coflow(g.coflow_index));
    agg_rate.push_back(coflowAggregateRate(view, g));
  }
  util::Seconds catch_up = sim::kInfTime;
  for (std::size_t a = 0; a < active.size(); ++a) {
    for (std::size_t b = 0; b < active.size(); ++b) {
      if (a == b) continue;
      const util::Bytes gap = active[b]->sent - active[a]->sent;
      const util::Rate closing = agg_rate[a] - agg_rate[b];
      if (gap > config_.tie_window && closing > util::kEps) {
        catch_up = std::min(catch_up, view.now + gap / closing);
      }
    }
  }
  // Chatter guard. Tied coflows bottlenecked on different resources (a
  // rack link for some, ports for others) gain service at different
  // aggregate rates, drift past the tie window within microseconds and
  // are caught up again: every such wake moves the cluster by about one
  // tie window, so a multi-GB cluster would take millions of rounds.
  // Once catch-ups keep landing closer than the chase floor, they are
  // deferred to it until the chase ends; the cluster then drifts apart
  // by at most floor x rate before the lagging coflow regains priority.
  // The run limit sits well above the longest chase of a rack-free
  // trace, where tied coflows settle by themselves.
  const util::Seconds chase_floor = config_.quantum / kChaseDivisor;
  if (catch_up < view.now + chase_floor) {
    ++chase_run_;
  } else if (chase_run_ <= kChaseRunLimit || catch_up == sim::kInfTime) {
    chase_run_ = 0;
  }
  if (chase_run_ > kChaseRunLimit) catch_up = std::max(catch_up, view.now + chase_floor);
  return std::min(view.now + config_.quantum, catch_up);
}

}  // namespace aalo::sched
