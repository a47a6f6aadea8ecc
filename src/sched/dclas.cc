#include "sched/dclas.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "coflow/ids.h"

namespace aalo::sched {

double DClasConfig::queueWeight(int q) const {
  const int k = explicit_thresholds.empty()
                    ? num_queues
                    : static_cast<int>(explicit_thresholds.size()) + 1;
  return static_cast<double>(k - q);
}

std::vector<util::Bytes> DClasConfig::thresholds() const {
  if (!explicit_thresholds.empty()) {
    for (std::size_t i = 0; i < explicit_thresholds.size(); ++i) {
      if (!std::isfinite(explicit_thresholds[i])) {
        throw std::invalid_argument("DClasConfig: thresholds must be finite");
      }
      if (i > 0 && explicit_thresholds[i] <= explicit_thresholds[i - 1]) {
        throw std::invalid_argument("DClasConfig: thresholds must be ascending");
      }
    }
    return explicit_thresholds;
  }
  if (num_queues < 1) throw std::invalid_argument("DClasConfig: num_queues must be >= 1");
  if (num_queues > 1 && !(std::isfinite(exp_factor) && exp_factor > 1.0)) {
    throw std::invalid_argument("DClasConfig: exp_factor must be finite and exceed 1");
  }
  if (num_queues > 1 && !(std::isfinite(first_threshold) && first_threshold > 0)) {
    throw std::invalid_argument(
        "DClasConfig: first_threshold must be finite and positive");
  }
  std::vector<util::Bytes> t;
  util::Bytes hi = first_threshold;
  for (int q = 0; q + 1 < num_queues; ++q) {
    t.push_back(hi);
    hi *= exp_factor;
  }
  return t;
}

DClasScheduler::DClasScheduler(DClasConfig config) : config_(std::move(config)) {
  thresholds_ = config_.thresholds();
  if (!std::isfinite(config_.sync_interval) || config_.sync_interval < 0) {
    throw std::invalid_argument(
        "DClasScheduler: sync interval must be finite and non-negative");
  }
}

std::string DClasScheduler::name() const {
  std::string n = "aalo-dclas";
  if (config_.policy == DClasConfig::QueuePolicy::kStrictPriority) n += "-strict";
  if (config_.sync_interval > 0) {
    n += "-d" + util::formatSeconds(config_.sync_interval);
  }
  return n;
}

void DClasScheduler::reset(const fabric::Fabric& fabric) {
  // A residual is drained once no port can carry more than this; relative
  // to capacity because each water-filling pass leaves FP dust behind.
  util::Rate max_cap = 0;
  for (coflow::PortId p = 0; p < fabric.numPorts(); ++p) {
    max_cap = std::max(max_cap, fabric.ingressCapacity(p));
  }
  drained_threshold_ = util::kEps * max_cap;
  known_sent_.clear();
  last_sync_boundary_ = -1;
  tracked_index_ = nullptr;
  tracked_epoch_ = 0;
  for (auto& q : queues_) {
    q.members.clear();
    q.dirty = true;
  }
  queue_of_.clear();
  active_flows_of_.clear();
  in_demand_.clear();
  out_demand_.clear();
  cached_total_weight_ = -1.0;
  ++schedule_epoch_;
}

void DClasScheduler::onCoflowFinished(const sim::SimView& view,
                                      std::size_t coflow_index) {
  (void)view;
  if (coflow_index < known_sent_.size()) known_sent_[coflow_index] = 0.0;
}

void DClasScheduler::setThresholds(std::vector<util::Bytes> thresholds) {
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    if (!std::isfinite(thresholds[i])) {
      throw std::invalid_argument("setThresholds: thresholds must be finite");
    }
    if (i > 0 && thresholds[i] <= thresholds[i - 1]) {
      throw std::invalid_argument("setThresholds: thresholds must be ascending");
    }
  }
  if (!thresholds.empty() && thresholds.front() <= 0) {
    throw std::invalid_argument("setThresholds: thresholds must be positive");
  }
  thresholds_ = std::move(thresholds);
  // Every coflow may land in a different queue (and the queue count may
  // change); force a full rebuild on the next scheduling round.
  tracked_index_ = nullptr;
  ++schedule_epoch_;
}

int queueForSize(std::span<const util::Bytes> thresholds, util::Bytes size) {
  // Queue = count of thresholds <= size, i.e. the partition point where
  // the ascending threshold ladder first exceeds the attained size.
  return static_cast<int>(
      std::upper_bound(thresholds.begin(), thresholds.end(), size) -
      thresholds.begin());
}

int DClasScheduler::queueOf(util::Bytes known_size) const {
  return queueForSize(thresholds_, known_size);
}

util::Bytes DClasScheduler::knownSize(std::size_t coflow_index) const {
  return coflow_index < known_sent_.size() ? known_sent_[coflow_index] : 0.0;
}

bool DClasScheduler::tracking(const sim::SimView& view) const {
  return tracked_index_ == view.active_index &&
         tracked_epoch_ == view.active_index->epoch();
}

std::vector<std::vector<std::size_t>> DClasScheduler::queueSnapshot() const {
  std::vector<std::vector<std::size_t>> out;
  out.reserve(queues_.size());
  for (const QueueState& q : queues_) out.push_back(q.members);
  return out;
}

std::vector<std::vector<std::size_t>> DClasScheduler::referenceQueueSnapshot(
    const sim::SimView& view) const {
  std::vector<std::vector<std::size_t>> queues(thresholds_.size() + 1);
  for (const ActiveCoflow& g : view.active_index->groups()) {
    queues[static_cast<std::size_t>(queueOf(knownSize(g.coflow_index)))].push_back(
        g.coflow_index);
  }
  const coflow::CoflowIdFifoLess fifo_less;
  for (auto& members : queues) {
    std::sort(members.begin(), members.end(), [&](std::size_t a, std::size_t b) {
      return fifo_less(view.coflow(a).id, view.coflow(b).id);
    });
  }
  return queues;
}

void DClasScheduler::markQueueDirty(int q) {
  if (q >= 0 && static_cast<std::size_t>(q) < queues_.size()) {
    queues_[static_cast<std::size_t>(q)].dirty = true;
  }
}

void DClasScheduler::markAllDirty() {
  for (QueueState& q : queues_) q.dirty = true;
}

void DClasScheduler::insertTracked(const sim::SimView& view, std::size_t coflow_index) {
  const int q = queueOf(knownSize(coflow_index));
  queue_of_[coflow_index] = q;
  std::vector<std::size_t>& members = queues_[static_cast<std::size_t>(q)].members;
  const coflow::CoflowIdFifoLess fifo_less;
  const auto pos = std::lower_bound(
      members.begin(), members.end(), coflow_index,
      [&](std::size_t a, std::size_t b) {
        return fifo_less(view.coflow(a).id, view.coflow(b).id);
      });
  members.insert(pos, coflow_index);
  markQueueDirty(q);
}

void DClasScheduler::removeTracked(std::size_t coflow_index) {
  const int q = queue_of_[coflow_index];
  queue_of_[coflow_index] = -1;
  if (q < 0 || static_cast<std::size_t>(q) >= queues_.size()) return;
  std::vector<std::size_t>& members = queues_[static_cast<std::size_t>(q)].members;
  const auto it = std::find(members.begin(), members.end(), coflow_index);
  if (it != members.end()) members.erase(it);
  markQueueDirty(q);
}

void DClasScheduler::maybeDemote(const sim::SimView& view, std::size_t coflow_index) {
  if (coflow_index >= queue_of_.size()) return;
  const int q_old = queue_of_[coflow_index];
  if (q_old < 0) return;
  const int q_new = queueOf(knownSize(coflow_index));
  if (q_new == q_old) return;
  removeTracked(coflow_index);
  insertTracked(view, coflow_index);
  ++schedule_epoch_;
}

bool DClasScheduler::hookTrackable(const sim::SimView& view) {
  if (view.active_index != tracked_index_ ||
      view.active_index->epoch() != tracked_epoch_ + 1) {
    // A mutation we cannot attribute — persistent state is stale.
    tracked_index_ = nullptr;
    return false;
  }
  tracked_epoch_ = view.active_index->epoch();
  return true;
}

void DClasScheduler::onFlowStarted(const sim::SimView& view, std::size_t flow_index) {
  if (!hookTrackable(view)) return;
  const sim::FlowState& f = view.flow(flow_index);
  const std::size_t ci = f.coflow_index;
  if (ci >= queue_of_.size() || static_cast<std::size_t>(f.src) >= in_demand_.size() ||
      static_cast<std::size_t>(f.dst) >= out_demand_.size()) {
    tracked_index_ = nullptr;
    return;
  }
  ++in_demand_[static_cast<std::size_t>(f.src)];
  ++out_demand_[static_cast<std::size_t>(f.dst)];
  if (++active_flows_of_[ci] == 1) {
    insertTracked(view, ci);
  } else {
    markQueueDirty(queue_of_[ci]);
  }
  ++schedule_epoch_;
}

void DClasScheduler::onFlowCompleted(const sim::SimView& view, std::size_t flow_index) {
  if (!hookTrackable(view)) return;
  const sim::FlowState& f = view.flow(flow_index);
  const std::size_t ci = f.coflow_index;
  if (ci >= queue_of_.size() || static_cast<std::size_t>(f.src) >= in_demand_.size() ||
      static_cast<std::size_t>(f.dst) >= out_demand_.size() ||
      active_flows_of_[ci] == 0) {
    tracked_index_ = nullptr;
    return;
  }
  --in_demand_[static_cast<std::size_t>(f.src)];
  --out_demand_[static_cast<std::size_t>(f.dst)];
  if (--active_flows_of_[ci] == 0) {
    removeTracked(ci);
  } else {
    markQueueDirty(queue_of_[ci]);
  }
  ++schedule_epoch_;
}

void DClasScheduler::rebuildQueues(const sim::SimView& view) {
  const std::size_t k = thresholds_.size() + 1;
  if (queues_.size() != k) {
    queues_.assign(k, QueueState{});
  } else {
    for (QueueState& q : queues_) {
      q.members.clear();
      q.dirty = true;
    }
  }
  queue_of_.assign(view.coflows->size(), -1);
  active_flows_of_.assign(view.coflows->size(), 0);
  const auto ports = static_cast<std::size_t>(view.fabric->numPorts());
  in_demand_.assign(ports, 0);
  out_demand_.assign(ports, 0);
  for (const ActiveCoflow& g : view.active_index->groups()) {
    const std::size_t ci = g.coflow_index;
    active_flows_of_[ci] = static_cast<std::uint32_t>(g.flow_indices.size());
    for (const std::size_t fi : g.flow_indices) {
      const sim::FlowState& f = view.flow(fi);
      ++in_demand_[static_cast<std::size_t>(f.src)];
      ++out_demand_[static_cast<std::size_t>(f.dst)];
    }
    const int q = queueOf(knownSize(ci));
    queue_of_[ci] = q;
    queues_[static_cast<std::size_t>(q)].members.push_back(ci);
  }
  const coflow::CoflowIdFifoLess fifo_less;
  for (QueueState& q : queues_) {
    std::sort(q.members.begin(), q.members.end(), [&](std::size_t a, std::size_t b) {
      return fifo_less(view.coflow(a).id, view.coflow(b).id);
    });
  }
  cached_total_weight_ = -1.0;
  tracked_index_ = view.active_index;
  tracked_epoch_ = view.active_index->epoch();
  ++schedule_epoch_;
}

void DClasScheduler::ensureTracking(const sim::SimView& view) {
  if (!tracking(view)) rebuildQueues(view);
}

void DClasScheduler::maybeSync(const sim::SimView& view) {
  if (known_sent_.size() < view.coflows->size()) {
    known_sent_.resize(view.coflows->size(), 0.0);
  }
  if (config_.sync_interval <= 0) {
    // Instant coordination: the coordinator always knows the true global
    // attained service. Note: only `sent` is read, never remaining sizes.
    // One update per active coflow, not per active flow.
    for (const ActiveCoflow& g : view.active_index->groups()) {
      known_sent_[g.coflow_index] = view.coflow(g.coflow_index).sent;
      maybeDemote(view, g.coflow_index);
    }
    return;
  }
  const auto boundary = static_cast<std::int64_t>(
      std::floor((view.now + util::kEps) / config_.sync_interval));
  if (boundary <= last_sync_boundary_) return;
  last_sync_boundary_ = boundary;
  // The coordinator learned sizes at the boundary, not at view.now. Rates
  // have been constant since the previous allocation round (membership
  // changes always trigger one), so back-date each coflow's attained
  // service: sent(boundary) = sent(now) - rate * (now - boundary).
  const util::Seconds boundary_time =
      static_cast<double>(boundary) * config_.sync_interval;
  for (const ActiveCoflow& g : view.active_index->groups()) {
    const util::Rate rate = coflowAggregateRate(view, g);  // Previous round.
    const util::Bytes at_boundary = view.coflow(g.coflow_index).sent -
                                    rate * std::max(0.0, view.now - boundary_time);
    util::Bytes& known = known_sent_[g.coflow_index];
    known = std::max(known, std::max(0.0, at_boundary));
    maybeDemote(view, g.coflow_index);
  }
}

std::uint64_t DClasScheduler::scheduleEpoch(const sim::SimView& view) {
  ensureTracking(view);
  // This is the per-round coordination point: apply any sync-boundary
  // demotions now so the returned epoch reflects them. Idempotent at a
  // fixed view.now.
  maybeSync(view);
  return schedule_epoch_;
}

bool DClasScheduler::demandDrained(const fabric::ResidualCapacity& residual) const {
  // Only ports some active flow actually demands matter: a flow's
  // available rate is a min over its own ports, so "all demanded ports
  // drained" implies nothing left to hand out. Checking *every* port
  // would almost never fire in sparse phases, where most ports are idle
  // and keep their full capacity.
  const std::size_t ports = in_demand_.size();
  for (std::size_t p = 0; p < ports; ++p) {
    const auto pid = static_cast<coflow::PortId>(p);
    if (in_demand_[p] > 0 && residual.ingress(pid) > drained_threshold_) return false;
    if (out_demand_[p] > 0 && residual.egress(pid) > drained_threshold_) return false;
  }
  return true;
}

bool DClasScheduler::allocateCoflowGainers(
    const ActiveCoflow& group, fabric::ResidualCapacity& residual,
    std::vector<util::Rate>& rates,
    std::vector<std::pair<std::size_t, util::Rate>>* record) {
  // Greedy redistribution runs against a mostly-drained residual, where
  // typically only a handful of a coflow's flows can still gain anything
  // beyond FP dust. Water-filling over just those flows does the same
  // useful work at a fraction of the cost of the full-width call. The
  // filter decisions depend only on the residual and the coflow's flows,
  // both inputs that dirty a queue when they change, so a recorded
  // primary pass replays exactly.
  scratch_.demands.clear();
  gainers_scratch_.clear();
  const util::Rate drained = drained_threshold_;
  const coflow::PortId* src = group.srcs.data();
  const coflow::PortId* dst = group.dsts.data();
  const std::size_t m = group.flow_indices.size();
  for (std::size_t j = 0; j < m; ++j) {
    if (residual.available(src[j], dst[j]) > drained) {
      scratch_.demands.push_back(fabric::Demand{src[j], dst[j], 1.0});
      gainers_scratch_.push_back(group.flow_indices[j]);
    }
  }
  if (gainers_scratch_.empty()) return false;
  const std::vector<util::Rate>& shares =
      fabric::maxMinAllocate(scratch_.demands, residual, scratch_);
  for (std::size_t k = 0; k < gainers_scratch_.size(); ++k) {
    rates[gainers_scratch_[k]] += shares[k];
    if (record != nullptr) record->emplace_back(gainers_scratch_[k], shares[k]);
  }
  return true;
}

void DClasScheduler::fillQueue(const sim::SimView& view,
                               const std::vector<std::size_t>& members,
                               fabric::ResidualCapacity& residual,
                               std::vector<util::Rate>& rates,
                               std::vector<std::pair<std::size_t, util::Rate>>* record) {
  for (const std::size_t ci : members) {
    // A deep FIFO queue drains the residual after the first few coflows;
    // the rest would be handed an empty residual — skip them. Only a fill
    // can drain it: a coflow with no gainers leaves the residual as it
    // was, so a check after it could only repeat an earlier `false` — or,
    // on a fresh residual, find it drained already, when no later coflow
    // has gainers either.
    if (allocateCoflowGainers(*view.active_index->groupFor(ci), residual, rates,
                              record) &&
        demandDrained(residual)) {
      return;
    }
  }
}

void DClasScheduler::allocateGreedy(const sim::SimView& view,
                                    fabric::ResidualCapacity& residual,
                                    std::vector<util::Rate>& rates) {
  for (const QueueState& q : queues_) {
    if (demandDrained(residual)) return;
    fillQueue(view, q.members, residual, rates, nullptr);
  }
}

void DClasScheduler::allocate(const sim::SimView& view, std::vector<util::Rate>& rates) {
  ensureTracking(view);
  maybeSync(view);
  if (config_.policy == DClasConfig::QueuePolicy::kStrictPriority) {
    // Priority-ordered greedy over the whole fabric: inherently work
    // conserving. No rate caching — the residual threads through every
    // queue, so one dirty queue would invalidate everything after it.
    residual_scratch_.assignFrom(*view.fabric);
    allocateGreedy(view, residual_scratch_, rates);
  } else {
    allocateWeighted(view, rates);
  }
  if (telemetry_ != nullptr) recordTelemetry(view, rates);
}

void DClasScheduler::recordTelemetry(const sim::SimView& view,
                                     const std::vector<util::Rate>& rates) {
  DClasQueueSample sample;
  sample.now = view.now;
  const std::size_t k = thresholds_.size() + 1;
  sample.occupancy.assign(k, 0);
  sample.queue_rates.assign(k, 0.0);
  for (const ActiveCoflow& g : view.active_index->groups()) {
    const int q = queueOf(knownSize(g.coflow_index));
    util::Rate rate = 0;
    for (const std::size_t fi : g.flow_indices) rate += rates[fi];
    ++sample.occupancy[static_cast<std::size_t>(q)];
    sample.queue_rates[static_cast<std::size_t>(q)] += rate;
    sample.coflow_queues.emplace_back(g.coflow_index, q);
  }
  telemetry_->record(std::move(sample));
}

void DClasScheduler::allocateWeighted(const sim::SimView& view,
                                      std::vector<util::Rate>& rates) {
  // Weighted fair sharing between (non-empty) queues: queue q receives a
  // weight-proportional slice of every port, then excess is redistributed
  // in priority order (lines 10-14 of Pseudocode 1).
  //
  // Primary-pass results are cached per queue. A clean queue's inputs —
  // membership, FIFO order, flow endpoints, fair share, fabric — are
  // unchanged since its cache was recorded, so replaying the recorded
  // rate increments (and leftover slice) is bit-identical to recomputing.
  const int k = static_cast<int>(queues_.size());
  double total_weight = 0;
  for (int q = 0; q < k; ++q) {
    if (!queues_[static_cast<std::size_t>(q)].members.empty()) {
      total_weight += config_.queueWeight(q);
    }
  }
  if (total_weight <= 0) return;  // No active coflows.
  if (total_weight != cached_total_weight_) {
    // Every queue's fair share changed.
    markAllDirty();
    cached_total_weight_ = total_weight;
  }

  leftover_scratch_.assignFrom(*view.fabric, 0.0);
  fabric::ResidualCapacity& leftover = leftover_scratch_;
  for (int qi = 0; qi < k; ++qi) {
    QueueState& q = queues_[static_cast<std::size_t>(qi)];
    if (q.members.empty()) continue;
    if (q.dirty) {
      const double share = config_.queueWeight(qi) / total_weight;
      residual_scratch_.assignFrom(*view.fabric, share);
      fabric::ResidualCapacity& queue_residual = residual_scratch_;
      q.cached_rates.clear();
      fillQueue(view, q.members, queue_residual, rates, &q.cached_rates);
      q.left = queue_residual.left();
      q.dirty = false;
    } else {
      for (const auto& [fi, r] : q.cached_rates) rates[fi] += r;
    }
    // Pool this queue's unused slice (ports and rack links) for the
    // excess pass.
    leftover.add(q.left);
  }

  // Excess policy: hand unused capacity out again, highest priority
  // first. Always recomputed — the pooled leftover depends on every
  // queue's slice, so there is nothing stable to cache. In saturated
  // phases the pool often retains capacity only on ports no flow can
  // exploit (its peer port is drained), which keeps demandDrained from
  // firing — the gainers-only water-filling makes those coflows cheap
  // (or free, when no flow of theirs can gain).
  allocateGreedy(view, leftover, rates);
}

util::Seconds DClasScheduler::nextWakeup(const sim::SimView& view) {
  if (config_.sync_interval > 0) {
    // The real Aalo coordinator broadcasts every Δ whether or not anything
    // changed, and demotions can only land on boundaries — so waking at
    // exactly the next boundary is result-identical to predicting the
    // threshold crossing. It is also what makes boundary wake-ups with no
    // demotion reusable rounds for the incremental engine (the schedule
    // epoch is unchanged, so the installed rates stay valid).
    if (view.active_flows == nullptr || view.active_flows->empty()) {
      return sim::kInfTime;
    }
    return (std::floor((view.now + util::kEps) / config_.sync_interval) + 1.0) *
           config_.sync_interval;
  }
  // Δ = 0: the schedule only changes between events when a coflow's known
  // size crosses a queue threshold (demotion). Predict the earliest such
  // time from the just-installed rates.
  util::Seconds earliest = sim::kInfTime;
  for (const ActiveCoflow& group : view.active_index->groups()) {
    const int q = queueOf(knownSize(group.coflow_index));
    if (q >= static_cast<int>(thresholds_.size())) continue;  // Lowest queue.
    const util::Bytes threshold = thresholds_[static_cast<std::size_t>(q)];
    const util::Bytes true_sent = view.coflow(group.coflow_index).sent;
    util::Seconds cross;
    if (true_sent >= threshold) {
      cross = view.now;  // Already crossed; demote next round.
    } else {
      const util::Rate rate = coflowAggregateRate(view, group);
      if (rate <= util::kEps) continue;
      cross = view.now + (threshold - true_sent) / rate;
      // Nudge past the crossing: integration rounding must not leave
      // `sent` an ulp below the threshold at the wake round — the
      // demotion would be skipped and no new wake scheduled for it.
      cross += 1e-9 * std::max(1.0, cross);
    }
    if (cross > view.now + util::kEps) earliest = std::min(earliest, cross);
  }
  return earliest;
}

}  // namespace aalo::sched
