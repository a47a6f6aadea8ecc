#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "sim/metrics.h"
#include "util/units.h"

namespace aalo::sim {

namespace {

// Bytes closer to completion than this snap to done (fluid-rate rounding).
constexpr util::Bytes kCompletionSlackBytes = 1e-3;

struct TimelineEvent {
  util::Seconds time = 0;
  enum class Kind { kCoflowRelease, kFlowRelease } kind = Kind::kCoflowRelease;
  std::size_t index = 0;  ///< Coflow or flow index depending on kind.
  std::uint64_t seq = 0;  ///< FIFO tie-break for equal times.
};

struct EventLater {
  bool operator()(const TimelineEvent& a, const TimelineEvent& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// All mutable state of one run, torn down when run() returns.
class Run {
 public:
  Run(const fabric::FabricConfig& fabric_config, Scheduler& scheduler,
      const SimOptions& options, const coflow::Workload& workload)
      : fabric_(fabric_config),
        scheduler_(scheduler),
        options_(options),
        workload_(workload),
        incremental_(options.incremental_engine) {
    buildState();
  }

  SimResult execute();

 private:
  void buildState();
  void pushEvent(util::Seconds time, TimelineEvent::Kind kind, std::size_t index);
  void processDueEvents();
  void releaseCoflow(std::size_t ci);
  void releaseFlow(std::size_t fi);
  void finishCoflow(std::size_t ci);
  SimView makeView() const;
  void verifyAllocation() const;
  SimResult buildResult();

  SimResult executeLegacy();
  SimResult executeIncremental();
  void installAllocation(const SimView& view);
  void sweepCompletions();

  static util::Bytes slackFor(util::Bytes size) {
    return std::max(kCompletionSlackBytes, 1e-9 * size);
  }

  fabric::Fabric fabric_;
  Scheduler& scheduler_;
  const SimOptions& options_;
  const coflow::Workload& workload_;
  const bool incremental_;

  std::vector<CoflowState> coflows_;
  FlowArena flows_;
  std::vector<std::size_t> active_flows_;
  ActiveCoflowIndex active_index_;
  std::vector<util::Rate> rates_;

  // Spec back-references and dependency bookkeeping, parallel to coflows_.
  std::vector<const coflow::CoflowSpec*> specs_;
  std::vector<int> barrier_parents_left_;
  std::vector<std::vector<std::size_t>> barrier_children_;
  std::vector<std::vector<std::size_t>> fb_parents_;  // finishes-before
  std::unordered_map<coflow::CoflowId, std::size_t> index_of_;

  std::priority_queue<TimelineEvent, std::vector<TimelineEvent>, EventLater> timeline_;
  std::uint64_t event_seq_ = 0;
  util::Seconds now_ = 0;
  std::size_t coflows_done_ = 0;
  std::size_t rounds_ = 0;

  // --- Incremental-engine state --------------------------------------
  // Per-coflow aggregate installed rate (SimView::coflow_rates).
  std::vector<util::Rate> coflow_rate_;
  // Slot-packed mirrors of the active flows, aligned with active_flows_
  // (slot k describes flow active_flows_[k]; swap-removed in lockstep).
  // Between installs slot_sent_ is the *canonical* attained service of
  // active flows — the arena column is synced at install rounds (before
  // the scheduler reads it) and at completions, which the scheduleEpoch
  // contract already permits.
  std::vector<util::Rate> slot_rate_;
  std::vector<util::Bytes> slot_sent_;
  std::vector<util::Bytes> slot_size_;
  std::vector<std::uint32_t> slot_coflow_;
  // Busy slots, ascending: those whose installed rate is nonzero or whose
  // remaining bytes are within slack. Every other slot is idle — it cannot
  // change state before the next install — so the per-round passes visit
  // only these. Rebuilt by each install; only the sweep shrinks it.
  std::vector<std::uint32_t> busy_;
  bool installed_ = false;
  std::uint64_t installed_index_epoch_ = 0;
  std::uint64_t installed_sched_epoch_ = 0;
  std::size_t allocate_calls_ = 0;
  std::size_t reused_allocations_ = 0;
  std::size_t rate_changes_ = 0;      ///< Per-flow rate changes installed.
  std::size_t flow_completions_ = 0;
};

void Run::buildState() {
  workload_.validate();
  if (workload_.num_ports != fabric_.numPorts()) {
    throw std::invalid_argument("Simulator: workload/fabric port count mismatch");
  }

  for (const coflow::JobSpec& job : workload_.jobs) {
    for (const coflow::CoflowSpec& spec : job.coflows) {
      const std::size_t ci = coflows_.size();
      index_of_[spec.id] = ci;
      specs_.push_back(&spec);
      CoflowState cs;
      cs.id = spec.id;
      cs.job = job.id;
      cs.spec_arrival = job.arrival + spec.arrival_offset;
      cs.deadline = spec.deadline;
      for (const coflow::FlowSpec& fs : spec.flows) {
        FlowState f;
        f.id = static_cast<coflow::FlowId>(flows_.size());
        f.coflow_index = ci;
        f.src = fs.src;
        f.dst = fs.dst;
        f.size = fs.bytes;
        cs.flow_indices.push_back(flows_.push(f));
      }
      coflows_.push_back(std::move(cs));
    }
  }

  barrier_parents_left_.assign(coflows_.size(), 0);
  barrier_children_.assign(coflows_.size(), {});
  fb_parents_.assign(coflows_.size(), {});
  std::size_t ci = 0;
  for (const coflow::JobSpec& job : workload_.jobs) {
    for (const coflow::CoflowSpec& spec : job.coflows) {
      for (const coflow::CoflowId& pid : spec.starts_after) {
        const std::size_t pi = index_of_.at(pid);
        barrier_children_[pi].push_back(ci);
        ++barrier_parents_left_[ci];
      }
      for (const coflow::CoflowId& pid : spec.finishes_before) {
        fb_parents_[ci].push_back(index_of_.at(pid));
      }
      ++ci;
    }
  }

  rates_.assign(flows_.size(), 0.0);
  active_index_.reset(coflows_.size(), flows_.size());
  for (std::size_t i = 0; i < coflows_.size(); ++i) {
    if (barrier_parents_left_[i] == 0) {
      pushEvent(coflows_[i].spec_arrival, TimelineEvent::Kind::kCoflowRelease, i);
    }
  }
}

void Run::pushEvent(util::Seconds time, TimelineEvent::Kind kind, std::size_t index) {
  timeline_.push(TimelineEvent{time, kind, index, event_seq_++});
}

SimView Run::makeView() const {
  SimView view;
  view.now = now_;
  view.fabric = &fabric_;
  view.coflows = &coflows_;
  view.flows = &flows_;
  view.active_flows = &active_flows_;
  view.active_index = &active_index_;
  if (incremental_) view.coflow_rates = &coflow_rate_;
  return view;
}

void Run::releaseCoflow(std::size_t ci) {
  CoflowState& c = coflows_[ci];
  c.released = true;
  c.release_time = now_;
  const coflow::CoflowSpec& spec = *specs_[ci];
  for (std::size_t k = 0; k < spec.flows.size(); ++k) {
    const std::size_t fi = c.flow_indices[k];
    const util::Seconds offset = spec.flows[k].start_offset;
    if (offset <= 0) {
      releaseFlow(fi);
    } else {
      pushEvent(now_ + offset, TimelineEvent::Kind::kFlowRelease, fi);
    }
  }
  scheduler_.onCoflowReleased(makeView(), ci);
}

void Run::releaseFlow(std::size_t fi) {
  flows_.started[fi] = 1;
  flows_.release_time[fi] = now_;
  active_flows_.push_back(fi);
  active_index_.addFlow(flows_.coflow_of[fi], fi, flows_.src_port[fi],
                        flows_.dst_port[fi]);
  coflows_[flows_.coflow_of[fi]].size_released += flows_.size_bytes[fi];
  if (incremental_) {
    slot_rate_.push_back(flows_.rate[fi]);
    slot_sent_.push_back(flows_.sent_bytes[fi]);
    slot_size_.push_back(flows_.size_bytes[fi]);
    slot_coflow_.push_back(flows_.coflow_of[fi]);
    scheduler_.onFlowStarted(makeView(), fi);
  }
}

void Run::finishCoflow(std::size_t ci) {
  CoflowState& c = coflows_[ci];
  c.done = true;
  c.finish_time = now_;
  ++coflows_done_;
  scheduler_.onCoflowFinished(makeView(), ci);
  for (const std::size_t child : barrier_children_[ci]) {
    if (--barrier_parents_left_[child] == 0) {
      pushEvent(std::max(now_, coflows_[child].spec_arrival),
                TimelineEvent::Kind::kCoflowRelease, child);
    }
  }
}

void Run::processDueEvents() {
  while (!timeline_.empty() && timeline_.top().time <= now_ + util::kEps) {
    const TimelineEvent ev = timeline_.top();
    timeline_.pop();
    switch (ev.kind) {
      case TimelineEvent::Kind::kCoflowRelease:
        releaseCoflow(ev.index);
        break;
      case TimelineEvent::Kind::kFlowRelease:
        releaseFlow(ev.index);
        break;
    }
  }
}

void Run::verifyAllocation() const {
  std::vector<util::Rate> load(fabric_.numResources(), 0.0);
  for (const std::size_t fi : active_flows_) {
    const util::Rate rate = flows_.rate[fi];
    if (rate < 0) throw std::logic_error("Simulator: negative rate from scheduler");
    const fabric::Route route = fabric_.route(flows_.src_port[fi], flows_.dst_port[fi]);
    for (const std::uint32_t r : route) load[r] += rate;
  }
  const double tol = 1e-6;
  const std::vector<util::Rate>& capacity = fabric_.capacities();
  for (std::size_t r = 0; r < load.size(); ++r) {
    if (load[r] > capacity[r] * (1.0 + tol) + util::kEps) {
      throw std::logic_error("Simulator: allocation exceeds link capacity (" +
                             scheduler_.name() + ")");
    }
  }
}

SimResult Run::execute() {
  return incremental_ ? executeIncremental() : executeLegacy();
}

SimResult Run::executeLegacy() {
  scheduler_.reset(fabric_);
  processDueEvents();  // Releases everything due at t = 0.

  while (true) {
    if (active_flows_.empty()) {
      if (timeline_.empty()) break;  // All done.
      now_ = timeline_.top().time;
      processDueEvents();
      continue;
    }

    if (++rounds_ > options_.max_rounds) {
      throw std::runtime_error("Simulator: exceeded max rounds (" + scheduler_.name() +
                               ")");
    }

    for (const std::size_t fi : active_flows_) rates_[fi] = 0.0;
    const SimView view = makeView();
    scheduler_.allocate(view, rates_);
    for (const std::size_t fi : active_flows_) {
      flows_.rate[fi] = std::max(0.0, rates_[fi]);
    }
    if (options_.verify_allocations) verifyAllocation();

    // Earliest next state change.
    util::Seconds t_next = timeline_.empty() ? kInfTime : timeline_.top().time;
    for (const std::size_t fi : active_flows_) {
      const util::Rate rate = flows_.rate[fi];
      if (rate > util::kEps) {
        t_next = std::min(t_next, now_ + (flows_.size_bytes[fi] - flows_.sent_bytes[fi]) / rate);
      }
    }
    const util::Seconds wake = scheduler_.nextWakeup(view);
    if (wake > now_) t_next = std::min(t_next, wake);

    if (!std::isfinite(t_next)) {
      throw std::runtime_error("Simulator: starvation deadlock under scheduler " +
                               scheduler_.name());
    }
    t_next = std::max(t_next, now_);  // Guard against wake-ups in the past.

    // Integrate.
    const util::Seconds dt = t_next - now_;
    if (dt > 0) {
      for (const std::size_t fi : active_flows_) {
        const util::Rate rate = flows_.rate[fi];
        if (rate <= 0) continue;
        const util::Bytes delta =
            std::min(rate * dt, flows_.size_bytes[fi] - flows_.sent_bytes[fi]);
        flows_.sent_bytes[fi] += delta;
        coflows_[flows_.coflow_of[fi]].sent += delta;
      }
    }
    now_ = t_next;

    // Flow completions (snap near-complete flows). The second clause is
    // the clock-resolution rule: at large now_ a nearly-done flow's
    // remaining transfer time can round below one ulp of the clock, so
    // its predicted completion equals now_ exactly — every round would
    // then pick dt = 0 and the state never advances. A flow whose
    // completion cannot move the clock is done at the fluid model's time
    // resolution; snapping it is the only way the run can make progress.
    for (std::size_t k = 0; k < active_flows_.size();) {
      const std::size_t fi = active_flows_[k];
      const util::Bytes remaining = flows_.size_bytes[fi] - flows_.sent_bytes[fi];
      const util::Rate frate = flows_.rate[fi];
      if (remaining <= slackFor(flows_.size_bytes[fi]) ||
          (frate > util::kEps && now_ + remaining / frate <= now_)) {
        const std::size_t ci = flows_.coflow_of[fi];
        coflows_[ci].sent += remaining;  // Account the snap.
        flows_.sent_bytes[fi] = flows_.size_bytes[fi];
        flows_.done[fi] = 1;
        flows_.rate[fi] = 0;
        active_flows_[k] = active_flows_.back();
        active_flows_.pop_back();
        active_index_.removeFlow(ci, fi);
        CoflowState& c = coflows_[ci];
        if (++c.flows_done == c.flow_indices.size()) {
          finishCoflow(ci);
        }
      } else {
        ++k;
      }
    }

    processDueEvents();
  }

  if (coflows_done_ != coflows_.size()) {
    throw std::runtime_error("Simulator: run ended with unfinished coflows");
  }
  allocate_calls_ = rounds_;
  return buildResult();
}

// --- Incremental engine ----------------------------------------------
//
// Produces trajectories equivalent to executeLegacy() — bit-identical
// finish times and identical round counts (tests/engine_equivalence_test.cc
// holds every scheduler to that bar). Every per-round expression — the
// t_next minimum, the integration step, the completion condition and the
// completion-sweep scan order — is the legacy loop's, evaluated over the
// slot columns: schedulers that compare exact attained service
// (continuous CLAS's sort, D-CLAS threshold back-dating) amplify any
// drift into different scheduling decisions. The engine's savings:
//
//  1. Allocation reuse. Every membership change bumps the active-index
//     epoch, and schedulers opt in via scheduleEpoch(). When both epochs
//     match the installed pair, the round skips rate zeroing,
//     allocate(), the rate copy, and verification outright.
//  2. Per-coflow aggregate rates (SimView::coflow_rates), rebuilt once
//     per install by summing flow rates in group flow-index order —
//     bitwise equal to the per-flow fallback sum in
//     coflowAggregateRate().
//  3. Slot-packed SoA state. Active flows' (rate, sent, size, coflow)
//     live in dense arrays aligned with active_flows_, read through
//     slot indices instead of scattered arena reads.
//  4. Busy slots. D-CLAS serves FIFO within a queue, so most active
//     flows of a busy fabric hold rate 0 behind their queue's head. A
//     slot whose installed rate is 0 and whose remaining bytes exceed
//     the slack is idle: its integration step is an exact +0.0 (the
//     legacy skip), it cannot win the t_next minimum, and it fails both
//     completion clauses — until the next install re-rates it. The
//     install's copy-back pass lists the other slots in busy_ with one
//     store per slot, and the t_next minimum, the fused integration
//     (slot and coflow totals in one ascending pass, the legacy
//     accumulation order), the completion sweep and the next install's
//     attained-service sync visit busy_ only. Unlike a calendar of
//     predicted completions, busy_ predicts nothing: it is the exact set
//     the skipped passes could change.

void Run::installAllocation(const SimView& view) {
  ++allocate_calls_;
  // Materialize attained service for the scheduler: slot_sent_ is the
  // canonical copy between installs (the legacy engine updates the
  // per-flow field directly). Only the slots busy since the last install
  // can have moved; a slot released since was pushed from the arena.
  // rates_ needs no zeroing here — the copy-back loop below re-zeroes
  // each entry as it reads it.
  for (const std::uint32_t k : busy_) {
    flows_.sent_bytes[active_flows_[k]] = slot_sent_[k];
  }
  scheduler_.allocate(view, rates_);
  const std::size_t n = active_flows_.size();
  busy_.resize(n);
  std::size_t busy = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t fi = active_flows_[k];
    const util::Rate rate = std::max(0.0, rates_[fi]);
    // Re-zero in the same pass (the entry is already in cache) so the
    // next install skips a second scattered sweep over rates_.
    rates_[fi] = 0.0;
    // slot_rate_[k] always mirrors flows_.rate[fi]. Branch-free: store
    // both, count a change, and keep k when the slot is busy.
    rate_changes_ += rate != slot_rate_[k];
    slot_rate_[k] = rate;
    flows_.rate[fi] = rate;
    busy_[busy] = static_cast<std::uint32_t>(k);
    busy += (rate != 0.0) | (slot_size_[k] - slot_sent_[k] <= slackFor(slot_size_[k]));
  }
  busy_.resize(busy);
  if (options_.verify_allocations) verifyAllocation();

  // Aggregates in group flow-index order: coflowAggregateRate()'s
  // fallback sums in this exact order under the legacy engine, and
  // scheduler wake-up predictions need both engines to read bitwise-
  // equal totals.
  for (const ActiveGroup& g : active_index_.groups()) {
    util::Rate total = 0.0;
    for (const std::size_t fi : g.flow_indices) total += flows_.rate[fi];
    coflow_rate_[g.coflow_index] = total;
  }

  installed_ = true;
  installed_index_epoch_ = active_index_.epoch();
  installed_sched_epoch_ = scheduler_.scheduleEpoch(view);
}

void Run::sweepCompletions() {
  // Legacy-identical completion condition and iteration order (scan with
  // swap-remove re-examination), over the busy slots: the full scan never
  // completes an idle slot, so the busy ones complete in the exact order
  // the legacy scan visits them — the ordering contract documented in
  // DESIGN.md section 7.
  for (std::size_t i = 0; i < busy_.size();) {
    const std::size_t k = busy_[i];
    const util::Bytes remaining = slot_size_[k] - slot_sent_[k];
    const util::Rate frate = slot_rate_[k];
    if (remaining <= slackFor(slot_size_[k]) ||
        (frate > util::kEps && now_ + remaining / frate <= now_)) {
      const std::size_t fi = active_flows_[k];
      const std::size_t ci = slot_coflow_[k];
      coflows_[ci].sent += remaining;  // Account the snap.
      flows_.sent_bytes[fi] = flows_.size_bytes[fi];
      flows_.done[fi] = 1;
      flows_.rate[fi] = 0;
      ++flow_completions_;
      // The last slot moves into k. A busy mover is busy_'s last entry:
      // drop that entry and re-examine k, as the full scan does. An idle
      // mover cannot complete, so advance; busy_[i] then names an idle
      // slot until the next install rebuilds the list — a harmless
      // superset, since an idle slot is a no-op in every pass. Either way
      // busy_ never holds an index at or past active_flows_.size().
      if (busy_.back() == active_flows_.size() - 1) {
        busy_.pop_back();
      } else {
        ++i;
      }
      active_flows_[k] = active_flows_.back();
      active_flows_.pop_back();
      slot_rate_[k] = slot_rate_.back();
      slot_rate_.pop_back();
      slot_sent_[k] = slot_sent_.back();
      slot_sent_.pop_back();
      slot_size_[k] = slot_size_.back();
      slot_size_.pop_back();
      slot_coflow_[k] = slot_coflow_.back();
      slot_coflow_.pop_back();
      active_index_.removeFlow(ci, fi);
      scheduler_.onFlowCompleted(makeView(), fi);
      CoflowState& c = coflows_[ci];
      if (++c.flows_done == c.flow_indices.size()) {
        finishCoflow(ci);
      }
    } else {
      ++i;
    }
  }
}

SimResult Run::executeIncremental() {
  scheduler_.reset(fabric_);
  coflow_rate_.assign(coflows_.size(), 0.0);
  processDueEvents();  // Releases everything due at t = 0.

  while (true) {
    if (active_flows_.empty()) {
      if (timeline_.empty()) break;  // All done.
      now_ = timeline_.top().time;
      installed_ = false;
      processDueEvents();
      continue;
    }

    if (++rounds_ > options_.max_rounds) {
      throw std::runtime_error("Simulator: exceeded max rounds (" + scheduler_.name() +
                               ")");
    }

    const SimView view = makeView();
    bool reuse = installed_ && active_index_.epoch() == installed_index_epoch_;
    if (reuse) {
      // scheduleEpoch() is also the scheduler's per-round sync hook
      // (D-CLAS applies boundary demotions here), so it must run before
      // the reuse decision is final.
      const std::uint64_t se = scheduler_.scheduleEpoch(view);
      reuse = se != 0 && se == installed_sched_epoch_;
    }
    if (reuse) {
      ++reused_allocations_;
    } else {
      installAllocation(view);
    }

    // Earliest next state change: timeline arrival, flow completion, or
    // scheduler wake-up — the legacy expression over the busy slots (an
    // idle slot's rate is 0, which the legacy loop skips).
    const util::Rate* __restrict rate = slot_rate_.data();
    const util::Bytes* __restrict size = slot_size_.data();
    util::Bytes* __restrict sent = slot_sent_.data();
    util::Seconds t_next = timeline_.empty() ? kInfTime : timeline_.top().time;
    for (const std::uint32_t k : busy_) {
      if (rate[k] > util::kEps) {
        t_next = std::min(t_next, now_ + (size[k] - sent[k]) / rate[k]);
      }
    }
    const util::Seconds wake = scheduler_.nextWakeup(view);
    if (wake > now_) t_next = std::min(t_next, wake);

    if (!std::isfinite(t_next)) {
      throw std::runtime_error("Simulator: starvation deadlock under scheduler " +
                               scheduler_.name());
    }
    t_next = std::max(t_next, now_);  // Guard against wake-ups in the past.

    // Integrate the busy slots in one ascending pass: each step lands in
    // the slot and then in its coflow's total, in slot (= legacy scan)
    // order. The idle slots' steps are an exact +0.0, so skipping them
    // matches the legacy `continue` bit for bit.
    const util::Seconds dt = t_next - now_;
    if (dt > 0) {
      for (const std::uint32_t k : busy_) {
        const util::Bytes d = std::min(rate[k] * dt, size[k] - sent[k]);
        sent[k] += d;
        coflows_[slot_coflow_[k]].sent += d;
      }
    }
    now_ = t_next;

    sweepCompletions();
    processDueEvents();
  }

  if (coflows_done_ != coflows_.size()) {
    throw std::runtime_error("Simulator: run ended with unfinished coflows");
  }
  return buildResult();
}

SimResult Run::buildResult() {
  SimResult result;
  result.scheduler = scheduler_.name();
  result.allocation_rounds = rounds_;
  result.allocate_calls = allocate_calls_;
  result.reused_allocations = reused_allocations_;
  // Field names predate the engine's current counters; see records.h.
  result.heap_rebuilds = incremental_ ? allocate_calls_ : 0;
  result.events_processed = flow_completions_;
  result.heap_rekeys = rate_changes_;
  result.makespan = now_;
  result.rejected_coflows = scheduler_.rejectedCoflows();

  // Finishes-Before adjustment: a coflow's effective finish is the max of
  // its own finish and its pipelined parents' effective finishes.
  std::vector<util::Seconds> adjusted(coflows_.size(), -1.0);
  std::vector<int> visiting(coflows_.size(), 0);
  auto dfs = [&](auto&& self, std::size_t ci) -> util::Seconds {
    if (adjusted[ci] >= 0) return adjusted[ci];
    if (visiting[ci]) {
      throw std::runtime_error("Simulator: cycle in finishes_before dependencies");
    }
    visiting[ci] = 1;
    util::Seconds t = coflows_[ci].finish_time;
    for (const std::size_t pi : fb_parents_[ci]) t = std::max(t, self(self, pi));
    visiting[ci] = 0;
    adjusted[ci] = t;
    return t;
  };

  std::unordered_map<coflow::JobId, JobRecord> job_records;
  for (const coflow::JobSpec& job : workload_.jobs) {
    JobRecord jr;
    jr.id = job.id;
    jr.arrival = job.arrival;
    jr.compute_time = job.compute_time;
    jr.comm_finish = job.arrival;
    job_records[job.id] = jr;
  }

  for (std::size_t ci = 0; ci < coflows_.size(); ++ci) {
    const CoflowState& c = coflows_[ci];
    const coflow::CoflowSpec& spec = *specs_[ci];
    CoflowRecord rec;
    rec.id = c.id;
    rec.job = c.job;
    rec.spec_arrival = c.spec_arrival;
    rec.release = c.release_time;
    rec.finish_own = c.finish_time;
    rec.finish = dfs(dfs, ci);
    rec.bytes = spec.totalBytes();
    rec.max_flow_bytes = spec.maxFlowBytes();
    rec.width = spec.width();
    rec.deadline = spec.deadline;
    if (rec.hasDeadline()) {
      ++result.deadline_coflows;
      if (rec.missedDeadline()) ++result.deadline_misses;
    }
    result.coflows.push_back(rec);
    JobRecord& jr = job_records.at(c.job);
    jr.comm_finish = std::max(jr.comm_finish, rec.finish);
  }

  for (const coflow::JobSpec& job : workload_.jobs) {
    result.jobs.push_back(job_records.at(job.id));
  }
  return result;
}

}  // namespace

Simulator::Simulator(fabric::FabricConfig fabric_config, Scheduler& scheduler,
                     SimOptions options)
    : fabric_config_(fabric_config), scheduler_(scheduler), options_(options) {}

SimResult Simulator::run(const coflow::Workload& workload) {
  Run run(fabric_config_, scheduler_, options_, workload);
  SimResult result = run.execute();
  if (options_.metrics != nullptr) recordSimResult(*options_.metrics, result);
  return result;
}

SimResult runSimulation(const coflow::Workload& workload,
                        fabric::FabricConfig fabric_config, Scheduler& scheduler,
                        SimOptions options) {
  Simulator sim(fabric_config, scheduler, options);
  return sim.run(workload);
}

}  // namespace aalo::sim
