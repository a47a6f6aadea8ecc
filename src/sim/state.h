// Runtime state of a flow-level simulation.
//
// Ground truth lives here. Schedulers receive a read-only SimView of it;
// *non-clairvoyant* schedulers must not read FlowState::size,
// CoflowState::size_released or any other forward-looking field — only
// attained service (`sent`). This discipline is checked behaviourally in
// tests (a non-clairvoyant scheduler's allocation must be invariant to
// remaining sizes).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "coflow/ids.h"
#include "coflow/spec.h"
#include "util/units.h"

namespace aalo::sim {

inline constexpr util::Seconds kInfTime = std::numeric_limits<util::Seconds>::infinity();

/// Value snapshot of one flow. Since the SoA refactor this is a *view*
/// type: per-flow ground truth lives in FlowArena's contiguous columns,
/// and SimView::flow() gathers a FlowState on demand. It doubles as the
/// builder type for hand-assembled arenas (tests, benches).
struct FlowState {
  coflow::FlowId id = 0;
  std::size_t coflow_index = 0;  ///< Index into SimView::coflows.
  coflow::PortId src = 0;
  coflow::PortId dst = 0;
  util::Bytes size = 0;  ///< Ground truth; clairvoyant schedulers only.
  util::Bytes sent = 0;
  util::Seconds release_time = kInfTime;  ///< Absolute time the flow appears.
  bool started = false;
  bool done = false;
  util::Rate rate = 0;  ///< Current allocation (engine-owned).
};

/// Struct-of-arrays flow store. One entry per flow, indexed by flow index;
/// each field is its own contiguous column so the engine's integration
/// sweep and the schedulers' demand-building loops read dense memory the
/// compiler can keep in vector registers. `remaining` is deliberately not
/// materialized: it is always computed as `size_bytes[i] - sent_bytes[i]`,
/// the exact expression the pre-SoA engine used, so trajectories stay
/// bitwise-comparable with the legacy oracle.
struct FlowArena {
  std::vector<coflow::FlowId> id;
  std::vector<std::uint32_t> coflow_of;  ///< Index into SimView::coflows.
  std::vector<coflow::PortId> src_port;
  std::vector<coflow::PortId> dst_port;
  std::vector<util::Bytes> size_bytes;  ///< Ground truth; clairvoyant only.
  std::vector<util::Bytes> sent_bytes;
  std::vector<util::Seconds> release_time;
  std::vector<util::Rate> rate;  ///< Current allocation (engine-owned).
  std::vector<std::uint8_t> started;
  std::vector<std::uint8_t> done;

  std::size_t size() const { return src_port.size(); }
  bool empty() const { return src_port.empty(); }

  void clear() {
    id.clear();
    coflow_of.clear();
    src_port.clear();
    dst_port.clear();
    size_bytes.clear();
    sent_bytes.clear();
    release_time.clear();
    rate.clear();
    started.clear();
    done.clear();
  }

  /// Appends a flow from its value snapshot; returns the new flow index.
  std::size_t push(const FlowState& f) {
    const std::size_t i = size();
    id.push_back(f.id);
    coflow_of.push_back(static_cast<std::uint32_t>(f.coflow_index));
    src_port.push_back(f.src);
    dst_port.push_back(f.dst);
    size_bytes.push_back(f.size);
    sent_bytes.push_back(f.sent);
    release_time.push_back(f.release_time);
    rate.push_back(f.rate);
    started.push_back(f.started ? 1 : 0);
    done.push_back(f.done ? 1 : 0);
    return i;
  }

  /// Gathers flow `i` into a value snapshot (cold paths; hot loops read
  /// the columns directly).
  FlowState get(std::size_t i) const {
    FlowState f;
    f.id = id[i];
    f.coflow_index = coflow_of[i];
    f.src = src_port[i];
    f.dst = dst_port[i];
    f.size = size_bytes[i];
    f.sent = sent_bytes[i];
    f.release_time = release_time[i];
    f.started = started[i] != 0;
    f.done = done[i] != 0;
    f.rate = rate[i];
    return f;
  }
};

struct CoflowState {
  coflow::CoflowId id;
  coflow::JobId job = 0;
  /// Requested start: job arrival + coflow arrival offset.
  util::Seconds spec_arrival = 0;
  /// Actual start once Starts-After parents finished; kInfTime until then.
  util::Seconds release_time = kInfTime;
  bool released = false;
  bool done = false;
  util::Seconds finish_time = -1;  ///< Own flows all done; -1 while running.
  /// Completion deadline relative to release (0 = none). Copied from the
  /// spec; deadline-aware schedulers read it through the view.
  util::Seconds deadline = 0;

  std::vector<std::size_t> flow_indices;  ///< All flows (incl. future waves).
  std::size_t flows_done = 0;

  /// Ground-truth attained service across the whole fabric. This is the
  /// one quantity CLAS/D-CLAS is allowed to know (via coordination).
  util::Bytes sent = 0;
  /// Ground-truth total of *started* flows. Clairvoyant-only.
  util::Bytes size_released = 0;

  bool finished() const { return done; }

  /// Absolute deadline instant; kInfTime when the coflow has no deadline
  /// or is not yet released (the deadline clock starts at release).
  util::Seconds absoluteDeadline() const {
    return (deadline > 0 && released) ? release_time + deadline : kInfTime;
  }
};

/// One coflow together with its currently active (started, unfinished)
/// flows. The grouping every scheduler discipline starts from.
///
/// `srcs`/`dsts` mirror flow_indices element-for-element: schedulers'
/// innermost loops (demand building, gainers filtering) need each flow's
/// endpoints, and gathering them through the arena costs one scattered
/// load per port per flow per round. Packing them here turns those loops
/// into dense sequential reads; the index maintains the alignment on
/// every add/remove.
struct ActiveGroup {
  std::size_t coflow_index = 0;
  std::vector<std::size_t> flow_indices;
  std::vector<coflow::PortId> srcs;  ///< srcs[k] = src port of flow_indices[k].
  std::vector<coflow::PortId> dsts;  ///< dsts[k] = dst port of flow_indices[k].
};

/// Incrementally maintained grouping of active flows by coflow. The
/// engine updates it on every flow release and completion, so schedulers
/// read the grouping in O(1) instead of rebuilding a hash map per round
/// (previously twice per round: allocate + nextWakeup).
///
/// Group order is deterministic — activation order, compacted by
/// swap-removal when a coflow's last active flow finishes — but NOT
/// meaningful; disciplines that care about order sort by their own key,
/// exactly as they do over sched::activeGroups()'s rebuilt fallback.
class ActiveCoflowIndex {
 public:
  const std::vector<ActiveGroup>& groups() const { return groups_; }

  /// The group of a coflow's active flows, or null if it has none.
  const ActiveGroup* groupFor(std::size_t coflow_index) const {
    const std::size_t g =
        coflow_index < group_of_.size() ? group_of_[coflow_index] : kNone;
    return g == kNone ? nullptr : &groups_[g];
  }

  /// Bumped on every membership change; lets consumers cache per-round
  /// derived state keyed on (index identity, epoch).
  std::uint64_t epoch() const { return epoch_; }

  /// Resets for a run over `num_coflows` coflows and `num_flows` flows.
  void reset(std::size_t num_coflows, std::size_t num_flows) {
    groups_.clear();
    group_of_.assign(num_coflows, kNone);
    pos_of_.assign(num_flows, kNone);
    ++epoch_;
  }

  void addFlow(std::size_t coflow_index, std::size_t flow_index, coflow::PortId src,
               coflow::PortId dst) {
    std::size_t g = group_of_[coflow_index];
    if (g == kNone) {
      g = groups_.size();
      group_of_[coflow_index] = g;
      if (spare_.empty()) {
        groups_.push_back(ActiveGroup{coflow_index, {}, {}, {}});
      } else {
        // Recycle a retired group to keep its vectors' capacity.
        spare_.back().coflow_index = coflow_index;
        groups_.push_back(std::move(spare_.back()));
        spare_.pop_back();
      }
    }
    pos_of_[flow_index] = groups_[g].flow_indices.size();
    groups_[g].flow_indices.push_back(flow_index);
    groups_[g].srcs.push_back(src);
    groups_[g].dsts.push_back(dst);
    ++epoch_;
  }

  void removeFlow(std::size_t coflow_index, std::size_t flow_index) {
    const std::size_t g = group_of_[coflow_index];
    ActiveGroup& group = groups_[g];
    std::vector<std::size_t>& members = group.flow_indices;
    const std::size_t pos = pos_of_[flow_index];
    pos_of_[flow_index] = kNone;
    members[pos] = members.back();
    members.pop_back();
    group.srcs[pos] = group.srcs.back();
    group.srcs.pop_back();
    group.dsts[pos] = group.dsts.back();
    group.dsts.pop_back();
    if (pos < members.size()) pos_of_[members[pos]] = pos;
    if (members.empty()) {
      spare_.push_back(std::move(group));
      group_of_[coflow_index] = kNone;
      if (g + 1 != groups_.size()) {
        groups_[g] = std::move(groups_.back());
        group_of_[groups_[g].coflow_index] = g;
      }
      groups_.pop_back();
    }
    ++epoch_;
  }

  /// Rebuilds from scratch — for hand-assembled views (tests, micro
  /// benches) that never go through the engine's event loop.
  void rebuild(const FlowArena& flows, const std::vector<std::size_t>& active) {
    std::size_t num_coflows = 0;
    for (const std::uint32_t ci : flows.coflow_of) {
      num_coflows = std::max(num_coflows, static_cast<std::size_t>(ci) + 1);
    }
    reset(num_coflows, flows.size());
    for (const std::size_t fi : active) {
      addFlow(flows.coflow_of[fi], fi, flows.src_port[fi], flows.dst_port[fi]);
    }
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::vector<ActiveGroup> groups_;
  std::vector<std::size_t> group_of_;  ///< coflow index -> slot in groups_.
  std::vector<std::size_t> pos_of_;    ///< flow index -> slot in its group.
  std::vector<ActiveGroup> spare_;     ///< Retired groups (capacity reuse).
  std::uint64_t epoch_ = 0;
};

}  // namespace aalo::sim
