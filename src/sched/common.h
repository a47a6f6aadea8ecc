// Building blocks shared by the coflow schedulers.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.h"
#include "fabric/maxmin.h"
#include "sim/scheduler.h"
#include "util/units.h"

namespace aalo::sched {

/// A coflow together with its currently active (started, unfinished)
/// flows. Alias of the engine-maintained grouping type; every view's
/// `active_index->groups()` lists them.
using ActiveCoflow = sim::ActiveGroup;

/// Gives `group`'s flows a max-min fair allocation of `residual` (equal
/// weights — line 6 of Pseudocode 1: no flow-size information), *adding*
/// to whatever `rates` already holds and consuming the residual. All
/// temporaries live in `scratch`.
void allocateCoflowMaxMin(const sim::SimView& view, const ActiveCoflow& group,
                          fabric::ResidualCapacity& residual,
                          std::vector<util::Rate>& rates,
                          fabric::MaxMinScratch& scratch);

/// A coflow's effective bottleneck against some capacity: the seconds Γ
/// its busiest resource (a port, or a rack link on an oversubscribed
/// fabric) needs to carry the remaining bytes routed through it, and the
/// smallest capacity among the resources that still have bytes to carry.
struct Bottleneck {
  util::Seconds gamma = 0;
  util::Rate min_capacity = std::numeric_limits<util::Rate>::infinity();
};

/// The bytes a flow still has to send: the per-flow load of the
/// clairvoyant bottleneck (Varys, MADD).
inline util::Bytes remainingBytes(const sim::FlowState& f) {
  return std::max(0.0, f.size - f.sent);
}

/// Per-resource load accumulator: adds `flow_bytes(flow)` of each of
/// `group`'s active flows to `load` (indexed like
/// fabric::Fabric::capacities()) at every resource on the flow's route.
template <typename FlowBytes>  // util::Bytes(const sim::FlowState&)
void addCoflowLoad(const sim::SimView& view, const ActiveCoflow& group,
                   std::vector<util::Bytes>& load, FlowBytes&& flow_bytes) {
  for (std::size_t k = 0; k < group.flow_indices.size(); ++k) {
    const util::Bytes bytes = flow_bytes(view.flow(group.flow_indices[k]));
    for (const std::uint32_t r : view.fabric->route(group.srcs[k], group.dsts[k])) {
      load[r] += bytes;
    }
  }
}

/// The worst load ÷ capacity over the resources `group`'s active flows
/// cross, and the smallest capacity among those with load to carry.
Bottleneck worstLoad(const sim::SimView& view, const ActiveCoflow& group,
                     const std::vector<util::Bytes>& load,
                     const std::vector<util::Rate>& capacity);

/// The bottleneck of `group`'s active flows against `capacity` (the full
/// fabric for an SEBF order, the residual for MADD) when each flow carries
/// `flow_bytes(flow)` more bytes: remainingBytes for Varys and MADD, the
/// learned estimate for sampling. The per-resource sums live in `scratch`.
template <typename FlowBytes>  // util::Bytes(const sim::FlowState&)
Bottleneck coflowBottleneck(const sim::SimView& view, const ActiveCoflow& group,
                            const fabric::ResidualCapacity& capacity,
                            fabric::MaxMinScratch& scratch,
                            FlowBytes&& flow_bytes) {
  scratch.load.assign(view.fabric->numResources(), 0.0);
  addCoflowLoad(view, group, scratch.load, flow_bytes);
  return worstLoad(view, group, scratch.load, capacity.left());
}

/// Clairvoyant MADD (Varys): every active flow of `group` gets
/// remaining / Gamma where Gamma is the coflow's effective bottleneck
/// completion time against `residual` — all flows finish together, using
/// no more than necessary. No-op if the group has no remaining bytes or
/// a resource it needs is exhausted.
void allocateCoflowMadd(const sim::SimView& view, const ActiveCoflow& group,
                        fabric::ResidualCapacity& residual,
                        std::vector<util::Rate>& rates,
                        fabric::MaxMinScratch& scratch);

/// Work conservation: distributes whatever `residual` still holds among
/// all of `flow_indices` max-min (equal weights), adding to `rates`.
void backfillMaxMin(const sim::SimView& view,
                    const std::vector<std::size_t>& flow_indices,
                    fabric::ResidualCapacity& residual,
                    std::vector<util::Rate>& rates,
                    fabric::MaxMinScratch& scratch);

/// One coflow as one ingress port's daemon sees it: the coflow's active
/// flows leaving that port (in view.active_flows order) and, once
/// addLocalSent has run, the bytes the coflow has sent through the port.
struct PortCoflow {
  std::size_t coflow_index;
  util::Bytes local_sent = 0;
  std::vector<std::size_t> flow_indices;
};

/// The active flows grouped per ingress port: ports[p] lists the coflows
/// with an active flow leaving p, in first-appearance order of
/// view.active_flows; slot[p] maps a coflow index to its position there.
struct PortGroups {
  std::vector<std::vector<PortCoflow>> ports;
  std::vector<std::unordered_map<std::size_t, std::size_t>> slot;
};

PortGroups groupByIngressPort(const sim::SimView& view);

/// Locally attained service, the only size a daemon sees without a
/// coordinator: adds to every (port, coflow) entry of `groups` the bytes
/// the coflow has sent through that port, finished flows included.
/// Sums in active-index group order, then the coflow's flow order.
void addLocalSent(const sim::SimView& view, PortGroups& groups);

/// Aggregate current rate of a coflow's active flows (valid right after an
/// allocation round; used for wake-up prediction). Read from the
/// incremental engine's per-coflow aggregate; the legacy engine keeps
/// none, so there it is summed over the flows.
util::Rate coflowAggregateRate(const sim::SimView& view, const ActiveCoflow& group);

}  // namespace aalo::sched
